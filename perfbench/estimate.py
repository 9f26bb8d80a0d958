"""Estimators shared by the sim and live runs.

The host this benchmark was tuned on is shared, and its speed moves in
two ways a single run cannot average out:

* Its single-thread speed changes in slow and fast periods lasting
  milliseconds to minutes (identical sim cells ran between 28k and 64k
  calls/s, CPU time equal to wall time).  Every run therefore times
  fixed reference passes (:class:`HostSpeed`) between its units (sim
  cells, supervised live runs) and states each unit's times at the
  reference speed: a unit's seconds are multiplied by
  ``HostSpeed.NOMINAL_S`` over the mean of the samples just before and
  just after it.  A slower program still reads slower; a
  slower host does not.  Every run also prints its raw figures.
* The hypervisor steals its vCPUs, in bursts of milliseconds, at up to
  a third of their time (``/proc/stat``), and an idle vCPU woken by
  another waits for the host.  The live workload therefore runs its
  processes on one vCPU (see :mod:`livebench`), and the bounded move
  latency is the p90, which steal bursts reach far less often than the
  p99; the p99 is printed with the number of samples beyond it.

Rates and set-up times are the median of the units' own (live rates:
total migrations over total moving-phase seconds, as a run holds only
about nine supervised runs).  Move latency percentiles are over the
samples of every unit pooled.  A sim set-up takes well under a
millisecond, and the first after a collection runs on cold caches, so
a cell is set up several times in a row and its set-up time is the
fastest of them, as ``timeit`` does for a short statement.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time
from typing import List, Sequence, Tuple

#: A p99 is reported only with at least this many samples beyond it.
MIN_BEYOND_P99 = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail(samples: Sequence[float]) -> Tuple[float, float, float, int]:
    """``(p50, p90, p99, samples beyond p99)`` of a set of latencies."""
    p99 = quantile(samples, 0.99)
    return (
        statistics.median(samples),
        quantile(samples, 0.90),
        p99,
        sum(1 for sample in samples if sample > p99),
    )


class _Slot:
    __slots__ = ("holder", "visits")

    def __init__(self):
        self.holder = 0
        self.visits = 0


class HostSpeed:
    """Fixed pure-Python reference passes that track the host's speed.

    Two passes, timed back to back with garbage collection held off:
    one looks up random entries of a table of small objects several
    times the size of a core's cache; the other is a small event loop
    of generators on a heap, as a simulation kernel runs.  On the tuning
    host the geometric mean of their times followed the sim cells'
    through the host's slow and fast periods closer than either pass
    alone: in a six-minute trial, the 40 s medians of the normalised
    cells spread 1.6% against 2.9% and 3.9%, the raw ones 19%.  They
    share no code with the program, so a change to the program cannot
    move them.
    """

    #: Seconds of one sample at the speed every reported time is stated
    #: at: about the median sample on the tuning host.
    NOMINAL_S = 0.0140
    ENTRIES = 32768
    LOOKUPS = 10000
    EVENTS = 8000

    def __init__(self):
        self._table = [
            {"key": i, "value": [i, i + 1, i + 2]}
            for i in range(self.ENTRIES)
        ]
        #: Seconds of every sample taken, in order.
        self.passes: List[float] = []

    def _lookups(self) -> None:
        table, entries = self._table, self.ENTRIES
        draw = random.Random(0).randrange
        total = 0
        for _ in range(self.LOOKUPS):
            entry = table[draw(entries)]
            total += entry["key"] + entry["value"][1]

    def _event_loop(self) -> None:
        rng = random.Random(0)
        slots = [_Slot() for _ in range(64)]

        def process(index):
            while True:
                slot = slots[rng.randrange(64)]
                slot.holder = index
                slot.visits += 1
                yield rng.random()

        processes = [process(index) for index in range(16)]
        heap = [(next(p), index) for index, p in enumerate(processes)]
        heapq.heapify(heap)
        for _ in range(self.EVENTS):
            now, index = heapq.heappop(heap)
            heapq.heappush(heap, (now + processes[index].send(None), index))

    def sample(self) -> float:
        """Time both passes; return (and keep) their geometric mean."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._lookups()
            t1 = time.perf_counter()
            self._event_loop()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        took = math.sqrt((t1 - t0) * (t2 - t1))
        self.passes.append(took)
        return took

    def scale(self, before: float, after: float) -> float:
        """Factor turning a unit's host seconds into reference seconds."""
        return self.NOMINAL_S / ((before + after) / 2.0)
