"""Wall-clock layer attribution, installed from outside the program.

The traced run patches timing wrappers onto each layer's public entry
points (class attributes), runs the workload, and removes them again.
Wrappers are installed *before* a workload is built, because the hot
paths cache bound methods at construction time.

A span is one call of a plain entry point, or one resume of a
generator entry point (``yield from layer.entry(...)`` delegates every
``send``/``throw`` through the wrapper).  A layer's self time is a
span's duration minus the time covered by the spans nested inside it,
so the self times of all layers plus the unattributed remainder add up
to the measured wall time.

:class:`MoveClock` is the one hook the untraced run keeps: two plain
calls per move-block stamp the host time from a simulated mover's
request (``policy.move``) to the object being placed (the block body
starting), which is the sim's ``move_p50_ms`` / ``move_p99_ms``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_perf = time.perf_counter


class LayerClock:
    """Self time and outermost-call counts per layer."""

    def __init__(self):
        #: layer -> seconds of self time.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> spans not nested in a span of the same layer.
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans: ``[child_seconds, layer]``.
        self.stack: List[list] = []
        #: Extra tallies a wrapper records (e.g. closure sizes).
        self.tally: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[type, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.tally.clear()
        self.stack.clear()

    # -- wrappers -----------------------------------------------------------

    def plain(self, fn: Callable, layer: str, observe=None) -> Callable:
        """Time each call of ``fn`` as one span of ``layer``."""
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][1] != layer
            frame = [0.0, layer]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = _perf() - t0
                stack.pop()
                self_s[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if outer:
                    calls[layer] += 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def generator(self, fn: Callable, layer: str) -> Callable:
        """Time every resume of the generator ``fn`` returns."""
        timed = self._timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs), layer)

        return wrapper

    def _timed(self, gen, layer: str):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        send, throw = gen.send, gen.throw
        calls[layer] += 1
        value = None
        error = None
        while True:
            frame = [0.0, layer]
            stack.append(frame)
            t0 = _perf()
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                took = _perf() - t0
                stack.pop()
                self_s[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value = None
                error = exc

    # -- patching -----------------------------------------------------------

    def patch(self, cls: type, name: str, wrapper: Callable) -> None:
        """Replace ``cls.name`` (its own attribute) until :meth:`restore`."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)


def _own(cls: type, name: str) -> bool:
    return name in cls.__dict__


def install_sim(clock: LayerClock) -> None:
    """Wrap the sim layers' public entry points (see module docstring)."""
    from repro.core.attachment import AttachmentManager
    from repro.core.policies import base as policy_base
    from repro.core.policies.registry import POLICIES
    from repro.network.network import Network
    from repro.runtime.invocation import InvocationService
    from repro.runtime.migration import MigrationService
    from repro.sim.kernel import Environment
    from repro.sim.resources import Resource
    from repro.sim.rng import Stream
    from repro.sim.shard.kernel import ShardClientServerWorkload
    from repro.sim.shard.sync import ConservativeWindowSync, LocalShardHost
    from repro.sim.stats import BatchMeans, RunningStats
    from repro.workload.clientserver import ClientServerWorkload
    from repro.workload.generator import BlockTimingGenerator
    from repro.workload.layered import LayeredWorkload
    from repro.analysis.metrics import MetricsCollector

    plain, gen, patch = clock.plain, clock.generator, clock.patch
    tally = clock.tally

    def closure_size(result) -> None:
        tally["closure_objects"] += len(result)

    patch(Environment, "run", plain(Environment.run, "sim.kernel"))
    patch(
        InvocationService,
        "invoke",
        gen(InvocationService.invoke, "runtime.invocation"),
    )
    patch(
        MigrationService,
        "migrate",
        gen(MigrationService.migrate, "runtime.migration"),
    )
    policy_classes = {policy_base.MigrationPolicy}
    policy_classes.update(
        cls for cls in POLICIES.values() if isinstance(cls, type)
    )
    for cls in policy_classes:
        for name in ("move", "end"):
            if _own(cls, name):
                patch(cls, name, gen(cls.__dict__[name], "core.policies"))
    patch(
        AttachmentManager,
        "closure",
        plain(AttachmentManager.closure, "core.attachment", closure_size),
    )
    patch(Network, "transmit", gen(Network.transmit, "network"))
    patch(RunningStats, "add", plain(RunningStats.add, "sim.stats"))
    patch(BatchMeans, "add", plain(BatchMeans.add, "sim.stats"))
    for name, attr in list(vars(Stream).items()):
        if not name.startswith("_") and callable(attr):
            patch(Stream, name, plain(attr, "sim.rng"))
    patch(Resource, "request", plain(Resource.request, "sim.resources"))
    for cls in (ClientServerWorkload, LayeredWorkload,
                ShardClientServerWorkload):
        for name in ("client_process", "_block_body", "_remote_block"):
            if _own(cls, name):
                patch(cls, name, gen(cls.__dict__[name], "workload"))
    # The window protocol of the inline shard backend.
    patch(
        ConservativeWindowSync,
        "run",
        plain(ConservativeWindowSync.run, "sim.shard"),
    )
    patch(
        LocalShardHost, "dispatch", plain(LocalShardHost.dispatch, "sim.shard")
    )
    patch(
        BlockTimingGenerator,
        "next_plan",
        plain(BlockTimingGenerator.next_plan, "workload"),
    )
    patch(
        MetricsCollector,
        "record_block",
        plain(MetricsCollector.record_block, "workload"),
    )


def install_live(clock: LayerClock) -> None:
    """Wrap the supervisor-side live entry points.

    ``NodeSupervisor.handle`` is a coroutine: its span is the wall time
    from dispatch to completion, awaits included, tallied per envelope
    kind (``handle_s.<kind>`` seconds and ``handle_n.<kind>`` calls in
    :attr:`LayerClock.tally`).
    """
    from repro.runtime.live.supervisor import NodeSupervisor
    from repro.runtime.live.wal import ArbitrationWal
    from repro.runtime.live.wire import Envelope

    plain, patch, tally = clock.plain, clock.patch, clock.tally
    patch(ArbitrationWal, "append", plain(ArbitrationWal.append, "live.wal"))
    patch(Envelope, "encode", plain(Envelope.encode, "live.wire"))
    patch(
        Envelope,
        "decode",
        staticmethod(plain(Envelope.__dict__["decode"].__func__, "live.wire")),
    )
    handle = NodeSupervisor.handle

    @functools.wraps(handle)
    async def timed_handle(self, envelope):
        t0 = _perf()
        try:
            return await handle(self, envelope)
        finally:
            tally["handle_s." + envelope.kind] += _perf() - t0
            tally["handle_n." + envelope.kind] += 1

    patch(NodeSupervisor, "handle", timed_handle)


class MoveClock:
    """Host time from a simulated move request to the object's placement.

    ``policy.move(block)`` stamps the start; the workload's
    ``_block_body`` — entered as soon as the move completed — stamps the
    end.  Two plain calls per move-block, no per-resume cost.  Shard
    kernels hand their samples back inside ``ShardOutcome.policy_stats``,
    which also carries them out of forked process-backend workers.
    """

    SAMPLES_KEY = "perfbench.move_latency_s"

    def __init__(self):
        self.samples: List[float] = []
        self._pending: Dict[int, float] = {}
        self._clock = LayerClock()

    def install(self) -> None:
        from repro.core.policies import base as policy_base
        from repro.core.policies.registry import POLICIES
        from repro.sim.shard.kernel import ShardKernel
        from repro.workload.clientserver import ClientServerWorkload
        from repro.workload.layered import LayeredWorkload

        pending, samples, patch = self._pending, self.samples, self._clock.patch

        def start(fn):
            @functools.wraps(fn)
            def move(policy, block):
                pending[id(block)] = _perf()
                return fn(policy, block)

            return move

        def end(fn):
            @functools.wraps(fn)
            def block_body(workload, client, block, plan):
                t0 = pending.pop(id(block), None)
                if t0 is not None:
                    samples.append(_perf() - t0)
                return fn(workload, client, block, plan)

            return block_body

        classes = {policy_base.MigrationPolicy}
        classes.update(c for c in POLICIES.values() if isinstance(c, type))
        for cls in classes:
            if _own(cls, "move"):
                patch(cls, "move", start(cls.__dict__["move"]))
        for cls in (ClientServerWorkload, LayeredWorkload):
            patch(cls, "_block_body", end(cls.__dict__["_block_body"]))

        outcome = ShardKernel.outcome

        @functools.wraps(outcome)
        def shipped_outcome(kernel):
            result = outcome(kernel)
            result.policy_stats[self.SAMPLES_KEY] = list(samples)
            samples.clear()
            return result

        patch(ShardKernel, "outcome", shipped_outcome)

    def take(self) -> List[float]:
        """Samples recorded in this process since the last take."""
        taken = list(self.samples)
        self.samples.clear()
        self._pending.clear()
        return taken

    def restore(self) -> None:
        self._clock.restore()
