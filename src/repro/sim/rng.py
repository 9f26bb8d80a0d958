"""Reproducible random-number streams for simulation components.

Every stochastic component of a simulation (each client's move-block
generator, the network latency sampler, initial placement, …) draws from
its *own* named stream.  Streams are spawned deterministically from a
single root seed via :class:`numpy.random.SeedSequence`, so

* the same seed reproduces the same run bit-for-bit, and
* adding a new consumer does not perturb the draws of existing ones
  (streams are keyed by name, not by creation order).

The paper's distributions (Table 1) are exponential with the remote-call
duration normalized to mean 1; :meth:`Stream.exponential` is the
workhorse.  It serves its draws from a block of ``standard_exponential``
variates scaled by the mean, which is bit-identical to numpy's scalar
``exponential(mean)`` (that is ``mean * standard_exponential()`` off
the same bit stream) at a fraction of the per-call cost.  Any other
kind of draw first rewinds the bit generator to where the scalar draws
would have left it (see :meth:`Stream._resync`), so every interleaving
of draw kinds yields exactly the unbuffered sequence.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Dict, Iterable, Optional

import numpy as np

#: Exponential variates fetched per refill of a stream's buffer.
EXP_BLOCK = 64


class Stream:
    """A single named random stream (thin wrapper over a numpy Generator)."""

    __slots__ = ("name", "_gen", "_exp", "_exp_state", "_buffering")

    def __init__(self, name: str, generator: np.random.Generator):
        self.name = name
        self._gen = generator
        #: Unserved standard-exponential variates, next one last.
        self._exp = array("d")
        #: Bit-generator state just before the buffer was filled.
        self._exp_state = None
        #: Cleared for good once a stream needed a :meth:`_resync`: its
        #: draw kinds interleave, so a buffer would mostly be rewound.
        self._buffering = True

    def exponential(self, mean: float) -> float:
        """Draw from Exp with the given *mean* (not rate).

        A mean of exactly 0 deterministically returns 0.0, which lets
        degenerate configurations (e.g. zero think time) be expressed
        without special-casing at the call sites.
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if mean == 0:
            return 0.0
        buffered = self._exp
        if buffered:
            return float(mean * buffered.pop())
        if self._buffering:
            gen = self._gen
            self._exp_state = gen.bit_generator.state
            buffered.frombytes(gen.standard_exponential(EXP_BLOCK).tobytes())
            buffered.reverse()
            return float(mean * buffered.pop())
        return float(self._gen.exponential(mean))

    def _resync(self) -> None:
        """Rewind the bit generator to where scalar draws would be.

        Restores the state saved at the last refill, re-draws the
        variates served since, drops the rest and stops buffering.
        Every non-exponential draw calls this while the buffer is
        non-empty; an empty buffer already leaves the generator exactly
        where ``EXP_BLOCK`` scalar draws would.
        """
        gen = self._gen
        gen.bit_generator.state = self._exp_state
        gen.standard_exponential(EXP_BLOCK - len(self._exp))
        del self._exp[:]
        self._exp_state = None
        self._buffering = False

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw uniformly from ``[low, high)``."""
        if self._exp:
            self._resync()
        return float(self._gen.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Draw a uniform integer from ``[low, high)``."""
        if self._exp:
            self._resync()
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        """Pick one element of a non-empty sequence uniformly."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        if self._exp:
            self._resync()
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """Shuffle a list in place."""
        if self._exp:
            self._resync()
        self._gen.shuffle(seq)

    def poisson_count(self, mean: float) -> int:
        """Draw a Poisson-distributed count with the given mean."""
        if self._exp:
            self._resync()
        return int(self._gen.poisson(mean))

    def geometric_at_least_one(self, mean: float) -> int:
        """Integer-valued draw with the given mean, at least 1.

        The paper's N ("number of calls in a move-block") is described
        as exponentially distributed but must be a positive integer.  We
        use ``max(1, round(Exp(mean)))``, which preserves the mean well
        for the means used in the paper (6 and 8) and guarantees every
        block performs at least one call.
        """
        return max(1, int(round(self.exponential(mean))))

    def __repr__(self) -> str:
        return f"<Stream {self.name!r}>"


class RandomStreams:
    """Factory of deterministic, independent named streams.

    Parameters
    ----------
    seed:
        Root seed of the run.  Equal seeds give equal stream families.

    Notes
    -----
    The stream for a name is derived as
    ``SeedSequence([seed, crc32(name)])`` so it depends only on the
    (seed, name) pair, never on how many other streams exist.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating if needed) the stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence([self.seed, digest])
        stream = Stream(name, np.random.default_rng(seq))
        self._streams[name] = stream
        return stream

    def streams(self, names: Iterable[str]) -> Dict[str, Stream]:
        """Bulk-create streams for a set of names."""
        return {name: self.stream(name) for name in names}

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} active={len(self._streams)}>"
