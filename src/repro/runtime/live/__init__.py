"""Live runtime backend: the seam's wall-clock, real-socket side.

Everything under ``repro.runtime.live`` runs protocol code over real OS
processes: length-prefixed pickled envelopes on Unix/TCP sockets
(:mod:`~repro.runtime.live.framing`, :mod:`~repro.runtime.live.wire`),
a crash-tolerant asyncio transport with reconnect + idempotent dedup
(:mod:`~repro.runtime.live.transport`), per-node workers speaking the
same lock/lease protocol as the sim (:mod:`~repro.runtime.live.node`),
the one place-policy arbiter both the supervisor and the home nodes
host (:mod:`~repro.runtime.live.arbiter`), and a supervisor with
heartbeat failure detection, crash restart, and lease recovery
(:mod:`~repro.runtime.live.supervisor`).

Imports here stay lazy-free and asyncio-only so the sim path never pays
for the live backend: nothing in ``repro.sim`` or ``repro.runtime``
core imports this package.
"""

from repro.runtime.live.framing import (
    DEFAULT_MAX_PAYLOAD,
    PREFIX_SIZE,
    FrameDecoder,
    encode_frame,
)
from repro.runtime.live.transport import (
    DEFAULT_CONNECT_RETRY,
    AsyncioTransport,
    FaultyTransport,
    unix_supported,
)
from repro.runtime.live.wire import (
    SUPERVISOR,
    DedupIndex,
    Envelope,
    EnvelopeFactory,
)

__all__ = [
    "AsyncioTransport",
    "DEFAULT_CONNECT_RETRY",
    "DEFAULT_MAX_PAYLOAD",
    "DedupIndex",
    "Envelope",
    "EnvelopeFactory",
    "FaultyTransport",
    "FrameDecoder",
    "PREFIX_SIZE",
    "SUPERVISOR",
    "encode_frame",
    "unix_supported",
]
