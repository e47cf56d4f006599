"""repro.health: graceful degradation, peer liveness, backpressure.

PR 3 taught the stack to *survive* single faults (one fallback memcpy, one
NACK); this package adds memory: supervised state machines that detect
sustained failure, degrade deterministically, and recover (DESIGN.md §12).

* :mod:`repro.health.breaker` — per-channel I/OAT circuit breakers with
  half-open probe copies, aggregated per host by :class:`HostHealth`.
* :mod:`repro.health.liveness` — keepalive/deadline tracking per remote
  endpoint; sustained silence surfaces a typed ``PeerDead``.
* :mod:`repro.health.backpressure` — receiver busy-signal gating and the
  seeded exponential backoff senders apply to it.

Supervision is always on.  Its thresholds and timers are module constants
beside the code that reads them (``BREAKER_*`` in ``breaker``,
``KEEPALIVE_INTERVAL``/``PEER_DEAD_TIMEOUT`` in ``liveness``, the
watermarks and ``BACKOFF_*`` in ``backpressure``), sized so a healthy run
never pays for them.
"""

from repro.health.backpressure import BusyGate, backoff_delay
from repro.health.breaker import BreakerState, ChannelBreaker, HostHealth
from repro.health.liveness import PeerLivenessMonitor

__all__ = [
    "BreakerState",
    "BusyGate",
    "ChannelBreaker",
    "HostHealth",
    "PeerLivenessMonitor",
    "backoff_delay",
]
