"""Receiver busy-signals and the sender backoff they trigger.

Without backpressure an overloaded receiver (exhausted eager ring, too many
active pulls) silently drops traffic and the reliability layer hammers it
with retransmissions every ``retransmit_timeout`` — exactly the incast
pathology.  With it, the receiver sends an unsequenced ``BUSY`` control
packet (rate-limited per peer) and the sender's :class:`~repro.core.
reliability.TxSession` backs off exponentially with *seeded* jitter, so the
backoff curve is deterministic per seed (the soak reports stay
byte-identical) while distinct senders still desynchronise.

The watermarks sit below the exhaustion points that already drop traffic,
so a healthy run never signals BUSY.
"""

from __future__ import annotations

import random

from repro.units import ms, us

#: BUSY eager senders when free eager-ring slots drop to this level
RING_LOW_WATERMARK = 2
#: BUSY rendezvous initiators beyond this many active pulls
MAX_ACTIVE_PULLS = 64
#: per-peer minimum interval between BUSY notifications
BUSY_MIN_INTERVAL = us(200)

#: sender backoff on BUSY: the delay at level L is
#: ``min(BACKOFF_BASE << (L-1), BACKOFF_MAX_DELAY)`` plus a jitter term in
#: ``[0, BACKOFF_JITTER * delay)``
BACKOFF_BASE = us(200)
BACKOFF_MAX_LEVEL = 6
BACKOFF_MAX_DELAY = ms(8)
BACKOFF_JITTER = 0.25


def backoff_delay(level: int, rng: random.Random) -> int:
    """The backoff at BUSY ``level``, jitter drawn from the session's
    seeded ``rng``."""
    level = max(1, min(level, BACKOFF_MAX_LEVEL))
    d = min(BACKOFF_BASE << (level - 1), BACKOFF_MAX_DELAY)
    return d + int(d * BACKOFF_JITTER * rng.random())


class BusyGate:
    """Receiver-side decision: is this host overloaded, and may it say so?

    BUSY notifications are rate-limited per peer (:data:`BUSY_MIN_INTERVAL`)
    so one overload episode costs one control frame per sender, not one per
    dropped fragment.
    """

    def __init__(self, sim):
        self.sim = sim
        self._last_busy: dict = {}
        # statistics
        self.busy_signalled = 0
        self.busy_suppressed = 0

    def ring_pressured(self, ring) -> bool:
        """Eager ring at/below the low watermark (or already exhausted)."""
        return ring.free_slots <= RING_LOW_WATERMARK

    def pulls_pressured(self, active_pulls: int) -> bool:
        """Pull-handle population crossed the high watermark."""
        return active_pulls >= MAX_ACTIVE_PULLS

    def should_signal(self, peer) -> bool:
        """Rate-limit gate; records the decision either way."""
        now = self.sim.now
        last = self._last_busy.get(peer)
        if last is not None and now - last < BUSY_MIN_INTERVAL:
            self.busy_suppressed += 1
            return False
        self._last_busy[peer] = now
        self.busy_signalled += 1
        return True

    def register_metrics(self, reg) -> None:
        reg.counter("health", "busy_signalled", lambda: self.busy_signalled,
                    "BUSY control packets sent to overloading peers")
        reg.counter("health", "busy_suppressed", lambda: self.busy_suppressed,
                    "BUSY notifications elided by per-peer rate limiting")
