"""Per-channel I/OAT circuit breakers.

The offload path of PR 3 reacts to channel failure one copy at a time:
every failed descriptor is healed by a fallback memcpy and the next message
happily picks the same dead channel again.  The breaker adds memory — after
:data:`BREAKER_THRESHOLD` aborted/stalled descriptors within
:data:`BREAKER_WINDOW` the channel trips to OPEN and
:meth:`~repro.core.offload.OffloadManager.should_offload` refuses it
(memcpy-only, the paper's non-offload path).
While OPEN, a half-open *probe copy* — one tiny real descriptor — is
submitted periodically; a completed probe re-opens the channel for offload,
a failed one keeps it tripped.

State machine (DESIGN.md §12)::

    CLOSED --[>= threshold failures in window]--> OPEN
    OPEN   --[probe timer]--> HALF_OPEN (probe descriptor in flight)
    HALF_OPEN --[probe completed]--> CLOSED
    HALF_OPEN --[probe aborted / overdue]--> OPEN

Probes are demand-driven: one is armed at trip time, and while the breaker
stays OPEN each refused offload attempt re-arms the next probe.  An idle
host therefore stops probing — the event heap drains and ``sim.run()``
callers that expect full drainage still terminate.

Every transition is counted in the metrics registry and, when tracing is
enabled, marked as a Perfetto instant on the channel's lane.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.ioat.descriptor import CopyDescriptor
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.ioat.channel import DmaChannel

#: descriptor failures/stalls within :data:`BREAKER_WINDOW` that trip a
#: channel from CLOSED to OPEN (memcpy-only)
BREAKER_THRESHOLD = 3
#: sliding window over which failures are counted
BREAKER_WINDOW = us(100)
#: delay from trip (or refused offload while OPEN) to the next probe copy
BREAKER_PROBE_INTERVAL = us(250)
#: probe copy length; tiny, so a probe costs one descriptor
BREAKER_PROBE_BYTES = 256
#: extra wait beyond the modeled probe service time before checking it
BREAKER_PROBE_SLACK = us(5)


class BreakerState(Enum):
    CLOSED = "closed"        # healthy: offload allowed
    OPEN = "open"            # tripped: memcpy-only
    HALF_OPEN = "half_open"  # probe copy in flight


class ChannelBreaker:
    """Supervises one :class:`~repro.ioat.channel.DmaChannel`.

    The channel notifies the breaker through its ``health`` hook
    (:meth:`on_descriptor_failed` / :meth:`on_stall`); the offload manager
    consults :meth:`allows_offload` before picking the channel.
    """

    def __init__(self, sim, channel: "DmaChannel", probe_src, probe_dst,
                 trace=None):
        self.sim = sim
        self.channel = channel
        self.trace = trace
        #: shared host-kernel scratch regions backing the probe copies
        self._probe_src = probe_src
        self._probe_dst = probe_dst
        self.state = BreakerState.CLOSED
        #: timestamps of recent failures (pruned to :data:`BREAKER_WINDOW`)
        self._failures: deque[int] = deque()
        self._probe_armed = False
        self._probe_cookie = -1
        # statistics
        self.failures_recorded = 0
        self.trips = 0
        self.probes = 0
        self.probe_failures = 0
        self.reopens = 0

    # -- channel-side notifications ------------------------------------

    def on_descriptor_failed(self, channel: "DmaChannel") -> None:
        self._record_failure()

    def on_stall(self, channel: "DmaChannel") -> None:
        self._record_failure()

    def _record_failure(self) -> None:
        now = self.sim.now
        self.failures_recorded += 1
        fails = self._failures
        fails.append(now)
        while fails and now - fails[0] > BREAKER_WINDOW:
            fails.popleft()
        if (self.state is BreakerState.CLOSED
                and len(fails) >= BREAKER_THRESHOLD):
            self._trip()

    # -- offload-side queries ------------------------------------------

    def allows_offload(self) -> bool:
        """Consulted per message; re-arms the probe chain while tripped."""
        if self.state is BreakerState.CLOSED:
            return True
        # Demand while degraded keeps recovery probes flowing.
        self._arm_probe()
        return False

    # -- state machine --------------------------------------------------

    def _instant(self, label: str) -> None:
        if self.trace is not None and self.trace.enabled:
            self.trace.instant(f"I/OAT ch{self.channel.index}", label, "health")

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self.trips += 1
        self._instant(f"breaker TRIP ({len(self._failures)} failures)")
        self._arm_probe()

    def _arm_probe(self) -> None:
        if self._probe_armed or self.state is BreakerState.HALF_OPEN:
            return
        self._probe_armed = True
        self.sim.call_at(self.sim.now + BREAKER_PROBE_INTERVAL, self._probe)

    def _probe(self) -> None:
        self._probe_armed = False
        if self.state is not BreakerState.OPEN:
            return
        self.state = BreakerState.HALF_OPEN
        self.probes += 1
        self._instant("breaker probe")
        ch = self.channel
        if ch.stalled:
            # Don't park a descriptor behind a stall window: call the probe
            # failed now and test again later.
            self._probe_failed("stalled")
            return
        n = BREAKER_PROBE_BYTES
        self._probe_cookie = ch.submit(CopyDescriptor(
            self._probe_src, 0, self._probe_dst, 0, n))
        # Immediate status read: a hard-failed channel aborts the probe
        # synchronously, and the sanitizer requires every completion to be
        # observed via poll().
        ch.poll()
        if ch.copy_failed(self._probe_cookie, 1):
            ch.reap()
            self._probe_failed("aborted")
            return
        deadline = self.sim.now + ch.service_time(n) + BREAKER_PROBE_SLACK
        self.sim.call_at(deadline, self._probe_check)

    def _probe_check(self) -> None:
        ch = self.channel
        done = ch.poll()
        failed = ch.copy_failed(self._probe_cookie, 1)
        complete = done >= self._probe_cookie
        ch.reap()
        if failed or not complete:
            self._probe_failed("aborted" if failed else "overdue")
        else:
            self._reopen()

    def _probe_failed(self, why: str) -> None:
        self.state = BreakerState.OPEN
        self.probe_failures += 1
        self._instant(f"breaker probe failed ({why})")
        # The next refused offload attempt re-arms the probe chain; an idle
        # breaker stops probing so the event heap can drain.

    def _reopen(self) -> None:
        self.state = BreakerState.CLOSED
        self.reopens += 1
        self._failures.clear()
        self._instant("breaker REOPEN")


class HostHealth:
    """All breakers of one host, plus the probe scratch buffers they share."""

    def __init__(self, host: "Host"):
        self.host = host
        # One pair of scratch regions shared by every breaker, allocated
        # before the first adoption so that adoption never shifts kernel
        # addresses.
        self._probe_src = host.kernel_space.alloc(BREAKER_PROBE_BYTES,
                                                  fill=0xA5)
        self._probe_dst = host.kernel_space.alloc(BREAKER_PROBE_BYTES)
        self.breakers = []

    def adopt(self, channel: "DmaChannel") -> ChannelBreaker:
        """Supervise ``channel``; :meth:`Host.add_dma_engine
        <repro.cluster.host.Host.add_dma_engine>` calls this per channel."""
        breaker = ChannelBreaker(self.host.sim, channel, self._probe_src,
                                 self._probe_dst, trace=self.host.trace)
        channel.health = breaker
        self.breakers.append(breaker)
        return breaker

    def breaker_for(self, channel: "DmaChannel") -> Optional[ChannelBreaker]:
        # Lane indices are sparse (backend lanes live at index_base+i), so
        # resolve through the channel's own health hook instead of
        # positional lookup.
        breaker = channel.health
        return breaker if isinstance(breaker, ChannelBreaker) else None

    def allows_offload(self, channel: "DmaChannel") -> bool:
        breaker = self.breaker_for(channel)
        return breaker is None or breaker.allows_offload()

    def usable(self, channel: "DmaChannel") -> bool:
        """Whether ``channel`` is up and its breaker CLOSED, read without
        side effects: unlike :meth:`allows_offload`, it re-arms no probe."""
        breaker = self.breaker_for(channel)
        return not channel.failed and (
            breaker is None or breaker.state is BreakerState.CLOSED)

    def record_fallback(self, channel: "DmaChannel") -> None:
        """A fallback memcpy healed a failed copy on ``channel``: feed the
        failure into its breaker so repeated heals trip it (the PR 3 path
        recorded nothing and could loop on a permanently dead channel)."""
        breaker = self.breaker_for(channel)
        if breaker is not None:
            breaker._record_failure()

    # -- aggregates -----------------------------------------------------

    @property
    def breaker_trips(self) -> int:
        return sum(b.trips for b in self.breakers)

    @property
    def breaker_probes(self) -> int:
        return sum(b.probes for b in self.breakers)

    @property
    def breaker_probe_failures(self) -> int:
        return sum(b.probe_failures for b in self.breakers)

    @property
    def breaker_reopens(self) -> int:
        return sum(b.reopens for b in self.breakers)

    @property
    def breaker_failures_recorded(self) -> int:
        return sum(b.failures_recorded for b in self.breakers)

    @property
    def open_channels(self) -> int:
        return sum(1 for b in self.breakers if b.state is not BreakerState.CLOSED)

    def register_metrics(self, reg) -> None:
        reg.counter("health", "breaker_trips", lambda: self.breaker_trips,
                    "channels tripped to memcpy-only")
        reg.counter("health", "breaker_probes", lambda: self.breaker_probes,
                    "half-open probe copies issued")
        reg.counter("health", "breaker_probe_failures",
                    lambda: self.breaker_probe_failures)
        reg.counter("health", "breaker_reopens", lambda: self.breaker_reopens,
                    "channels restored to offload after a good probe")
        reg.counter("health", "breaker_failures_recorded",
                    lambda: self.breaker_failures_recorded)
        reg.gauge("health", "breaker_open_channels", lambda: self.open_channels)
