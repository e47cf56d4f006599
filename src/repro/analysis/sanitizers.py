"""Runtime resource sanitizers for the simulator.

Static rules catch what a single-file AST pass can see; these sanitizers
catch the rest at runtime, the way ASAN/LSAN back up a C compiler's
warnings.  A :class:`Sanitizer` attaches to the ``observer`` hooks on
:class:`~repro.ethernet.skbuff.SkbuffPool`,
:class:`~repro.ioat.channel.DmaChannel` and
:class:`~repro.memory.pinning.Pinner`, records an allocation-site
backtrace for every live resource, and — once the simulation has quiesced —
asserts that everything came back:

* every skbuff returned to its pool (minus the NIC rx rings, which hold
  ``rx_ring_size`` buffers *by design* — the pre-filled receive ring of
  §II-C);
* every submitted DMA cookie both completed and was observed via
  ``poll()`` (an unobserved completion means nobody waited before handing
  the buffer to the application — the §III-B discipline);
* every pinned region unpinned, except live registration-cache entries
  (deferred deregistration is the *point* of the cache, Fig. 11);
* (strict mode) descriptor rings reaped and the event heap drained.

Violations raise :class:`SanitizerError` carrying the backtrace captured at
*acquire* time, so the report points at the leak's origin, not at teardown.

Wire-up: ``Sanitizer().watch_testbed(tb)`` (or the ``@pytest.mark.sanitize``
marker, which does it for every testbed a test builds), then quiesce and
call :meth:`Sanitizer.assert_clean` — directly or via
:meth:`Simulator.finish`, where ``watch_simulator`` registers it as a
teardown check.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.testbed import Testbed
    from repro.ethernet.nic import Nic
    from repro.ethernet.skbuff import Skbuff, SkbuffPool
    from repro.ioat.channel import DmaChannel
    from repro.ioat.descriptor import CopyDescriptor
    from repro.memory.pinning import PinnedRegion, Pinner
    from repro.memory.regcache import RegistrationCache
    from repro.simkernel.scheduler import Simulator

#: frames of caller context kept per allocation site
_SITE_DEPTH = 4


def _capture_site() -> str:
    """A compact acquire-site backtrace, innermost frame first.

    Walks outward from the caller, skips the sanitizer's own frames and
    stops after ``_SITE_DEPTH`` kept ones; it reads no source line, so a
    capture costs the same however deep the stack below the model is.
    """
    sites = []
    frame = sys._getframe(1)
    while frame is not None and len(sites) < _SITE_DEPTH:
        code = frame.f_code
        name = os.path.basename(code.co_filename)
        if "sanitizers" not in name:
            sites.append(f"{name}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return " <- ".join(sites)


@dataclass(frozen=True)
class Violation:
    """One leaked resource (or unmet end-of-simulation invariant)."""

    kind: str
    message: str
    sites: Tuple[str, ...] = ()

    def format(self) -> str:
        out = f"[{self.kind}] {self.message}"
        for site in self.sites:
            out += f"\n    acquired at: {site}"
        return out


class SanitizerError(AssertionError):
    """Raised by :meth:`Sanitizer.assert_clean` when resources leaked."""

    def __init__(self, violations: List[Violation]):
        self.violations = list(violations)
        lines = "\n".join(v.format() for v in self.violations)
        super().__init__(
            f"{len(self.violations)} sanitizer violation(s):\n{lines}"
        )


class Sanitizer:
    """Tracks live resources via observer hooks; checks they all return."""

    def __init__(self) -> None:
        self._pools: List["SkbuffPool"] = []
        self._nics: List["Nic"] = []
        self._channels: List["DmaChannel"] = []
        self._pinners: List["Pinner"] = []
        self._regcaches: List["RegistrationCache"] = []
        self._sims: List["Simulator"] = []
        #: id(skb) -> (skb, acquire site)
        self._live_skbs: Dict[int, Tuple["Skbuff", str]] = {}
        #: id(channel) -> {cookie -> acquire site}
        self._live_cookies: Dict[int, Dict[int, str]] = {}
        #: id(pinned) -> (pinned, acquire site)
        self._live_pins: Dict[int, Tuple["PinnedRegion", str]] = {}

    # -- observer callbacks (called by the instrumented classes) -----------

    def on_skb_alloc(self, pool: "SkbuffPool", skb: "Skbuff") -> None:
        self._live_skbs[id(skb)] = (skb, _capture_site())

    def on_skb_free(self, pool: "SkbuffPool", skb: "Skbuff") -> None:
        # skbs allocated before watching began are simply unknown here
        self._live_skbs.pop(id(skb), None)

    def on_dma_submit(self, channel: "DmaChannel", cookie: int,
                      desc: "CopyDescriptor") -> None:
        self._live_cookies.setdefault(id(channel), {})[cookie] = _capture_site()

    def on_dma_poll(self, channel: "DmaChannel", done: int) -> None:
        pending = self._live_cookies.get(id(channel))
        if pending:
            # completions are in order: a poll observing `done` observes
            # every earlier cookie too
            for cookie in [c for c in pending if c <= done]:
                del pending[cookie]

    def on_pin(self, pinner: "Pinner", pinned: "PinnedRegion") -> None:
        self._live_pins[id(pinned)] = (pinned, _capture_site())

    def on_unpin(self, pinner: "Pinner", pinned: "PinnedRegion") -> None:
        self._live_pins.pop(id(pinned), None)

    # -- wiring -------------------------------------------------------------

    def watch_pool(self, pool: "SkbuffPool") -> None:
        pool.observer = self
        self._pools.append(pool)

    def watch_nic(self, nic: "Nic") -> None:
        """Register a NIC so its rx-ring skbuffs are excluded from leaks."""
        self._nics.append(nic)

    def watch_channel(self, channel: "DmaChannel") -> None:
        channel.observer = self
        self._channels.append(channel)

    def watch_pinner(self, pinner: "Pinner") -> None:
        pinner.observer = self
        self._pinners.append(pinner)

    def watch_regcache(self, regcache: "RegistrationCache") -> None:
        """Register a cache whose live entries legitimately stay pinned."""
        self._regcaches.append(regcache)

    def watch_simulator(self, sim: "Simulator") -> None:
        """Register :meth:`assert_clean` as a teardown check on ``sim``."""
        self._sims.append(sim)
        sim.add_teardown_check(self.assert_clean)

    def watch_host(self, host: "Host") -> None:
        self.watch_pool(host.skb_pool)
        self.watch_nic(host.nic)
        for engine in host.dma_engines:
            for channel in engine.channels:
                self.watch_channel(channel)
        self.watch_pinner(host.pinner)
        self.watch_regcache(host.regcache)

    def watch_testbed(self, testbed: "Testbed") -> None:
        """Watch every host of a testbed plus its simulator."""
        for host in testbed.hosts:
            self.watch_host(host)
        self.watch_simulator(testbed.sim)

    # -- checking -----------------------------------------------------------

    def pending_cookie_count(self, channel: "DmaChannel") -> int:
        """Submitted-but-not-yet-observed cookies on ``channel``."""
        return len(self._live_cookies.get(id(channel), {}))

    def check(self, strict: bool = False) -> List[Violation]:
        """All current violations (empty list == clean).

        ``strict`` additionally requires descriptor rings to be reaped and
        the event heap to be empty — disciplines the shm fallback paths
        deliberately skip, so strict mode is for targeted tests only.
        """
        violations: List[Violation] = []
        violations.extend(self._check_skbuffs())
        violations.extend(self._check_cookies(strict))
        violations.extend(self._check_pins())
        if strict:
            for sim in self._sims:
                nxt = sim.peek()
                if nxt is not None:
                    violations.append(Violation(
                        "pending-events",
                        f"event heap not drained at t={sim.now} "
                        f"(next action at t={nxt})",
                    ))
        return violations

    def assert_clean(self, strict: bool = False) -> None:
        """Raise :class:`SanitizerError` unless every resource returned."""
        violations = self.check(strict=strict)
        if violations:
            raise SanitizerError(violations)

    # -- individual checks --------------------------------------------------

    def _check_skbuffs(self) -> List[Violation]:
        ring_held = {
            id(skb) for nic in self._nics for skb in nic._rx_ring  # noqa: SLF001
        }
        out = []
        for pool in self._pools:
            held = sum(
                len(nic._rx_ring)  # noqa: SLF001
                for nic in self._nics if nic.pool is pool
            )
            if pool.outstanding == held:
                continue
            leaked = [
                site for skb, site in self._live_skbs.values()
                if skb.pool is pool and id(skb) not in ring_held
            ]
            out.append(Violation(
                "skbuff-leak",
                f"pool has {pool.outstanding} outstanding skbuff(s); "
                f"{held} parked in NIC rx rings by design, "
                f"so {pool.outstanding - held} leaked",
                tuple(leaked[:8]),
            ))
        return out

    def _check_cookies(self, strict: bool) -> List[Violation]:
        out = []
        for channel in self._channels:
            pending = self._live_cookies.get(id(channel), {})
            # read the ring directly: calling channel.poll() here would
            # fire on_dma_poll and mutate the tracking mid-check
            done = channel.ring.last_completed_cookie()
            for cookie, site in sorted(pending.items()):
                state = (
                    "completed but never observed via poll()"
                    if cookie <= done else "never completed"
                )
                out.append(Violation(
                    "dma-cookie",
                    f"I/OAT ch{channel.index}: cookie {cookie} {state}",
                    (site,),
                ))
            if strict and len(channel.ring):
                out.append(Violation(
                    "dma-ring",
                    f"I/OAT ch{channel.index}: {len(channel.ring)} "
                    f"descriptor(s) never reaped from the ring",
                ))
        return out

    def _check_pins(self) -> List[Violation]:
        cached = {
            id(pinned)
            for regcache in self._regcaches
            for pinned in regcache._entries.values()  # noqa: SLF001
        }
        out = []
        for pinned, site in self._live_pins.values():
            if pinned.pinned and id(pinned) not in cached:
                out.append(Violation(
                    "pin-leak",
                    f"{pinned.n_pages} page(s) at {pinned.region.addr:#x} "
                    f"still pinned (refcount={pinned.refcount})",
                    (site,),
                ))
        return out
