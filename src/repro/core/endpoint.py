"""The Open-MX user-space library: endpoints, matching, progression.

Small and medium messages are "matched and reassembled directly in the
user-space library" (§III-C): the BH only deposits fragments into the eager
ring and posts events; the library consumes events, matches them against
posted receives (or queues them as unexpected), copies ring slots into the
application buffer and releases the slots.  Large messages are matched here
too (the rendezvous event), but their data path belongs to the driver.

All methods are generator-coroutines executed on the calling process's
core, which they acquire internally (never call them while holding the
core).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.types import EagerRing, EvType, OmxEvent, OmxRequest
from repro.memory.buffers import AddressSpace, MemoryRegion
from repro.mx.wire import EndpointAddr, match_accepts
from repro.simkernel.sync import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import OmxDriver
    from repro.simkernel.cpu import Core


@dataclass
class _Assembly:
    """Reassembly state of one incoming eager message."""

    peer: EndpointAddr
    msg_id: int
    match_info: int
    msg_len: int
    req: Optional[OmxRequest] = None
    #: library-allocated staging buffer when no recv was posted yet
    unexpected_buf: Optional[MemoryRegion] = None
    received: int = 0

    @property
    def complete(self) -> bool:
        return self.received >= self.msg_len


@dataclass
class _PendingRndv:
    """A rendezvous (remote or local) awaiting a matching recv."""

    peer: EndpointAddr
    match_info: int
    msg_id: int
    msg_len: int
    local: bool


class OmxEndpoint:
    """One opened Open-MX endpoint."""

    def __init__(self, driver: "OmxDriver", ep_id: int, space: Optional[AddressSpace] = None):
        self.driver = driver
        self.sim = driver.sim
        self.addr = EndpointAddr(driver.host.host_id, ep_id)
        self.space = space if space is not None else driver.host.user_space(f"ep{ep_id}")
        cfg = driver.config
        self.ring = EagerRing(self.space, nslots=256, slot_size=cfg.medium_frag)
        #: fired when ring slots are released (local senders may block on it)
        self.ring_drain = Signal(self.sim, name=f"omx{self.addr}.ringdrain")
        #: driver→library event queue + wakeup
        self.events: deque[OmxEvent] = deque()
        self.activity = Signal(self.sim, name=f"omx{self.addr}.activity")
        # Completion-event labels, precomputed: isend/irecv run per message.
        self._send_name = f"omx-send@{self.addr}"
        self._sendv_name = f"omx-sendv@{self.addr}"
        self._recv_name = f"omx-recv@{self.addr}"
        self.posted_recvs: list[OmxRequest] = []
        self._assemblies: dict[tuple[EndpointAddr, int], _Assembly] = {}
        self._unexpected_done: list[_Assembly] = []
        self._pending_rndv: list[_PendingRndv] = []
        driver.register_endpoint(self)

    # ------------------------------------------------------------------
    # driver-facing
    # ------------------------------------------------------------------

    def post_event(self, ev: OmxEvent) -> None:
        """Driver side: append an event and wake the library."""
        self.events.append(ev)
        self.activity.fire()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def isend(
        self,
        core: "Core",
        dest: EndpointAddr,
        match_info: int,
        region: MemoryRegion,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> Generator:
        """Post a send.  Returns the request; completion is asynchronous."""
        length = len(region) - offset if length is None else length
        req = OmxRequest("send", match_info, ~0, region, offset, length, peer=dest)
        req.completion = self.sim.event(self._send_name)
        yield from core.execute(self.driver.params.library_call_cost, "user")
        if dest.host == self.addr.host:
            yield from self.driver.shm.cmd_send_local(core, self, req)
        elif length <= self.driver.config.medium_max:
            yield from self.driver.cmd_send_eager(core, self, req)
        else:
            yield from self.driver.cmd_send_rndv(core, self, req)
        return req

    def isendv(
        self,
        core: "Core",
        dest: EndpointAddr,
        match_info: int,
        segments: list,
    ) -> Generator:
        """Vectored send: ``segments`` is a list of (region, offset, length).

        MX's segmented-send API (mx_isend with a segment list).  Fragments
        never cross segment boundaries, so highly-vectorial buffers produce
        small wire fragments — the §IV-A corner case the 1 kB offload
        threshold exists for.
        """
        total = sum(s[2] for s in segments)
        req = OmxRequest("send", match_info, ~0, None, 0, total, peer=dest,
                         segments=list(segments))
        req.completion = self.sim.event(self._sendv_name)
        yield from core.execute(self.driver.params.library_call_cost, "user")
        if dest.host == self.addr.host:
            raise NotImplementedError(
                "vectored local sends are not part of this reproduction"
            )
        if total <= self.driver.config.medium_max:
            yield from self.driver.cmd_send_eager(core, self, req)
        else:
            yield from self.driver.cmd_send_rndv(core, self, req)
        return req

    def irecv(
        self,
        core: "Core",
        match_info: int,
        mask: int,
        region: MemoryRegion,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> Generator:
        """Post a receive; tries to satisfy it from unexpected traffic."""
        length = len(region) - offset if length is None else length
        req = OmxRequest("recv", match_info, mask, region, offset, length)
        req.completion = self.sim.event(self._recv_name)
        yield from core.execute(self.driver.params.library_call_cost, "user")
        matched = yield from self._match_unexpected(core, req)
        if not matched:
            self.posted_recvs.append(req)
            if self.driver.kmatch is not None:
                # §VI extension: also post (and pin) the receive in the
                # driver so the BH can match eager traffic directly.
                yield from self.driver.kmatch.cmd_post_recv(core, self, req)
        return req

    def close(self, core: "Core") -> Generator:
        """Close the endpoint (forceful, like releasing its fd).

        The driver runs the §III-B offload cleanup for every pull this
        endpoint still owns, so skbuffs queued behind in-flight I/OAT copies
        are released rather than stranded; in-flight transfers are abandoned
        (their requests never complete).  The endpoint is unregistered and
        must not be used afterwards.
        """
        yield from self.driver.cmd_close_endpoint(core, self)
        return None

    def wait(self, core: "Core", req: OmxRequest) -> Generator:
        """Progress the endpoint until ``req`` completes."""
        while not req.done:
            progressed = yield from self.progress(core)
            if req.done:
                break
            if not progressed and not self.events:
                yield self.activity.wait()
        return req

    def progress(self, core: "Core") -> Generator:
        """Consume pending events; returns how many were handled."""
        handled = 0
        while self.events:
            ev = self.events.popleft()
            yield from core.execute(self.driver.params.event_process_cost, "user")
            yield from self._dispatch(core, ev)
            handled += 1
        return handled

    # ------------------------------------------------------------------
    # event handling (library context)
    # ------------------------------------------------------------------

    def _dispatch(self, core: "Core", ev: OmxEvent) -> Generator:
        if ev.etype is EvType.EAGER_FRAG:
            yield from self._on_eager_frag(core, ev)
        elif ev.etype in (EvType.RNDV, EvType.RNDV_LOCAL):
            yield from self._on_rndv(core, ev, local=ev.etype is EvType.RNDV_LOCAL)
        elif ev.etype in (EvType.SEND_DONE, EvType.RECV_LARGE_DONE, EvType.FAILED):
            # FAILED completes the request too: ``req.error`` carries the
            # typed error; waiters return and must check it.  A silent
            # never-completing request is indistinguishable from a hang.
            self._complete(ev.req)
        return None

    def _complete(self, req: OmxRequest) -> None:
        if req is None or req.completion.triggered:
            return
        req.completion.succeed()
        self.activity.fire()

    def _on_eager_frag(self, core: "Core", ev: OmxEvent) -> Generator:
        key = (ev.peer, ev.msg_id)
        state = self._assemblies.get(key)
        if state is None:
            state = _Assembly(ev.peer, ev.msg_id, ev.match_info, ev.msg_len)
            req = self._find_posted(ev.match_info)
            if req is not None:
                state.req = req
            else:
                state.unexpected_buf = self.space.alloc(max(ev.msg_len, 1))
            self._assemblies[key] = state

        # Copy the ring slot to its destination, then free the slot.
        if ev.length:
            if state.req is not None:
                room = max(state.req.length - ev.offset, 0)
                n = min(ev.length, room)
                if n:
                    yield from self._user_copy(
                        core, self.ring.slot_region(ev.ring_slot), 0,
                        state.req.region, state.req.offset + ev.offset, n,
                    )
            else:
                yield from self._user_copy(
                    core, self.ring.slot_region(ev.ring_slot), 0,
                    state.unexpected_buf, ev.offset, ev.length,
                )
        self.ring.release_slot(ev.ring_slot)
        self.ring_drain.fire()
        state.received += ev.length

        if state.complete or ev.frag_count == 1:
            del self._assemblies[key]
            if state.req is not None:
                state.req.xfer_length = min(state.msg_len, state.req.length)
                self._complete(state.req)
            else:
                self._unexpected_done.append(state)
        return None

    def _on_rndv(self, core: "Core", ev: OmxEvent, local: bool) -> Generator:
        req = self._find_posted(ev.match_info)
        if req is None:
            self._pending_rndv.append(
                _PendingRndv(ev.peer, ev.match_info, ev.msg_id, ev.msg_len, local)
            )
            return None
        yield from self._start_large_recv(core, req, ev.peer, ev.msg_id, ev.msg_len, local)
        return None

    def _start_large_recv(self, core: "Core", req: OmxRequest, peer: EndpointAddr,
                          msg_id: int, msg_len: int, local: bool) -> Generator:
        if local:
            yield from self.driver.shm.cmd_pull_local(core, self, req, peer, msg_id, msg_len)
        else:
            yield from self.driver.cmd_start_pull(core, self, req, peer, msg_id, msg_len)
        return None

    # ------------------------------------------------------------------
    # matching helpers
    # ------------------------------------------------------------------

    def remove_posted(self, req: OmxRequest) -> None:
        """Driver side: a kernel match consumed this posted receive."""
        try:
            self.posted_recvs.remove(req)
        except ValueError:
            pass

    def _find_posted(self, send_match: int) -> Optional[OmxRequest]:
        for i, req in enumerate(self.posted_recvs):
            if match_accepts(req.match_info, req.mask, send_match):
                req = self.posted_recvs.pop(i)
                if self.driver.kmatch is not None:
                    # Mirror the removal in the driver's posted list.
                    self.driver.kmatch.unpost(self, req)
                return req
        return None

    def _match_unexpected(self, core: "Core", req: OmxRequest) -> Generator:
        """Try to satisfy a fresh recv; returns True when consumed."""
        # 1. fully-arrived unexpected eager messages (arrival order)
        for i, state in enumerate(self._unexpected_done):
            if match_accepts(req.match_info, req.mask, state.match_info):
                del self._unexpected_done[i]
                n = min(state.msg_len, req.length)
                if n:
                    yield from self._user_copy(
                        core, state.unexpected_buf, 0, req.region, req.offset, n
                    )
                req.xfer_length = n
                self._complete(req)
                return True
        # 2. in-progress unexpected assemblies: adopt them mid-flight
        for state in self._assemblies.values():
            if state.req is None and match_accepts(req.match_info, req.mask, state.match_info):
                # Fragments may have landed at arbitrary offsets; replay the
                # whole staging buffer (missing spans will be overwritten by
                # their fragments on arrival, going directly to the buffer).
                n = min(state.msg_len, req.length)
                if n:
                    yield from self._user_copy(
                        core, state.unexpected_buf, 0, req.region, req.offset, n
                    )
                state.req = req
                return True
        # 3. pending rendezvous (remote or local)
        for i, rndv in enumerate(self._pending_rndv):
            if match_accepts(req.match_info, req.mask, rndv.match_info):
                del self._pending_rndv[i]
                yield from self._start_large_recv(
                    core, req, rndv.peer, rndv.msg_id, rndv.msg_len, rndv.local
                )
                return True
        return False

    def _user_copy(self, core: "Core", src: MemoryRegion, src_off: int,
                   dst: MemoryRegion, dst_off: int, n: int) -> Generator:
        """Library-side copy (the second copy of the two-copy path)."""
        yield core.res.request()
        try:
            yield from self.driver.host.copier.memcpy(
                core, src, src_off, dst, dst_off, n, "user"
            )
        finally:
            core.res.release()
        return None
