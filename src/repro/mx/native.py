"""The native MX / MXoE baseline: matching and deposit in NIC firmware.

On a Myri-10G board running the native firmware, the host posts sends and
receives through an OS-bypass doorbell; the NIC matches incoming messages
against posted receives and deposits data **directly into application
buffers** — no host-side copy ever happens.  Large messages still use a
rendezvous + pull exchange, but it is driven entirely by the two NICs'
processors.

This is the upper baseline of Figs. 3, 8, 11 and 12: wire-limited for large
messages (~1140 MiB/s) with negligible host CPU usage.

The endpoint API (``isend`` / ``irecv`` / ``wait``) is duck-type compatible
with :class:`repro.core.endpoint.OmxEndpoint`, so the MPI and IMB layers run
unmodified over either stack — mirroring the real API compatibility between
MX and Open-MX.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.ethernet.frame import ETHERTYPE_MX, EthernetFrame
from repro.memory.buffers import MemoryRegion
from repro.mx.wire import EndpointAddr, MxPacket, PktType, match_accepts
from repro.simkernel.resources import Store
from repro.simkernel.sync import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.simkernel.cpu import Core


@dataclass
class MxRequest:
    """A pending send or receive."""

    kind: str  # "send" | "recv"
    match_info: int
    mask: int
    region: Optional[MemoryRegion]
    offset: int
    length: int
    completion: object = None  # Event, set by the endpoint
    #: bytes actually transferred (set at completion)
    xfer_length: int = 0
    msg_id: int = -1


@dataclass
class _RecvState:
    """Receiver-side progress of one incoming message."""

    req: MxRequest
    received: int = 0
    total: int = 0


@dataclass
class _PullState:
    """Receiver-firmware state for one large incoming message."""

    req: MxRequest
    src: EndpointAddr
    msg_id: int
    total: int
    handle: int
    received: int = 0
    next_req_offset: int = 0


class NativeMxEndpoint:
    """One opened endpoint on a native-MX host."""

    def __init__(self, stack: "NativeMxStack", addr: EndpointAddr):
        self.stack = stack
        self.addr = addr
        self.sim = stack.sim
        self.activity = Signal(self.sim, name=f"mx{addr}.activity")
        self.posted_recvs: list[MxRequest] = []
        #: eager messages that arrived before a matching recv was posted
        self.unexpected: list[tuple[MxPacket, np.ndarray]] = []
        #: RNDV packets awaiting a matching recv
        self.pending_rndv: list[MxPacket] = []
        self._msg_ids = itertools.count()
        self.sends: dict[int, MxRequest] = {}

    # -- public API (generator methods; run on the caller's core) -----------

    def isend(
        self,
        core: "Core",
        dest: EndpointAddr,
        match_info: int,
        region: MemoryRegion,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> Generator:
        """Post a send; returns an :class:`MxRequest` immediately."""
        length = len(region) - offset if length is None else length
        req = MxRequest("send", match_info, ~0, region, offset, length)
        req.completion = self.sim.event(f"mx-send@{self.addr}")
        req.msg_id = next(self._msg_ids)
        self.sends[req.msg_id] = req
        yield from core.execute(self.stack.params.host_post_cost, "user")
        self.stack._firmware_send(self, req, dest)
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
        """Post a receive; returns an :class:`MxRequest` immediately."""
        length = len(region) - offset if length is None else length
        req = MxRequest("recv", match_info, mask, region, offset, length)
        req.completion = self.sim.event(f"mx-recv@{self.addr}")
        yield from core.execute(self.stack.params.host_post_cost, "user")
        self.posted_recvs.append(req)
        self.stack._match_unexpected(self, req)
        return req

    def wait(self, core: "Core", req: MxRequest) -> Generator:
        """Block until ``req`` completes; charges completion-reap cost."""
        while not req.completion.triggered:
            yield self.activity.wait()
        yield from core.execute(self.stack.params.host_completion_cost, "user")
        return req

    # -- stack-internal -------------------------------------------------------

    def _complete(self, req: MxRequest, xfer: int) -> None:
        req.xfer_length = xfer
        req.completion.succeed()
        self.activity.fire()


class NativeMxStack:
    """The firmware of one Myri-10G board (plus its host-side library)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self.params = host.platform.mx
        self.endpoints: dict[int, NativeMxEndpoint] = {}
        self._rxq: Store = Store(self.sim, name=f"mxfw{host.host_id}.rx")
        self._txq: Store = Store(self.sim, name=f"mxfw{host.host_id}.tx")
        self._pulls: dict[int, _PullState] = {}
        self._pull_ids = itertools.count()
        self._recv_states: dict[tuple[EndpointAddr, int], _RecvState] = {}
        host.nic.frame_sink = self._on_frame
        self.sim.daemon(self._firmware_rx_loop(), name=f"mxfw{host.host_id}-rx")
        self.sim.daemon(self._firmware_tx_loop(), name=f"mxfw{host.host_id}-tx")

    # -- endpoint management ----------------------------------------------------

    def open_endpoint(self, ep_id: int) -> NativeMxEndpoint:
        if ep_id in self.endpoints:
            raise ValueError(f"endpoint {ep_id} already open")
        ep = NativeMxEndpoint(self, EndpointAddr(self.host.host_id, ep_id))
        self.endpoints[ep_id] = ep
        return ep

    # -- transmit side ----------------------------------------------------------

    def _firmware_send(self, ep: NativeMxEndpoint, req: MxRequest, dest: EndpointAddr) -> None:
        """Queue a send for the firmware TX processor."""
        self._txq.put(("send", ep, req, dest))

    def _emit(self, pkt: MxPacket) -> Generator:
        """Firmware: serialize one packet onto the wire (or NIC loopback).

        Intra-node traffic of the native stack goes through the NIC's
        loopback path at link speed — MX of this era had no host shared-
        memory shortcut comparable to Open-MX's one-copy model, which is why
        the paper's 2-process-per-node runs favour Open-MX+I/OAT (§IV-D).
        """
        yield self.params.firmware_frag_cost  # bare-int sleep (hot path)
        frame = EthernetFrame(
            src_mac=self.host.host_id, dst_mac=pkt.dst.host,
            ethertype=ETHERTYPE_MX, payload=pkt, payload_len=pkt.wire_payload_len,
        )
        if pkt.dst.host == self.host.host_id:
            from repro.units import transfer_time

            yield transfer_time(frame.wire_len, self.host.platform.nic.link_bw)
            self._rxq.put(frame.payload)
            return None
        egress = self.host.nic._egress
        if egress is None:
            raise RuntimeError("native MX NIC has no link")

        # The firmware pipelines descriptor processing with the wire: it
        # hands the frame to the serializer and moves on (FIFO order is
        # preserved by the link's timestamp queue).
        nic = self.host.nic

        def on_wire(delivered: bool) -> None:
            nic.tx_frames += 1

        egress.send(frame, on_serialized=on_wire)
        return None

    def _firmware_tx_loop(self) -> Generator:
        while True:
            item = yield self._txq.get()
            kind = item[0]
            if kind == "send":
                _, ep, req, dest = item
                yield from self._tx_message(ep, req, dest)
            elif kind == "pkt":
                yield from self._emit(item[1])
            elif kind == "pull_reply":
                _, pkt = item
                yield from self._tx_pull_replies(pkt)

    def _tx_message(self, ep: NativeMxEndpoint, req: MxRequest, dest: EndpointAddr) -> Generator:
        if req.length <= self.params.rndv_threshold:
            frag = max(self.params.eager_frag, 1)
            count = max(1, -(-req.length // frag))
            for i in range(count):
                off = i * frag
                n = min(frag, req.length - off)
                ptype = PktType.TINY if req.length <= 32 else (
                    PktType.SMALL if count == 1 else PktType.MEDIUM_FRAG
                )
                yield from self._emit(MxPacket(
                    ptype=ptype, src=ep.addr, dst=dest,
                    match_info=req.match_info, msg_id=req.msg_id,
                    msg_len=req.length, frag_index=i, frag_count=count,
                    offset=off, data_region=req.region,
                    data_offset=req.offset + off, data_length=n,
                ))
            # Eager sends complete locally once on the wire; no NOTIFY will
            # come to free their entry.
            del ep.sends[req.msg_id]
            ep._complete(req, req.length)
        else:
            yield from self._emit(MxPacket(
                ptype=PktType.RNDV, src=ep.addr, dst=dest,
                match_info=req.match_info, msg_id=req.msg_id, msg_len=req.length,
            ))
            # completion arrives later via NOTIFY

    def _tx_pull_replies(self, reqpkt: MxPacket) -> Generator:
        """Serve one PULL_REQ: stream the requested byte span."""
        send_req = None
        ep = self.endpoints.get(reqpkt.dst.endpoint)
        if ep is not None:
            send_req = ep.sends.get(reqpkt.msg_id)
        if send_req is None:
            return None
        frag = self.params.large_frag
        pos = reqpkt.req_offset
        end = min(reqpkt.req_offset + reqpkt.req_length, send_req.length)
        while pos < end:
            n = min(frag, end - pos)
            yield from self._emit(MxPacket(
                ptype=PktType.PULL_REPLY, src=reqpkt.dst, dst=reqpkt.src,
                msg_id=reqpkt.msg_id, pull_handle=reqpkt.pull_handle,
                offset=pos, msg_len=send_req.length,
                data_region=send_req.region, data_offset=send_req.offset + pos,
                data_length=n,
            ))
            pos += n
        return None

    # -- receive side -------------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame) -> None:
        self._rxq.put(frame.payload)

    def _firmware_rx_loop(self) -> Generator:
        while True:
            pkt = yield self._rxq.get()
            yield self.params.firmware_frag_cost  # bare-int sleep (hot path)
            self._handle(pkt)

    def _handle(self, pkt: MxPacket) -> None:
        ep = self.endpoints.get(pkt.dst.endpoint)
        if ep is None:
            return
        if pkt.ptype in (PktType.TINY, PktType.SMALL, PktType.MEDIUM_FRAG):
            self._handle_eager(ep, pkt)
        elif pkt.ptype is PktType.RNDV:
            self._handle_rndv(ep, pkt)
        elif pkt.ptype is PktType.PULL_REQ:
            self._txq.put(("pull_reply", pkt))
        elif pkt.ptype is PktType.PULL_REPLY:
            self._handle_pull_reply(ep, pkt)
        elif pkt.ptype is PktType.NOTIFY:
            send_req = ep.sends.pop(pkt.msg_id, None)
            if send_req is not None:
                ep._complete(send_req, send_req.length)

    def _deposit(self, req: MxRequest, pkt: MxPacket) -> None:
        """Zero-copy deposit: NIC DMA straight into the app buffer."""
        data = pkt.gather_data()
        n = min(pkt.data_length, max(req.length - pkt.offset, 0))
        if n:
            req.region.write(req.offset + pkt.offset, data[:n])
            self.host.bus.record_dma_write(n)
            self.host.caches.invalidate_all(req.region.addr + req.offset + pkt.offset, n)

    def _find_recv(self, ep: NativeMxEndpoint, match_info: int) -> Optional[MxRequest]:
        for i, req in enumerate(ep.posted_recvs):
            if match_accepts(req.match_info, req.mask, match_info):
                return ep.posted_recvs.pop(i)
        return None

    def _handle_eager(self, ep: NativeMxEndpoint, pkt: MxPacket) -> None:
        key = (pkt.src, pkt.msg_id)
        state = self._recv_states.get(key)
        if state is None:
            req = self._find_recv(ep, pkt.match_info)
            if req is None:
                ep.unexpected.append((pkt, pkt.gather_data().copy()))
                return
            state = _RecvState(req, total=pkt.msg_len)
            if pkt.frag_count > 1:
                self._recv_states[key] = state
        self._deposit(state.req, pkt)
        state.received += pkt.data_length
        if state.received >= min(state.total, state.req.length) or pkt.frag_count == 1:
            self._recv_states.pop(key, None)
            ep._complete(state.req, min(state.total, state.req.length))

    def _match_unexpected(self, ep: NativeMxEndpoint, req: MxRequest) -> None:
        """Try to satisfy a fresh recv from queued unexpected traffic."""
        # Eager unexpected first (arrival order), then pending rendezvous.
        for i, (pkt, data) in enumerate(ep.unexpected):
            if match_accepts(req.match_info, req.mask, pkt.match_info):
                del ep.unexpected[i]
                n = min(len(data), req.length)
                if n:
                    req.region.write(req.offset, data[:n])
                ep._complete(req, n)
                ep.posted_recvs.remove(req)
                return
        for i, pkt in enumerate(ep.pending_rndv):
            if match_accepts(req.match_info, req.mask, pkt.match_info):
                del ep.pending_rndv[i]
                ep.posted_recvs.remove(req)
                self._start_pull(ep, req, pkt)
                return

    def _handle_rndv(self, ep: NativeMxEndpoint, pkt: MxPacket) -> None:
        req = self._find_recv(ep, pkt.match_info)
        if req is None:
            ep.pending_rndv.append(pkt)
            return
        self._start_pull(ep, req, pkt)

    def _start_pull(self, ep: NativeMxEndpoint, req: MxRequest, rndv: MxPacket) -> None:
        handle = next(self._pull_ids)
        total = min(rndv.msg_len, req.length)
        st = _PullState(req=req, src=rndv.src, msg_id=rndv.msg_id, total=total, handle=handle)
        self._pulls[handle] = st
        # Two pipelined block requests outstanding (like Open-MX).
        block = self.params.large_frag * 8
        for _ in range(2):
            self._request_next_block(ep, st, block)

    def _request_next_block(self, ep: NativeMxEndpoint, st: _PullState, block: int) -> None:
        if st.next_req_offset >= st.total:
            return
        n = min(block, st.total - st.next_req_offset)
        self._txq.put(("pkt", MxPacket(
            ptype=PktType.PULL_REQ, src=ep.addr, dst=st.src,
            msg_id=st.msg_id, pull_handle=st.handle,
            req_offset=st.next_req_offset, req_length=n,
        )))
        st.next_req_offset += n

    def _handle_pull_reply(self, ep: NativeMxEndpoint, pkt: MxPacket) -> None:
        st = self._pulls.get(pkt.pull_handle)
        if st is None:
            return
        self._deposit(st.req, pkt)
        st.received += pkt.data_length
        block = self.params.large_frag * 8
        if st.received % block == 0 or st.received >= st.total:
            self._request_next_block(ep, st, block)
        if st.received >= st.total:
            del self._pulls[pkt.pull_handle]
            ep._complete(st.req, st.total)
            self._txq.put(("pkt", MxPacket(
                ptype=PktType.NOTIFY, src=ep.addr, dst=st.src, msg_id=st.msg_id,
            )))
