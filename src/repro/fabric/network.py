"""Chunk-level fabric simulator on the event kernel.

A :class:`FabricNetwork` executes message flows over a
:class:`~repro.fabric.spec.TopologySpec` at *chunk* granularity (16 KiB
cells, :data:`~repro.fabric.cost.CELL`) instead of per-frame: coarse
enough that a 256-host allreduce is a few hundred thousand events, fine
enough that store-and-forward hops, trunk contention and the receive-copy
serializer pipeline all emerge.  The
per-chunk costs come from a shared :class:`~repro.fabric.cost.CostTable`;
no per-host hardware object graphs are built (ports are created lazily on
first use).

Determinism under tie-break shuffles
------------------------------------
Every queueing point is a :class:`FabricPort` using **one-tick arbitration
batching**: chunks enqueued at tick *t* are admitted at *t + 1* by one
network-level *settle*, which arbitrates every port dirtied at *t* in the
order the ports were first dirtied; each port sorts its batch by
``(ready, flow-key)``.  Batch membership depends only on timestamps (an
entry enqueued at *t* belongs to the *t + 1* settle, even when it is
enqueued before the settle due at *t* runs) and the admission order is a
canonical sort — never the dispatch order the tie-break policy permutes —
so schedules, drops, ECMP reroutes and all counters are byte-identical
under ``--races``.  Arbitration costs one kernel event per busy tick,
however many ports that tick dirtied.  Serialization start times are
``max(port free time, ready)`` with a >= 1-tick service, so completions
can never be scheduled in the past.

Faults
------
``kill_link("edge0~spine1", at=...)`` cuts a link mid-run: chunks already
serialized onto the wire arrive, queued chunks are deterministically
rerouted over recomputed tables (seeded ECMP over the live-link set), and
flows with no remaining path fail their messages with the typed
:class:`~repro.core.errors.FabricPartitioned`.

Counters
--------
The aggregate flow counters (messages sent, delivered and failed; chunks
forwarded, dropped, rerouted and retried) are registered in the network's
:class:`~repro.obs.registry.MetricsRegistry`.  Per-port counters stay on
the ports, off the registry, so a 1024-host fabric pays no registry entry
per port: read them through :meth:`FabricNetwork.ports` and
:meth:`FabricPort.stats`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import DeliveryFailed, FabricPartitioned, RankDead
from repro.fabric.cost import CostTable, cost_table
from repro.fabric.routing import RouteTables
from repro.fabric.spec import LinkSpec, TopologySpec
from repro.obs.registry import MetricsRegistry
from repro.simkernel import Simulator
from repro.units import transfer_time

#: per-chunk retry budget on lossy links (with a resilience layer attached)
#: before the loss is fatal
MAX_CHUNK_RETRIES = 10


class _Message:
    """One in-flight fabric message (the transfer handle)."""

    __slots__ = ("src", "dst", "tag", "nbytes", "seq", "key", "flow",
                 "path", "n_chunks", "rx_remaining", "tx_remaining",
                 "error", "failed", "t_start", "t_done", "on_tx", "user")

    def __init__(self, src: str, dst: str, tag: int, nbytes: int, seq: int,
                 path: tuple, now: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.seq = seq
        #: canonical total order over messages (drives chunk sort keys)
        self.key = (src, dst, tag, seq)
        self.flow = f"{src}>{dst}/{tag}/{seq}"
        self.path = path
        self.n_chunks = 0
        self.rx_remaining = 0
        self.tx_remaining = 0
        self.error: Optional[Exception] = None
        #: ``error is not None``, kept as a plain slot for the per-chunk
        #: checks; set only by :meth:`FabricNetwork._fail`
        self.failed = False
        self.t_start = now
        self.t_done = -1
        #: fired once when the last chunk clears the source NIC (MPI local
        #: send completion); set by the upper layer
        self.on_tx: Optional[Callable[[], None]] = None
        #: upper-layer payload (the MPI layer parks its request here)
        self.user: object = None


class _Chunk:
    """One cell of a message walking the fabric."""

    __slots__ = ("msg", "size", "idx", "hop", "path", "key", "txed",
                 "retries")

    def __init__(self, msg: _Message, size: int, idx: int):
        self.msg = msg
        self.size = size
        self.idx = idx
        self.hop = 0
        #: the switch walk; starts as the message's shared tuple, replaced
        #: per-chunk on reroute
        self.path = msg.path
        self.key = msg.key + (idx,)
        #: has this chunk cleared the source NIC yet?
        self.txed = False
        #: lossy-link retries burned so far (resilience-managed)
        self.retries = 0


class _ServiceTicks(dict):
    """Chunk size -> serialization ticks (at least 1), computed on first use.

    One memo per service rate, shared by every port serializing at that
    rate: a fabric sees a handful of chunk sizes, so a memo holds a few
    entries, and a memo per port would cost memory at 1024 hosts.
    """

    __slots__ = ("ticks_of",)

    def __init__(self, ticks_of: Callable[[int], int]):
        super().__init__()
        self.ticks_of = ticks_of

    def __missing__(self, size: int) -> int:
        ticks = self[size] = max(self.ticks_of(size), 1)
        return ticks


class FabricPort:
    """One egress serializer (switch port, host NIC, or rx-copy stage).

    ``service[chunk.size]`` gives the serialization ticks;
    ``handler(chunk)`` is scheduled at ``finish + delay`` (next-hop arrival,
    including link propagation and the far switch's forwarding latency).
    """

    __slots__ = ("net", "sim", "name", "owner", "service", "handler",
                 "delay", "pending", "free_at", "alive",
                 "fault", "enqueued", "admitted", "dropped", "rerouted",
                 "peak_backlog_ns", "busy_ticks", "_settle_at",
                 "service_scale", "extra_delay")

    def __init__(self, net: "FabricNetwork", name: str, owner: Optional[str],
                 service: _ServiceTicks,
                 handler: Callable[[_Chunk], None], delay: int):
        self.net = net
        self.sim = net.sim
        self.name = name
        #: the switch this port hangs off (None for host-owned stages);
        #: reroutes restart the walk here
        self.owner = owner
        self.service = service
        self.handler = handler
        self.delay = delay
        self.pending: list[tuple[int, tuple, _Chunk]] = []
        self.free_at = 0
        self.alive = True
        #: fault hook: ``fault(chunk, now) -> True`` drops the chunk
        self.fault: Optional[Callable[[_Chunk, int], bool]] = None
        self.enqueued = 0
        self.admitted = 0
        self.dropped = 0
        self.rerouted = 0
        self.peak_backlog_ns = 0
        self.busy_ticks = 0
        #: the tick of the settle this port is listed for (-1: never)
        self._settle_at = -1
        #: gray-failure degrade state: service-time multiplier (1.0 when
        #: healthy) and extra per-hop propagation delay (0 when healthy)
        self.service_scale = 1.0
        self.extra_delay = 0

    # -- ingress -----------------------------------------------------------

    def enqueue(self, chunk: _Chunk) -> None:
        if chunk.msg.failed:
            return
        if not self.alive:
            self.rerouted += 1
            self.net._reroute(chunk, self.owner, self.name)
            return
        now = self.sim.now
        self.enqueued += 1
        self.pending.append((now, chunk.key, chunk))
        if self._settle_at <= now:
            # First entry for the next tick's settle.  Keyed by tick: while
            # the settle due *now* is still queued, this port may sit in
            # its list too, but this entry is the next settle's.
            at = self._settle_at = now + 1
            dirty = self.net._dirty
            ports = dirty.get(at)
            if ports is None:
                dirty[at] = [self]
                self.sim._push(at, self.net._settle, ())
            else:
                ports.append(self)

    # -- the one-tick arbiter ---------------------------------------------

    def _arbitrate(self) -> None:
        """Admit every entry enqueued before this tick (called by the
        network's settle).

        Every entry enqueued at tick *t* lists this port for the *t + 1*
        settle, so no entry outlives the settle after its enqueue tick.
        """
        now = self.sim.now
        batch = self.pending
        if batch[-1][0] < now:
            # pending is in enqueue order: nothing arrived yet this tick
            self.pending = []
            if len(batch) > 1:
                batch.sort()
        else:
            # Entries enqueued *this* tick (after this port was listed)
            # belong to the next settle; membership is by timestamp only.
            self.pending = [e for e in batch if e[0] >= now]
            batch = [e for e in batch if e[0] < now]
            batch.sort()
        net = self.net
        if not self.alive:
            for _ready, _key, chunk in batch:
                if not chunk.msg.failed:
                    self.rerouted += 1
                    net._reroute(chunk, self.owner, self.name)
            return
        push = self.sim._push
        dead = net._dead_hosts
        service = self.service
        for ready, _key, chunk in batch:
            msg = chunk.msg
            if msg.failed:
                continue
            if dead and (msg.src in dead or msg.dst in dead):
                net._crash_fail(msg, self.name)
                continue
            start = self.free_at if self.free_at > ready else ready
            wait = start - now
            if wait > self.peak_backlog_ns:
                self.peak_backlog_ns = wait
            if self.fault is not None and self.fault(chunk, now):
                self.dropped += 1
                net._chunk_lost(chunk, self)
                continue
            ticks = service[chunk.size]
            if self.service_scale != 1.0:
                ticks = int(ticks * self.service_scale)
            finish = start + ticks
            self.free_at = finish
            self.busy_ticks += ticks
            self.admitted += 1
            push(finish + self.delay + self.extra_delay,
                 self.handler, (chunk,))

    # -- observation -------------------------------------------------------

    def stats(self) -> dict:
        """This port's counters: chunks enqueued, admitted, dropped and
        rerouted, the worst queueing delay seen (ns) and the ticks spent
        serializing."""
        return {
            "enqueued": self.enqueued,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "rerouted": self.rerouted,
            "peak_backlog_ns": self.peak_backlog_ns,
            "busy_ticks": self.busy_ticks,
        }


class FabricNetwork:
    """Message flows over one topology, with deterministic ECMP routing."""

    def __init__(self, spec: TopologySpec, backend: str):
        spec.validate()
        self.spec = spec
        self.cost: CostTable = cost_table(backend)
        self.sim = Simulator()
        #: the flow counters (and resilience's); per-port ones: :meth:`ports`
        self.metrics = MetricsRegistry()
        self.routes = RouteTables(spec)
        hosts = set(spec.hosts)
        #: canonical (min,max) endpoint pair -> LinkSpec
        self._links: dict[tuple[str, str], LinkSpec] = {}
        for l in spec.links:
            self._links[self._lkey(l.a, l.b)] = l
        self._fwd_latency = {s.name: s.forwarding_latency for s in spec.switches}
        self._is_host = hosts
        #: direct host~host link (the switchless pair degenerate case)
        self._direct: dict[str, str] = {}
        for l in spec.links:
            if l.a in hosts and l.b in hosts:
                self._direct[l.a] = l.b
                self._direct[l.b] = l.a
        # lazy port maps
        self._tx_ports: dict[str, FabricPort] = {}
        self._sw_ports: dict[tuple[str, str], FabricPort] = {}
        self._rx_cpu_ports: dict[str, FabricPort] = {}
        self._rx_dma_ports: dict[str, FabricPort] = {}
        #: service-tick memos: one per wire rate, one per receive stage
        self._wire_ticks: dict[float, _ServiceTicks] = {}
        self._rx_ticks = _ServiceTicks(self.cost.rx_cpu)
        self._dma_ticks = _ServiceTicks(self.cost.rx_dma)
        #: settle tick -> the ports it arbitrates, in first-dirtied order.
        #: At most two ticks are open: the settle due now, and the next one,
        #: which every enqueue made at ``now`` feeds.
        self._dirty: dict[int, list[FabricPort]] = {}
        #: per-(src,dst) message sequence counters: owned by the sender's
        #: program order, so flow keys never depend on global dispatch order
        self._pair_seq: dict[tuple[str, str], int] = {}
        # flow counters
        self.msgs_sent = 0
        self.msgs_delivered = 0
        self.msgs_failed = 0
        self.chunks_forwarded = 0
        self.chunks_dropped = 0
        self.chunks_rerouted = 0
        self.chunks_retried = 0
        #: resilience layer attachment (set by FabricResilience);
        #: None = losses are fatal, exactly the pre-resilience behavior
        self.resilience = None
        #: crash-stopped hosts (fed by the MPI layer's rank-kill axis)
        self._dead_hosts: set[str] = set()
        self._dead_rank_of: dict[str, int] = {}
        self._death_at: dict[str, int] = {}
        #: delivery/failure callback installed by the MPI layer
        self.on_complete: Optional[Callable[[_Message], None]] = None
        m = self.metrics
        m.counter("fabric", "fabric_msgs_sent", lambda: self.msgs_sent)
        m.counter("fabric", "fabric_msgs_delivered", lambda: self.msgs_delivered)
        m.counter("fabric", "fabric_msgs_failed", lambda: self.msgs_failed)
        m.counter("fabric", "fabric_chunks_forwarded", lambda: self.chunks_forwarded)
        m.counter("fabric", "fabric_chunks_dropped", lambda: self.chunks_dropped)
        m.counter("fabric", "fabric_chunks_rerouted", lambda: self.chunks_rerouted)
        m.counter("fabric", "fabric_chunks_retried", lambda: self.chunks_retried)
        self.sim.add_teardown_check(self._check_quiesced)

    @staticmethod
    def _lkey(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a < b else (b, a)

    def _link(self, a: str, b: str) -> LinkSpec:
        return self._links[self._lkey(a, b)]

    # -- the per-tick settle ----------------------------------------------

    def _settle(self) -> None:
        """Arbitrate every port dirtied in the previous tick, in the order
        the ports were first dirtied."""
        for port in self._dirty.pop(self.sim.now):
            port._arbitrate()

    # -- lazy port construction -------------------------------------------

    def _wire_service(self, bw: float) -> _ServiceTicks:
        memo = self._wire_ticks.get(bw)
        if memo is None:
            wire_bytes = self.cost.wire_bytes
            memo = self._wire_ticks[bw] = _ServiceTicks(
                lambda size: transfer_time(wire_bytes(size), bw))
        return memo

    def host_tx_port(self, host: str) -> FabricPort:
        """The host NIC egress serializer (access link, or the pair wire)."""
        port = self._tx_ports.get(host)
        if port is None:
            peer = self._direct.get(host) or self.routes.edge_of[host]
            link = self._link(host, peer)
            delay = link.latency + self._fwd_latency.get(peer, 0)
            port = FabricPort(self, f"{host}:tx", None,
                              self._wire_service(link.bw), self._forward,
                              delay)
            self._tx_ports[host] = port
        return port

    def switch_port(self, switch: str, peer: str) -> FabricPort:
        """The egress port of ``switch`` toward ``peer`` (switch or host)."""
        key = (switch, peer)
        port = self._sw_ports.get(key)
        if port is None:
            link = self._link(switch, peer)
            delay = link.latency + self._fwd_latency.get(peer, 0)
            port = FabricPort(self, f"{switch}:{peer}", switch,
                              self._wire_service(link.bw), self._forward,
                              delay)
            self._sw_ports[key] = port
        return port

    def rx_cpu_port(self, host: str) -> FabricPort:
        """The receiver's BH + copy (or submit/poll) CPU serializer."""
        port = self._rx_cpu_ports.get(host)
        if port is None:
            handler = (self._after_rx_cpu if self.cost.dma_bw
                       else self._chunk_delivered)
            port = FabricPort(self, f"{host}:rx", None, self._rx_ticks,
                              handler, 0)
            self._rx_cpu_ports[host] = port
        return port

    def rx_dma_port(self, host: str) -> FabricPort:
        """The receiver's I/OAT engine serializer (offloaded copies)."""
        port = self._rx_dma_ports.get(host)
        if port is None:
            port = FabricPort(self, f"{host}:dma", None, self._dma_ticks,
                              self._chunk_delivered, 0)
            self._rx_dma_ports[host] = port
        return port

    def ports(self) -> list[FabricPort]:
        """Every port built so far, in canonical name order."""
        out = (list(self._tx_ports.values()) + list(self._sw_ports.values())
               + list(self._rx_cpu_ports.values())
               + list(self._rx_dma_ports.values()))
        out.sort(key=lambda p: p.name)
        return out

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, tag: int, nbytes: int) -> _Message:
        """Start a message; returns the transfer handle.

        The caller is a simulation process (the MPI layer charges the
        sender CPU before calling).  Completion/failure is reported through
        :attr:`on_complete`; the handle's ``error``/``t_done`` fields carry
        the outcome.
        """
        seq = self._pair_seq.get((src, dst), 0)
        self._pair_seq[(src, dst)] = seq + 1
        now = self.sim.now
        if src == dst:
            path: Optional[tuple] = ()
        elif self._direct.get(src) == dst:
            # switchless pair: the tx port's wire IS the whole path
            path = ()
        else:
            src_edge = self.routes.edge_of[src]
            dst_edge = self.routes.edge_of[dst]
            path = self.routes.path(src_edge, dst_edge,
                                    f"{src}>{dst}/{tag}/{seq}")
        msg = _Message(src, dst, tag, nbytes, seq, path or (), now)
        self.msgs_sent += 1
        sizes = self.cost.chunk_sizes(nbytes)
        msg.n_chunks = len(sizes)
        msg.rx_remaining = len(sizes)
        msg.tx_remaining = len(sizes)
        if path is None:
            self._fail(msg, FabricPartitioned(src, dst, tag,
                                              where=self.routes.edge_of[src],
                                              detail="no live path at send"))
            return msg
        if src == dst:
            msg.tx_remaining = 0
            rx = self.rx_cpu_port(dst)
            for i, size in enumerate(sizes):
                rx.enqueue(_Chunk(msg, size, i))
            return msg
        tx = self.host_tx_port(src)
        for i, size in enumerate(sizes):
            tx.enqueue(_Chunk(msg, size, i))
        return msg

    # -- chunk pipeline ----------------------------------------------------

    def _forward(self, chunk: _Chunk) -> None:
        """Arrival at the next node on the walk (scheduled by a port)."""
        msg = chunk.msg
        if msg.failed:
            return
        if self._dead_hosts and (msg.src in self._dead_hosts
                                 or msg.dst in self._dead_hosts):
            self._crash_fail(msg, "wire")
            return
        if not chunk.txed:
            # first arrival off the source NIC: the send buffer is free
            chunk.txed = True
            msg.tx_remaining -= 1
            if msg.tx_remaining == 0 and msg.on_tx is not None:
                msg.on_tx()
        path = chunk.path
        if chunk.hop >= len(path):
            self.rx_cpu_port(msg.dst).enqueue(chunk)
            return
        here = path[chunk.hop]
        nxt = path[chunk.hop + 1] if chunk.hop + 1 < len(path) else msg.dst
        chunk.hop += 1
        self.chunks_forwarded += 1
        self.switch_port(here, nxt).enqueue(chunk)

    def _after_rx_cpu(self, chunk: _Chunk) -> None:
        if chunk.msg.failed:
            return
        self.rx_dma_port(chunk.msg.dst).enqueue(chunk)

    def _chunk_delivered(self, chunk: _Chunk) -> None:
        msg = chunk.msg
        if msg.failed:
            return
        msg.rx_remaining -= 1
        if msg.rx_remaining == 0:
            msg.t_done = self.sim.now
            self.msgs_delivered += 1
            if self.on_complete is not None:
                self.on_complete(msg)

    # -- failure and rerouting ---------------------------------------------

    def _drop(self, chunk: _Chunk, where: str) -> None:
        self.chunks_dropped += 1
        msg = chunk.msg
        if not msg.failed:
            self._fail(msg, DeliveryFailed(
                msg.dst, retries=0,
                detail=f"fabric chunk {chunk.idx} dropped at {where}"))

    def _reroute(self, chunk: _Chunk, at_switch: Optional[str],
                 port_name: str) -> None:
        """Detour a chunk stranded on a dead port, or fail its message."""
        msg = chunk.msg
        if msg.failed:
            return
        if at_switch is None:
            # a host-owned stage died: no detour exists for an access link
            self._fail(msg, FabricPartitioned(msg.src, msg.dst, msg.tag,
                                              where=port_name,
                                              detail="access link down"))
            return
        # A fresh ECMP draw per routing epoch: the detour is a function of
        # the flow key and the live-link set, never of dispatch order.
        self._detour(chunk, at_switch,
                     f"{msg.flow}/r{self.routes.version}/c{chunk.idx}",
                     "no detour after link kill")

    def _detour(self, chunk: _Chunk, at_switch: str, flow: str,
                detail: str) -> None:
        """Restart ``chunk``'s walk at ``at_switch`` over a fresh ECMP
        draw keyed by ``flow``, or fail its message if no path is left."""
        msg = chunk.msg
        path = self.routes.path(at_switch, self.routes.edge_of[msg.dst], flow)
        if path is None:
            self._fail(msg, FabricPartitioned(msg.src, msg.dst, msg.tag,
                                              where=at_switch, detail=detail))
            return
        self.chunks_rerouted += 1
        chunk.path = path
        chunk.hop = 0
        self._forward(chunk)

    def _fail(self, msg: _Message, error: Exception) -> None:
        if msg.failed:
            return
        msg.error = error
        msg.failed = True
        msg.t_done = self.sim.now
        self.msgs_failed += 1
        if self.on_complete is not None:
            self.on_complete(msg)

    def _crash_fail(self, msg: _Message, where: str) -> None:
        """Fail an in-flight message touching a crash-stopped host."""
        host = msg.dst if msg.dst in self._dead_hosts else msg.src
        self._fail(msg, RankDead(
            self._dead_rank_of.get(host, -1), host=host,
            at=self._death_at.get(host, self.sim.now),
            detail=f"in-flight chunk drained at {where}"))

    def _chunk_lost(self, chunk: _Chunk, port: FabricPort) -> None:
        """A fault hook ate a chunk at ``port``.

        Without a resilience layer the loss is fatal — there is no
        retransmit layer to hide behind.  With one attached, the chunk
        retries: host-owned ports re-serialize (the
        link-level retransmit model), switch ports restart the walk with a
        retry-salted ECMP draw so a gray link sheds load — up to
        :data:`MAX_CHUNK_RETRIES`, then the loss is fatal after all.  Each
        retry waits for a later tick's settle, so a 100%-lossy link burns
        its cap in a bounded number of events and can never livelock.
        """
        if self.resilience is None or chunk.retries >= MAX_CHUNK_RETRIES:
            self._drop(chunk, port.name)
            return
        chunk.retries += 1
        self.chunks_retried += 1
        if port.owner is None:
            port.enqueue(chunk)
            return
        self._detour(chunk, port.owner,
                     f"{chunk.msg.flow}/r{self.routes.version}"
                     f"/c{chunk.idx}/t{chunk.retries}",
                     "no path for lossy retry")

    # -- fault surface -------------------------------------------------------

    def _now_or_at(self, at: Optional[int], fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute time ``at``, or now if ``at`` is
        None or not in the future."""
        if at is not None and at > self.sim.now:
            self.sim.call_at(at, fn, *args)
        else:
            fn(*args)

    def kill_link(self, name: str, at: Optional[int] = None) -> None:
        """Cut the named link (``"a~b"``), now or at absolute time ``at``."""
        self._now_or_at(at, self._kill_link_now, self.spec.link_named(name))

    def _kill_link_now(self, link: LinkSpec) -> None:
        a, b = link.a, link.b
        trunk = a not in self._is_host and b not in self._is_host
        if trunk:
            self.routes.kill_link(a, b)
        # A dead port takes no new entries, and every queued one is already
        # listed for the settle after its enqueue tick, which reroutes it.
        for port in self._ports_of_link(a, b):
            port.alive = False

    def revive_link(self, name: str, at: Optional[int] = None) -> None:
        self._now_or_at(at, self._revive_link_now, self.spec.link_named(name))

    def _revive_link_now(self, link: LinkSpec) -> None:
        a, b = link.a, link.b
        if a not in self._is_host and b not in self._is_host:
            self.routes.revive_link(a, b)
        for port in self._ports_of_link(a, b):
            port.alive = True

    def degrade_link(self, name: str, bw_factor: float = 0.25,
                     extra_latency: int = 0, at: Optional[int] = None,
                     until: Optional[int] = None) -> None:
        """Gray-degrade the named link: scale its serialization time by
        ``1/bw_factor`` and add ``extra_latency`` per hop, on both
        directions, from ``at`` until ``until`` (None = rest of run).

        Unlike a kill this changes no routing state — the link stays live
        and forwarding; only the health layer can decide to route around
        it.  When idle the degrade is pure state (no extra events), which
        is what keeps the resilience-idle event counts bit-identical.
        """
        link = self.spec.link_named(name)
        self._now_or_at(at, self._set_link_degrade, link, 1.0 / bw_factor,
                        extra_latency)
        if until is not None:
            self.sim.call_at(until, self._set_link_degrade, link, 1.0, 0)

    def _set_link_degrade(self, link: LinkSpec, scale: float,
                          extra: int) -> None:
        for port in self._ports_of_link(link.a, link.b):
            port.service_scale = scale
            port.extra_delay = extra

    def ports_of_link(self, name: str) -> list[FabricPort]:
        """Both directions' egress ports of the named link.

        Public so the fault injectors can hang lossy hooks here and the
        health estimator can sample per-direction counters.
        """
        link = self.spec.link_named(name)
        return self._ports_of_link(link.a, link.b)

    def mark_host_dead(self, host: str, rank: int) -> None:
        """Crash-stop a host: every in-flight chunk touching it fails with
        :class:`RankDead` at its next port event, draining the queues
        without ever livelocking (each pending chunk already has a
        settle or handler event scheduled)."""
        self._dead_hosts.add(host)
        self._dead_rank_of[host] = rank
        self._death_at[host] = self.sim.now

    def _ports_of_link(self, a: str, b: str) -> list[FabricPort]:
        """Both directions' egress ports of one cable (built if absent)."""
        out = []
        for near, far in ((a, b), (b, a)):
            if near in self._is_host:
                out.append(self.host_tx_port(near))
            else:
                out.append(self.switch_port(near, far))
        return out

    # -- teardown ------------------------------------------------------------

    def _check_quiesced(self) -> None:
        """Sanitizer: no stranded chunks or half-finished messages."""
        stuck = sorted(p.name for p in self.ports()
                       if any(not e[2].msg.failed for e in p.pending))
        if stuck:
            raise AssertionError(
                f"fabric teardown: chunks still queued on ports {stuck}")
        open_msgs = self.msgs_sent - self.msgs_delivered - self.msgs_failed
        if open_msgs:
            raise AssertionError(
                f"fabric teardown: {open_msgs} message(s) neither delivered "
                "nor failed")
