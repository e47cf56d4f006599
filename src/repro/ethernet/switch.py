"""Store-and-forward Ethernet switches for multi-node testbeds.

The paper's measurements are back-to-back ("two Myri-10G NICs connected
without any switch"), but its motivating deployment — PVFS2 transport
between BlueGene/P compute and I/O nodes — is a switched fabric.  This
switch enables N-node testbeds: each port is a full-duplex link to one
NIC *or to another switch* (a trunk), frames are forwarded after a
store-and-forward latency with per-output-port serialization (so
congestion on a hot receiver emerges naturally) and a bounded per-port
egress queue that drops when full (tail drop), exercising the stacks'
retransmission machinery.

Forwarding uses **static routes** only, installed at build time by
:func:`repro.fabric.build.build_fabric_testbed` on every switch of a
switched spec, lone star switches included: per destination MAC, the set
of candidate egress ports, one of which is picked by a seeded crc32 hash
of the (src, dst) MAC pair (:func:`repro.fabric.routing.ecmp_pick`, the
chunk-level fabric's hash) — deterministic ECMP, byte-identical across runs
and platforms (never Python's ``hash``), and per-pair stable so a flow's
frames never reorder across trunks.  A frame with no route is dropped.
There is no MAC learning and no flooding: flooding over a fat tree's
redundant trunks would loop, and first-arrival learning would leak
dispatch order into the forwarding state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.ethernet.frame import EthernetFrame
from repro.ethernet.link import Link
from repro.fabric.routing import ecmp_pick
from repro.simkernel.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.ethernet.nic import Nic
    from repro.obs.registry import MetricsRegistry
    from repro.simkernel.scheduler import Simulator

#: per-port egress queue depth in frames; a frame that finds it full is
#: tail-dropped
EGRESS_QUEUE_FRAMES = 128


class _SwitchPort:
    """Endpoint object plugged into one side of a Link, posing as a NIC."""

    def __init__(self, switch: "EthernetSwitch"):
        self.switch = switch
        self._egress = None  # filled by Link.attach

    def on_frame(self, frame: EthernetFrame) -> None:
        self.switch._ingress(frame)


class EthernetSwitch:
    """N-port cut-through-ish switch with per-port egress queues."""

    def __init__(self, sim: "Simulator", n_ports: int, link_bw: float,
                 propagation_delay: int, forwarding_latency: int = 500,
                 name: str = "sw0", ecmp_seed: str = "fabric"):
        self.sim = sim
        self.name = name
        self.ecmp_seed = ecmp_seed
        self.link_bw = link_bw
        self.propagation_delay = propagation_delay
        self.forwarding_latency = forwarding_latency
        self.ports = [_SwitchPort(self) for _ in range(n_ports)]
        self.links: list[Optional[Link]] = [None] * n_ports
        #: the egress direction of each port's cable (NIC ports transmit on
        #: the link's b->a half; a trunk's near side transmits on a->b)
        self._tx_dir = [None] * n_ports
        #: static routes: dst MAC -> candidate egress ports (ECMP set)
        self._routes: dict[int, tuple[int, ...]] = {}
        self._egress_q: list[Store] = [
            Store(sim, capacity=EGRESS_QUEUE_FRAMES, name=f"sw-eg{i}")
            for i in range(n_ports)
        ]
        for i in range(n_ports):
            sim.daemon(self._egress_daemon(i), name=f"switch-eg{i}")
        #: fault hook: ``drop_egress(port, frame, now)`` forces a tail drop
        #: on the named egress port, as if its queue had overflowed
        self.fault = None
        # statistics (aggregate and per egress port)
        self.forwarded = 0
        self.dropped = 0
        self.port_forwarded = [0] * n_ports
        self.port_dropped = [0] * n_ports
        self.port_peak_queue = [0] * n_ports

    # -- wiring ---------------------------------------------------------------

    def attach_nic(self, port: int, nic: "Nic") -> None:
        """Cable ``nic`` to switch ``port``."""
        if self.links[port] is not None:
            raise ValueError(f"port {port} already in use")
        link = Link(self.sim, self.link_bw, self.propagation_delay,
                    name=f"sw-p{port}")
        link.attach(nic, self.ports[port])  # type: ignore[arg-type]
        self.links[port] = link
        self._tx_dir[port] = link.b_to_a

    def attach_trunk(self, port: int, peer: "EthernetSwitch", peer_port: int,
                     bw: float, latency: int) -> Link:
        """Cable switch ``port`` to ``peer_port`` of another switch, at the
        trunk's own rate ``bw`` and propagation ``latency``.

        Returns the trunk :class:`~repro.ethernet.link.Link` (this switch
        is side *a*, the peer side *b*) so fault plans can target it.
        """
        if self.links[port] is not None:
            raise ValueError(f"port {port} already in use")
        if peer.links[peer_port] is not None:
            raise ValueError(f"peer port {peer_port} already in use")
        link = Link(self.sim, bw, latency,
                    name=f"trunk-{self.name}~{peer.name}")
        link.attach(self.ports[port],  # type: ignore[arg-type]
                    peer.ports[peer_port])  # type: ignore[arg-type]
        self.links[port] = link
        peer.links[peer_port] = link
        self._tx_dir[port] = link.a_to_b
        peer._tx_dir[peer_port] = link.b_to_a
        return link

    def add_route(self, dst_mac: int, out_ports: Sequence[int]) -> None:
        """Install the static ECMP port set for one destination MAC."""
        if not out_ports:
            raise ValueError(f"{self.name}: empty route for MAC {dst_mac}")
        self._routes[dst_mac] = tuple(sorted(out_ports))

    def _route_port(self, frame: EthernetFrame) -> Optional[int]:
        """Deterministic ECMP pick among the static candidates."""
        candidates = self._routes.get(frame.dst_mac)
        if candidates is None:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return candidates[ecmp_pick(self.ecmp_seed,
                                    f"{frame.src_mac}>{frame.dst_mac}",
                                    self.name, len(candidates))]

    # -- forwarding -------------------------------------------------------------

    def _ingress(self, frame: EthernetFrame) -> None:
        port = self._route_port(frame)
        if port is None:
            self.dropped += 1
            return
        if self.fault is not None and self.fault.drop_egress(
            port, frame, self.sim.now
        ):
            self.dropped += 1
            self.port_dropped[port] += 1
            return
        if not self._egress_q[port].try_put(frame):
            self.dropped += 1
            self.port_dropped[port] += 1
            return
        depth = len(self._egress_q[port])
        if depth > self.port_peak_queue[port]:
            self.port_peak_queue[port] = depth

    def _egress_daemon(self, port: int) -> Generator:
        while True:
            frame = yield self._egress_q[port].get()
            yield self.forwarding_latency  # bare-int sleep (per frame)
            direction = self._tx_dir[port]
            if direction is None:
                continue
            yield from direction.transmit(frame)
            self.forwarded += 1
            self.port_forwarded[port] += 1

    # -- observation ------------------------------------------------------------

    def register_metrics(self, metrics: "MetricsRegistry") -> None:
        """Expose per-port egress counters in a metrics registry."""
        metrics.counter(self.name, f"sw_{self.name}_forwarded",
                        lambda: self.forwarded, "frames forwarded")
        metrics.counter(self.name, f"sw_{self.name}_dropped",
                        lambda: self.dropped, "frames tail-dropped")
        for i in range(len(self.ports)):
            metrics.counter(
                self.name, f"sw_{self.name}_p{i}_forwarded",
                lambda i=i: self.port_forwarded[i],
                "frames forwarded out this port")
            metrics.counter(
                self.name, f"sw_{self.name}_p{i}_dropped",
                lambda i=i: self.port_dropped[i],
                "frames dropped at this egress queue")
            metrics.gauge(
                self.name, f"sw_{self.name}_p{i}_peak_queue",
                lambda i=i: self.port_peak_queue[i],
                "worst egress queue occupancy (frames)")


def build_switched_testbed(n_nodes: int, platform=None, **omx_overrides):
    """An N-node Open-MX testbed around one switch.

    Thin wrapper over the fabric star spec: equivalent to compiling
    :func:`repro.fabric.spec.star_topology` with
    :func:`repro.fabric.build.build_fabric_testbed` (construction order —
    and therefore every event count — is identical to the historical
    inline factory).
    """
    from repro.fabric.build import build_fabric_testbed
    from repro.fabric.spec import star_topology

    return build_fabric_testbed(star_topology(n_nodes), platform=platform,
                                **omx_overrides)
