"""Compile a :class:`~repro.fabric.spec.TopologySpec` into full hardware.

Where :mod:`repro.fabric.network` models a fabric at chunk granularity for
scale, this module builds the *real* models — per-host
:class:`~repro.cluster.host.Host` graphs, frame-level
:class:`~repro.ethernet.switch.EthernetSwitch` forwarding, Open-MX stacks —
for small specs, so the frame-accurate testbeds and the scalable fabric
share one topology description.

The historical factories are degenerate cases and **must stay
bit-identical** (``TestQuickEventCountGate`` pins their per-experiment
event counts):

* a switchless two-host spec compiles exactly like the old
  :func:`repro.cluster.testbed.build_testbed` — same construction order,
  same ``Link`` wiring;
* a one-switch spec compiles exactly like the old
  :func:`repro.ethernet.switch.build_switched_testbed`: its static routes
  send each frame out of the port the old learning switch had pre-learned
  for the destination NIC.

Hosts get ids (and so NIC MACs) 1..N in spec order, so ECMP picks and
backoff seeds are a function of the spec alone.

Every switched spec gets static ECMP routes: for every (switch,
destination host) pair the candidate egress ports are the next hops of
:meth:`repro.fabric.routing.RouteTables.table_for` toward the
destination's edge switch — the same tables the chunk-level fabric
routes by — and the frame-time pick is a seeded crc32 over the (src, dst)
MAC pair — deterministic, per-flow stable, and independent of dispatch
order.
"""

from __future__ import annotations

from typing import Union

from repro.fabric.routing import RouteTables
from repro.fabric.spec import TopologySpec

StackName = str  # "omx" | "mx"


def build_fabric_testbed(spec: TopologySpec,
                         platform=None,
                         stacks: Union[StackName, tuple] = "omx",
                         **omx_overrides):
    """Build a frame-accurate testbed for ``spec``.

    Hosts become :class:`~repro.cluster.host.Host`\\ s named after the
    spec's hosts, switches become :class:`EthernetSwitch`\\ es, trunks
    carry the spec's per-link rate/latency, and the returned
    :class:`~repro.cluster.testbed.Testbed` gains ``topology`` (the spec),
    ``switches`` (name -> switch), ``trunks`` (spec link name -> Link) and
    ``metrics`` (per-port switch counters).  Access links use the
    platform's NIC rate — the cable runs at whatever the NIC does, exactly
    as the historical factories wired it.
    """
    from repro.cluster.host import Host
    from repro.cluster.testbed import Testbed
    from repro.core.driver import OmxStack
    from repro.ethernet.link import Link
    from repro.ethernet.switch import EthernetSwitch
    from repro.mx.native import NativeMxStack
    from repro.obs.registry import MetricsRegistry
    from repro.params import clovertown_5000x
    from repro.simkernel.scheduler import Simulator

    spec.validate()
    if platform is None:
        platform = clovertown_5000x(**omx_overrides)
    elif omx_overrides:
        platform = platform.with_omx(**omx_overrides)
    if isinstance(stacks, str):
        stacks = tuple([stacks] * len(spec.hosts))
    if len(stacks) != len(spec.hosts):
        raise ValueError(f"{len(stacks)} stack names for "
                         f"{len(spec.hosts)} hosts")
    if spec.switches and any(s != "omx" for s in stacks):
        raise ValueError("switched testbeds support omx stacks only")

    sim = Simulator()
    hosts = [Host(sim, platform, name=h, host_id=i + 1)
             for i, h in enumerate(spec.hosts)]
    host_index = {h: i for i, h in enumerate(spec.hosts)}

    # -- switchless pair: the legacy back-to-back wiring -----------------
    if not spec.switches:
        if len(spec.hosts) != 2 or len(spec.links) != 1:
            raise ValueError(f"{spec.name}: a switchless spec must be the "
                             "two-host pair")
        link = Link(sim, platform.nic.link_bw, platform.nic.propagation_delay)
        link.attach(hosts[0].nic, hosts[1].nic)
        built = []
        for host, name in zip(hosts, stacks):
            if name == "omx":
                built.append(OmxStack(host))
            elif name == "mx":
                built.append(NativeMxStack(host))
            else:
                raise ValueError(f"unknown stack {name!r}")
        tb = Testbed(sim, platform, hosts, link, built)
        tb.topology = spec
        tb.switches = {}
        tb.trunks = {}
        return tb

    # -- switched: one EthernetSwitch per SwitchSpec ---------------------
    # Port layout: each switch's incident links, in spec link order.
    switch_names = set(spec.switch_names())
    peers_of: dict[str, list[str]] = {s: [] for s in spec.switch_names()}
    for l in spec.links:
        if l.a in switch_names:
            peers_of[l.a].append(l.b)
        if l.b in switch_names:
            peers_of[l.b].append(l.a)
    switches: dict[str, EthernetSwitch] = {}
    for sw in spec.switches:
        switches[sw.name] = EthernetSwitch(
            sim, len(peers_of[sw.name]), platform.nic.link_bw,
            platform.nic.propagation_delay,
            forwarding_latency=sw.forwarding_latency,
            name=sw.name, ecmp_seed=spec.ecmp_seed)
    port_map: dict[tuple[str, str], int] = {}
    cursor = {s: 0 for s in switch_names}
    trunks: dict[str, Link] = {}
    for l in spec.links:
        if l.a in switch_names and l.b in switch_names:
            pa, pb = cursor[l.a], cursor[l.b]
            cursor[l.a] += 1
            cursor[l.b] += 1
            port_map[(l.a, l.b)] = pa
            port_map[(l.b, l.a)] = pb
            trunks[l.name] = switches[l.a].attach_trunk(
                pa, switches[l.b], pb, bw=l.bw, latency=l.latency)
        else:
            host, sw = (l.a, l.b) if l.b in switch_names else (l.b, l.a)
            port = cursor[sw]
            cursor[sw] += 1
            port_map[(sw, host)] = port
            switches[sw].attach_nic(port, hosts[host_index[host]].nic)

    # Static ECMP routes on every switch.
    routes = RouteTables(spec)
    for host in spec.hosts:
        edge = routes.edge_of[host]
        mac = hosts[host_index[host]].nic.mac
        table = routes.table_for(edge)
        for sw_name in spec.switch_names():
            if sw_name == edge:
                ports = [port_map[(sw_name, host)]]
            elif sw_name in table:
                ports = [port_map[(sw_name, nbr)]
                         for nbr in table[sw_name]]
            else:
                continue  # unreachable from this edge; no route
            switches[sw_name].add_route(mac, ports)

    metrics = MetricsRegistry()
    for sw in spec.switches:
        switches[sw.name].register_metrics(metrics)
    built = [OmxStack(host) for host in hosts]
    tb = Testbed(sim, platform, hosts, None, built)
    tb.topology = spec
    tb.switches = switches
    tb.trunks = trunks
    tb.metrics = metrics
    if len(spec.switches) == 1:
        tb.switch = switches[spec.switches[0].name]
    return tb
