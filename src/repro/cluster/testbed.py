"""Two-node back-to-back testbed factory (the paper's experimental setup).

Two dual-Clovertown hosts, Myri-10G NICs "connected without any switch"
(§II-B).  Each node runs either the Open-MX stack or the native MXoE
firmware — including one of each, since wire interoperability is an Open-MX
design goal that the tests exercise.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cluster.host import Host
from repro.core.driver import OmxStack
from repro.ethernet.link import Link
from repro.mx.native import NativeMxStack
from repro.params import Platform, clovertown_5000x
from repro.simkernel.scheduler import Simulator

StackName = str  # "omx" | "mx"


class Testbed:
    """Assembled simulator + hosts + link + per-node stacks."""

    def __init__(self, sim: Simulator, platform: Platform,
                 hosts: list[Host], link: Optional[Link],
                 stacks: list[Union[OmxStack, NativeMxStack]]):
        self.sim = sim
        self.platform = platform
        self.hosts = hosts
        self.link = link
        self.stacks = stacks

    def stack(self, node: int) -> Union[OmxStack, NativeMxStack]:
        return self.stacks[node]

    def open_endpoint(self, node: int, ep_id: int):
        """Open endpoint ``ep_id`` on node ``node`` (either stack kind)."""
        stack = self.stacks[node]
        return stack.open_endpoint(ep_id)

    def user_core(self, node: int, index: int = 0):
        return self.hosts[node].user_core(index)

    def run(self, **kw) -> int:
        return self.sim.run(**kw)

    def run_until(self, ev, **kw):
        return self.sim.run_until(ev, **kw)


def build_testbed(
    platform: Optional[Platform] = None,
    stacks: Union[StackName, tuple[StackName, StackName]] = "omx",
    **omx_overrides,
) -> Testbed:
    """Build the canonical two-node testbed.

    Thin wrapper compiling the fabric pair spec
    (:func:`repro.fabric.spec.pair_topology`) with
    :func:`repro.fabric.build.build_fabric_testbed`; the construction
    order — and therefore every event count — is identical to the
    historical inline factory.

    ``stacks`` selects the software per node: a single name for both, or a
    pair like ``("omx", "mx")`` for the interoperability configuration.
    ``omx_overrides`` are forwarded to :class:`~repro.params.OmxConfig`.
    """
    from repro.fabric.build import build_fabric_testbed
    from repro.fabric.spec import pair_topology

    return build_fabric_testbed(pair_topology(), platform=platform,
                                stacks=stacks, **omx_overrides)


def build_single_node(
    platform: Optional[Platform] = None, **omx_overrides
) -> Testbed:
    """One host, no link: the shared-memory (Fig. 10) configuration."""
    if platform is None:
        platform = clovertown_5000x(**omx_overrides)
    elif omx_overrides:
        platform = platform.with_omx(**omx_overrides)
    sim = Simulator()
    host = Host(sim, platform, name="node0")
    return Testbed(sim, platform, [host], None, [OmxStack(host)])
