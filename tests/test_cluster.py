"""Tests for host assembly, topology helpers and testbed factories."""

import pytest

from repro import build_testbed, clovertown_5000x
from repro.cluster.host import Host
from repro.cluster.testbed import build_single_node
from repro.simkernel import Simulator


class TestHostTopology:
    @pytest.fixture
    def host(self):
        return Host(Simulator(), clovertown_5000x())

    def test_eight_cores_four_dies(self, host):
        assert len(host.cpus) == 8
        assert len(host.caches) == 4
        dies = {c.die for c in host.cpus.cores}
        assert dies == {0, 1, 2, 3}

    def test_cores_share_die_l2(self, host):
        for core in host.cpus.cores:
            assert core.l2cache is host.caches[core.die]
        a, b = host.cpus.on_die(1)
        assert a.l2cache is b.l2cache

    def test_irq_core_is_core0(self, host):
        assert host.irq_core.cpu_id == 0
        assert host.user_core(0).cpu_id == 1

    def test_same_die_pair_shares_cache_and_avoids_irq_die(self, host):
        a, b = host.core_same_die_pair()
        assert a.die == b.die
        assert a.die != host.irq_core.die

    def test_cross_socket_pair_spans_packages(self, host):
        a, b = host.core_cross_socket_pair()
        assert a.socket != b.socket

    def test_host_ids_unique(self):
        # Ids (and so NIC MACs) are 1..N in spec order on every build,
        # whatever the process built before.
        from repro.fabric.build import build_fabric_testbed
        from repro.fabric.sweep import make_topology

        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        for _ in range(2):
            tb = build_fabric_testbed(spec)
            assert [h.host_id for h in tb.hosts] == [1, 2, 3, 4]
            assert [h.nic.mac for h in tb.hosts] == [1, 2, 3, 4]

    def test_user_spaces_disjoint(self, host):
        a = host.user_space("p1").alloc(100)
        b = host.user_space("p2").alloc(100)
        assert a.addr != b.addr

    def test_ioat_channels_wired_to_caches(self, host):
        for ch in host.ioat_engine.channels:
            assert ch.caches is host.caches


class TestTestbedFactories:
    def test_two_node_default(self):
        tb = build_testbed()
        assert len(tb.hosts) == 2
        assert tb.link is not None

    def test_single_node_has_no_link(self):
        tb = build_single_node()
        assert len(tb.hosts) == 1
        assert tb.link is None

    def test_mixed_stacks(self):
        tb = build_testbed(stacks=("omx", "mx"))
        from repro.core.driver import OmxStack
        from repro.mx.native import NativeMxStack

        assert isinstance(tb.stacks[0], OmxStack)
        assert isinstance(tb.stacks[1], NativeMxStack)

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError):
            build_testbed(stacks="tcp")

    def test_omx_overrides_propagate(self):
        tb = build_testbed(ioat_enabled=True, ioat_min_msg=123456)
        assert tb.platform.omx.ioat_min_msg == 123456
        assert tb.stacks[0].config.ioat_enabled
