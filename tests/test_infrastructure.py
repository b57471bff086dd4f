"""Unit tests for the infrastructure model: nodes, network, energy, platform."""

import pytest

from repro.infrastructure import (
    EnergyAccountant,
    Link,
    NetworkTopology,
    Node,
    NodeKind,
    Platform,
    PowerProfile,
    make_fog_platform,
    make_hpc_cluster,
)
from repro.infrastructure.platform import PlatformError


class TestNode:
    def test_defaults(self):
        node = Node("n0")
        assert node.alive
        assert node.gpu_count == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            Node("bad", cores=0)
        with pytest.raises(ValueError):
            Node("bad", memory_mb=0)
        with pytest.raises(ValueError):
            Node("bad", speed_factor=0)

    def test_fail_and_recover(self):
        node = Node("n0")
        node.fail()
        assert not node.alive
        node.recover()
        assert node.alive

    def test_battery_death(self):
        node = Node("phone", battery_joules=0.0)
        assert not node.alive

    def test_power_profile(self):
        power = PowerProfile(idle_watts=100.0, busy_watts_per_core=10.0)
        assert power.power(0) == 100.0
        assert power.power(4) == 140.0
        with pytest.raises(ValueError):
            power.power(-1)


class TestNetworkTopology:
    def test_same_node_transfer_free(self):
        net = NetworkTopology()
        assert net.transfer_time("a", "a", 1e12) == 0.0

    def test_same_zone_uses_intra_link(self):
        net = NetworkTopology(intra_zone_link=Link(0.0, 100.0))
        net.add_nodes(["a", "b"], zone="rack1")
        assert net.transfer_time("a", "b", 1000.0) == pytest.approx(10.0)

    def test_cross_zone_uses_connect_or_default(self):
        net = NetworkTopology(default_link=Link(1.0, 10.0))
        net.add_node("a", "z1")
        net.add_node("b", "z2")
        assert net.transfer_time("a", "b", 10.0) == pytest.approx(2.0)
        net.connect("z1", "z2", Link(0.0, 1000.0))
        assert net.transfer_time("a", "b", 10.0) == pytest.approx(0.01)

    def test_connect_symmetric_by_default(self):
        net = NetworkTopology()
        net.add_node("a", "z1")
        net.add_node("b", "z2")
        net.connect("z1", "z2", Link(0.0, 100.0))
        assert net.transfer_time("b", "a", 100.0) == net.transfer_time("a", "b", 100.0)

    def test_zero_bytes_costs_nothing(self):
        link = Link(latency_s=1.0, bandwidth_bps=10.0)
        assert link.transfer_time(0) == 0.0

    def test_invalid_link_rejected(self):
        with pytest.raises(ValueError):
            Link(latency_s=-1.0, bandwidth_bps=10.0)
        with pytest.raises(ValueError):
            Link(latency_s=0.0, bandwidth_bps=0.0)

    def test_transfer_accounting(self):
        net = NetworkTopology()
        net.record_transfer("a", "b", 100.0, 0.0, 1.0)
        net.record_transfer("c", "c", 999.0, 0.0, 0.0)
        assert net.total_bytes_moved == 100.0
        assert net.remote_transfer_count == 1

    def test_topology_version_bumps_on_every_mutation(self):
        # TransferPlanner's link table validates against topology_version,
        # so every route-affecting entry point must bump it — including
        # zone *reassignment* of an existing node.
        net = NetworkTopology()
        v0 = net.topology_version
        net.add_node("a", "z1")
        v1 = net.topology_version
        assert v1 > v0
        net.add_nodes(["b", "c"], zone="z2")
        v2 = net.topology_version
        assert v2 > v1
        net.connect("z1", "z2", Link(0.0, 100.0))
        v3 = net.topology_version
        assert v3 > v2
        # Zone reassignment is a mutation: routes through "a" change.
        before = net.transfer_time("a", "b", 100.0)
        net.add_node("a", "z2")
        v4 = net.topology_version
        assert v4 > v3
        assert net.zone_of("a") == "z2"
        assert net.transfer_time("a", "b", 100.0) != before

    def test_topology_version_stable_on_noop_readd(self):
        net = NetworkTopology()
        net.add_node("a", "z1")
        net.add_node("b", "z1")
        net.transfer_time("a", "b", 1.0)
        version = net.topology_version
        net.add_node("a", "z1")  # same zone: no routes changed
        net.add_nodes(["a", "b"], zone="z1")
        assert net.topology_version == version


class TestEnergyAccountant:
    def test_idle_energy_charged_over_horizon(self):
        acct = EnergyAccountant()
        node = Node("n0", power=PowerProfile(idle_watts=100.0, busy_watts_per_core=0.0))
        acct.register_node(node)
        assert acct.total_energy_joules(10.0) == pytest.approx(1000.0)

    def test_busy_energy_added(self):
        acct = EnergyAccountant()
        node = Node("n0", power=PowerProfile(idle_watts=0.0, busy_watts_per_core=10.0))
        acct.register_node(node)
        acct.record_busy("n0", 0.0, 5.0, cores=2)
        assert acct.total_energy_joules(10.0) == pytest.approx(100.0)

    def test_power_off_stops_idle_draw(self):
        acct = EnergyAccountant()
        node = Node("n0", power=PowerProfile(idle_watts=100.0, busy_watts_per_core=0.0))
        acct.register_node(node)
        acct.power_off("n0", at=4.0)
        assert acct.total_energy_joules(10.0) == pytest.approx(400.0)

    def test_invalid_interval_rejected(self):
        acct = EnergyAccountant()
        with pytest.raises(ValueError):
            acct.record_busy("n0", 5.0, 1.0, cores=1)


class TestPlatform:
    def test_add_and_query_nodes(self):
        platform = Platform()
        platform.add_node(Node("a", cores=4))
        platform.add_node(Node("b", cores=8))
        assert platform.total_cores == 12
        assert platform.node("a").cores == 4
        assert platform.has_node("b")

    def test_duplicate_name_rejected(self):
        platform = Platform()
        platform.add_node(Node("a"))
        with pytest.raises(PlatformError):
            platform.add_node(Node("a"))

    def test_unknown_node_rejected(self):
        platform = Platform()
        with pytest.raises(PlatformError):
            platform.node("ghost")
        with pytest.raises(PlatformError):
            platform.remove_node("ghost")

    def test_listeners_fire(self):
        platform = Platform()
        joined, left = [], []
        platform.on_node_join(lambda n: joined.append(n.name))
        platform.on_node_leave(lambda n: left.append(n.name))
        platform.add_node(Node("a"))
        platform.remove_node("a")
        assert joined == ["a"]
        assert left == ["a"]

    def test_fail_node_keeps_it_listed_but_dead(self):
        platform = Platform()
        platform.add_node(Node("a"))
        platform.fail_node("a")
        assert platform.has_node("a")
        assert not platform.node("a").alive
        assert platform.alive_nodes == []

    def test_kind_filter(self):
        platform = make_fog_platform(num_edge=2, num_fog=3, num_cloud=1)
        assert len(platform.nodes_of_kind(NodeKind.EDGE)) == 2
        assert len(platform.nodes_of_kind(NodeKind.FOG)) == 3
        assert len(platform.nodes_of_kind(NodeKind.CLOUD)) == 1


class TestPrefabPlatforms:
    def test_hpc_cluster_marenostrum_shape(self):
        platform = make_hpc_cluster(100)
        assert platform.total_cores == 4800  # the paper's 100-node run
        assert all(n.kind is NodeKind.HPC for n in platform.nodes)
        assert all("mpi" in n.software for n in platform.nodes)

    def test_hpc_cluster_rack_zoning(self):
        platform = make_hpc_cluster(48, nodes_per_rack=24)
        zones = {platform.network.zone_of(n.name) for n in platform.nodes}
        assert zones == {"rack-0", "rack-1"}

    def test_invalid_cluster_size_rejected(self):
        with pytest.raises(ValueError):
            make_hpc_cluster(0)

    def test_fog_platform_layers_and_speeds(self):
        platform = make_fog_platform()
        fogs = platform.nodes_of_kind(NodeKind.FOG)
        clouds = platform.nodes_of_kind(NodeKind.CLOUD)
        assert all(f.speed_factor < 1.0 for f in fogs)
        assert all(c.speed_factor == 1.0 for c in clouds)
        assert all(f.battery_joules is not None for f in fogs)

    def test_fog_wan_slower_than_lan(self):
        platform = make_fog_platform()
        lan = platform.network.transfer_time("fog-0", "fog-1", 1e6)
        wan = platform.network.transfer_time("fog-0", "cloud-0", 1e6)
        assert wan > lan
