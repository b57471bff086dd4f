"""Units for the interest-scoped agent plane and the churn workload (E16).

Covers the O(1) hot-path bookkeeping PR 9 added for fleet-scale churn:
live sets and per-zone live sets, bounded dropped-message diagnostics,
interest sets (``watch``/``unwatch`` plus message-derived), the per-zone
membership-epoch digest, deterministic service failover, batched
``rehome_node`` recovery, the platform/cloud live indexes, the churn
workload itself, and its CLI surface.  The cross-model and cross-engine
equivalence properties live in ``test_churn_equivalence.py``.
"""

import io
from unittest import mock

import pytest

from repro.agents import Agent, MessageBus, NeverOffload
from repro.agents import bus as bus_module
from repro.agents.bus import _DROP_LOG_LIMIT
from repro.agents.messages import Message, Op
from repro.core.exceptions import AgentError
from repro.executor import SimWorkflowBuilder
from repro.infrastructure import (
    CloudProvider,
    NetworkTopology,
    make_fog_platform,
)
from repro.infrastructure.resources import Node, NodeKind
from repro.scheduling import DataLocationService, TransferPlanner
from repro.simulation import SimulationEngine
from repro.tools.cli import main, simulate_scenario_runner
from repro.workloads import ChurnConfig, run_churn, run_churn_fleet
from repro.workloads.churn import (
    _ZoneChurnDriver,
    make_continuum_platform,
    start_churn_fleet,
)


def make_stack(num_fog=3, num_cloud=2):
    platform = make_fog_platform(
        num_edge=0, num_fog=num_fog, num_cloud=num_cloud,
        fog_battery_joules=None,
    )
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    names = [f"fog-{i}" for i in range(num_fog)] + [
        f"cloud-{i}" for i in range(num_cloud)
    ]
    agents = {name: Agent(name, name, bus) for name in names}
    return platform, engine, bus, agents


class TestLiveSets:
    def test_alive_set_tracks_kills_in_registration_order(self):
        platform, engine, bus, agents = make_stack()
        assert bus.alive_agents == ["fog-0", "fog-1", "fog-2", "cloud-0", "cloud-1"]
        assert bus.alive_count == 5
        bus.kill_now("fog-1")
        assert bus.alive_agents == ["fog-0", "fog-2", "cloud-0", "cloud-1"]
        assert bus.alive_count == 4
        assert not bus.is_alive("fog-1")
        # Killing twice is a no-op, not a double-count.
        bus.kill_now("fog-1")
        assert bus.alive_count == 4 and bus.deaths == 1

    def test_per_zone_live_sets(self):
        platform, engine, bus, agents = make_stack()
        assert list(bus.alive_in_zone("fog-area")) == ["fog-0", "fog-1", "fog-2"]
        assert list(bus.alive_in_zone("cloud")) == ["cloud-0", "cloud-1"]
        assert list(bus.alive_in_zone("nowhere")) == []
        bus.kill_now("cloud-0")
        assert list(bus.alive_in_zone("cloud")) == ["cloud-1"]
        assert bus.zone_of_agent("fog-2") == "fog-area"
        with pytest.raises(AgentError):
            bus.zone_of_agent("ghost")


class TestDroppedMessages:
    def test_drop_log_is_bounded_but_count_is_not(self):
        platform, engine, bus, agents = make_stack()
        bus.kill_now("fog-1")
        total = _DROP_LOG_LIMIT + 25
        for i in range(total):
            bus.send(
                Message(op=Op.QUERY_STATUS, sender="fog-0", recipient="fog-1",
                        payload={"i": i})
            )
        engine.run()
        assert bus.dropped_count == total
        assert len(bus.dropped_messages) == _DROP_LOG_LIMIT
        # The deque keeps the most recent drops.
        assert bus.dropped_messages[-1].payload["i"] == total - 1


class TestInterestScoping:
    def test_only_interested_agents_are_notified(self):
        platform, engine, bus, agents = make_stack()
        bus.send(
            Message(op=Op.QUERY_STATUS, sender="fog-0", recipient="fog-1",
                    payload={})
        )
        engine.run()
        bus.kill_now("fog-1")
        engine.run()
        # fog-0 exchanged messages with fog-1: exactly one notice; the
        # three bystanders hear nothing.
        assert bus.down_notices == 1

    def test_broadcast_reference_notifies_every_survivor(self):
        platform = make_fog_platform(num_edge=0, num_fog=3, num_cloud=2,
                                     fog_battery_joules=None)
        engine = SimulationEngine()
        bus = MessageBus(platform, engine, notification="broadcast")
        for name in ("fog-0", "fog-1", "fog-2", "cloud-0", "cloud-1"):
            Agent(name, name, bus)
        bus.kill_now("fog-1")
        engine.run()
        assert bus.down_notices == 4

    def test_watch_and_unwatch(self):
        platform, engine, bus, agents = make_stack()
        bus.watch("cloud-0", "fog-2")
        bus.watch("cloud-1", "fog-2")
        bus.unwatch("cloud-1", "fog-2")
        bus.kill_now("fog-2")
        engine.run()
        assert bus.down_notices == 1  # only the remaining watcher
        with pytest.raises(AgentError):
            bus.watch("ghost", "fog-0")
        bus.unwatch("ghost", "fog-0")  # unwatch is idempotent and lenient

    def test_orchestrator_watches_peers_before_any_message(self):
        """A peer dying between Start Application and the first dispatch is
        still detected — the watch() half of the semantics argument."""
        platform, engine, bus, agents = make_stack()
        builder = SimWorkflowBuilder()
        builder.add_task("t0", duration=1.0, outputs={"o0": 1e3})
        orch = agents["fog-0"]
        orch.start_application(
            builder.graph, policy=NeverOffload(), peers=["cloud-0"]
        )
        bus.kill_now("cloud-0")
        engine.run()
        assert "cloud-0" not in orch.peer_names()
        assert orch.report().completed


class TestMembershipEpochs:
    def test_epoch_bumps_on_join_and_death(self):
        platform, engine, bus, agents = make_stack()
        assert bus.membership_epoch("fog-area") == 3
        bus.kill_now("fog-0")
        assert bus.membership_epoch("fog-area") == 4
        assert bus.membership_epoch("cloud") == 2
        assert bus.membership_epoch("nowhere") == 0

    def test_changes_since_returns_deltas_oldest_first(self):
        platform, engine, bus, agents = make_stack()
        epoch = bus.membership_epoch("fog-area")
        bus.kill_now("fog-1")
        platform.add_node(
            Node(name="fog-9", kind=NodeKind.FOG, cores=2, memory_mb=1000),
            zone="fog-area",
        )
        Agent("fog-9", "fog-9", bus)
        assert bus.changes_since("fog-area", epoch) == [
            ("fog-1", False), ("fog-9", True)
        ]
        # Caught-up (and future) epochs yield no deltas.
        assert bus.changes_since("fog-area", bus.membership_epoch("fog-area")) == []
        assert bus.changes_since("fog-area", 99) == []

    def test_outrun_change_log_demands_resync(self):
        platform, engine, bus, agents = make_stack()
        original = bus_module._EPOCH_LOG_LIMIT
        # Shrink the log via the deque itself: replace with a tiny one.
        from collections import deque

        bus._zone_changes["fog-area"] = deque(
            bus._zone_changes["fog-area"], maxlen=4
        )
        epoch = bus.membership_epoch("fog-area")
        for name in ("fog-0", "fog-1", "fog-2"):
            bus.kill_now(name)
        for i in range(2):
            platform.add_node(
                Node(name=f"fog-n{i}", kind=NodeKind.FOG, cores=2, memory_mb=1000),
                zone="fog-area",
            )
            Agent(f"fog-n{i}", f"fog-n{i}", bus)
        # 5 changes through a 4-entry log: the observer's epoch fell out.
        assert bus.changes_since("fog-area", epoch) is None
        # Resync from the live view, adopt the current epoch, and deltas
        # flow again.
        assert list(bus.alive_in_zone("fog-area")) == ["fog-n0", "fog-n1"]
        caught_up = bus.membership_epoch("fog-area")
        bus.kill_now("fog-n0")
        assert bus.changes_since("fog-area", caught_up) == [("fog-n0", False)]
        assert bus_module._EPOCH_LOG_LIMIT == original


class TestRehomeNode:
    def test_rehome_moves_every_copy_in_one_pass(self):
        locations = DataLocationService()
        for i in range(5):
            locations.publish(f"d{i}", "dead", size_bytes=100.0)
        locations.publish("d0", "survivor", size_bytes=100.0)
        moved = locations.rehome_node("dead", "store")
        assert moved == 5
        assert locations.get_locations("d1") == {"store"}
        # d0 keeps its surviving replica alongside the re-homed copy.
        assert locations.get_locations("d0") == {"survivor", "store"}
        assert not locations.has_lost_data
        # Nothing left on the dead node: a second pass is a no-op.
        assert locations.rehome_node("dead", "store") == 0

    def test_rehomed_bytes_are_local_to_the_target(self):
        locations = DataLocationService()
        locations.publish("a", "dead", size_bytes=10.0)
        locations.publish("b", "dead", size_bytes=5.0)
        digest = ("a", "b")
        before = dict(locations.local_bytes_map(digest))
        assert before == {"dead": 15.0}
        locations.rehome_node("dead", "store")
        after = locations.local_bytes_map(digest)
        assert after.get("store") == 15.0
        assert after.get("dead", 0.0) == 0.0

    def test_rehome_reaches_the_planner(self):
        # The planner prices from the live holders, so a re-homed copy is
        # the source of the very next query — there is nothing to invalidate.
        network = NetworkTopology()
        network.add_nodes(["dead", "dst"], "z0")
        network.add_node("store", "z1")
        locations = DataLocationService()
        locations.publish("a", "dead", size_bytes=10.0)
        planner = TransferPlanner(locations, network)
        assert planner.best_source("a", "dst")[0] == "dead"
        locations.rehome_node("dead", "store")
        assert planner.best_source("a", "dst") == (
            "store",
            network.transfer_time("store", "dst", 10.0),
        )


class TestPlatformLiveIndex:
    def test_alive_nodes_skips_failed_and_removed(self):
        platform = make_fog_platform(num_edge=0, num_fog=3, num_cloud=1,
                                     fog_battery_joules=None)
        assert platform.alive_count == 4
        platform.fail_node("fog-1")
        platform.remove_node("fog-2")
        names = [n.name for n in platform.alive_nodes]
        assert names == ["fog-0", "cloud-0"]
        assert platform.alive_count == 2

    def test_cloud_provider_active_index_and_ownership(self):
        platform = make_fog_platform(num_edge=0, num_fog=1, num_cloud=0,
                                     fog_battery_joules=None)
        engine = SimulationEngine()
        provider = CloudProvider(
            name="aws", platform=platform, engine=engine,
            cost_per_node_second=1e-4, startup_delay_s=1.0, max_nodes=4,
        )
        provider.request_nodes(2)
        engine.run()
        assert provider.active_node_count == 2
        (first, second) = provider.active_nodes
        assert provider.owns(first) and not provider.owns("fog-0")
        provider.release_node(first)
        assert provider.active_nodes == [second]


class TestChurnWorkload:
    def test_fleet_run_exercises_every_churn_path(self):
        cfg = ChurnConfig(
            agents=400, zones=2, duration_s=15.0, outage_at_s=8.0,
            outage_fraction=0.4,
        )
        result = run_churn_fleet(cfg)
        assert result["deaths"] > 0 and result["arrivals"] > 0
        assert result["per_zone"]["zone-0"]["outage_killed"] > 0
        assert result["tasks_done"] > 0
        assert result["tasks_recovered"] > 0  # churn collided with work
        assert result["recovered_work_fraction"] >= 0.5  # persistence won
        assert result["useful_events"] == result["events"] - result["down_notices"]
        # Interest scoping: notices stay within a small multiple of deaths
        # (each death notifies its interest set, not the fleet).
        assert result["down_notices"] < result["deaths"] * 8
        assert result["alive_agents"] > 0

    def test_a_harvest_leaves_the_orchestrator_no_data_catalogue(self):
        # An orchestrator hosts one crowd application after another; its
        # datum_home / home_index must not grow across them.
        cfg = ChurnConfig(agents=400, zones=2, duration_s=30.0)
        engine, _bus, drivers = start_churn_fleet(cfg)
        catalogued = []
        for driver in drivers:
            harvest = driver._harvest

            def checked(driver=driver, harvest=harvest):
                catalogued.append(len(driver.orch.homed_data()))
                harvest()
                assert driver.orch.homed_data() == []
                assert driver.orch._orch.home_index == {}

            driver._harvest = checked
        engine.run()
        for driver in drivers:
            driver.finalize()
        # Every zone harvested several applications, each with data homed.
        assert len(catalogued) >= 2 * cfg.zones and min(catalogued) > 0

    def test_without_persistence_interrupted_work_is_lost(self):
        cfg = ChurnConfig(agents=300, zones=2, duration_s=15.0,
                          churn_per_s=0.03, task_duration_s=1.0,
                          persistence=False, outage_at_s=6.0)
        result = run_churn_fleet(cfg)
        assert result["tasks_lost"] > 0 and result["apps_failed"] > 0

    def test_decomposed_mode_runs_standalone(self):
        cfg = ChurnConfig(agents=200, zones=2, duration_s=10.0)
        result, stats = run_churn(cfg, engine="single")
        assert result["mode"] == "decomposed"
        assert set(result["per_zone"]) == {"zone-0", "zone-1"}
        assert result["deaths"] > 0

    @pytest.mark.parametrize("mode", ["fleet", "decomposed"])
    def test_outcomes_do_not_depend_on_the_change_log_length(self, mode):
        # The drivers read the bus's live set, so a one-entry change log —
        # outrun by every membership change — moves no outcome.
        cfg = ChurnConfig(
            agents=2000, zones=4, duration_s=30.0, outage_at_s=10.0, seed=5
        )
        run = {
            "fleet": run_churn_fleet,
            "decomposed": lambda cfg: run_churn(cfg, engine="single")[0],
        }[mode]
        default = run(cfg)
        with mock.patch.object(bus_module, "_EPOCH_LOG_LIMIT", 1):
            shortest = run(cfg)
        assert default["per_zone"]["zone-0"]["outage_killed"] > 0
        assert shortest == default

    def test_fleet_mode_rejects_parallel_engine(self):
        with pytest.raises(ValueError):
            run_churn_fleet(ChurnConfig(agents=50, zones=1), engine="parallel")

    def test_outage_fraction_outside_unit_interval_is_rejected(self):
        for fraction in (-0.1, 1.5):
            with pytest.raises(ValueError, match=f"got {fraction!r}"):
                ChurnConfig(outage_fraction=fraction)


def make_driver(agents, **overrides):
    """One zone's churn driver over its own fleet, on a fresh engine."""
    cfg = ChurnConfig(agents=agents, zones=1, **overrides)
    platform = make_continuum_platform(cfg)
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    return _ZoneChurnDriver(cfg, 0, platform, bus, engine), bus


class TestChurnPicks:
    @pytest.mark.parametrize("agents", [3, 8, 40, 500])
    def test_a_crowd_picks_distinct_live_workers_of_its_zone(self, agents):
        driver, bus = make_driver(agents)
        for i in range(0, agents, 3):
            bus.kill_now(f"{driver.zone}-w{i}")
        live = {name for name in bus.alive_in_zone(driver.zone) if name != driver.orch_name}
        driver._crowd()
        peers = driver.orch.peer_names()
        assert len(peers) == len(set(peers)) == min(driver.cfg.peers_per_crowd, len(live))
        assert set(peers) <= live

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
    def test_an_outage_kills_its_fraction_of_distinct_workers(self, fraction):
        driver, bus = make_driver(203, outage_fraction=fraction)
        before = set(bus.alive_in_zone(driver.zone))
        pool = len(before) - 1  # the orchestrator is not a candidate
        driver._correlated_outage()
        killed = before - set(bus.alive_in_zone(driver.zone))
        assert len(killed) == driver.outage_killed == int(pool * fraction)
        assert driver.orch_name not in killed


class TestChurnCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_simulate_churn(self):
        code, output = self.run_cli(
            "simulate", "--workload", "churn", "--agents", "200",
            "--zones", "2", "--duration", "8",
        )
        assert code == 0
        assert "churn" in output and "deaths" in output
        assert "interest notification" in output

    def test_simulate_churn_broadcast_reference(self):
        code, output = self.run_cli(
            "simulate", "--workload", "churn", "--agents", "100",
            "--zones", "2", "--duration", "5",
            "--notification", "broadcast",
        )
        assert code == 0
        assert "broadcast notification" in output

    def test_simulate_churn_parallel_engine_uses_decomposed_mode(self):
        code, output = self.run_cli(
            "simulate", "--workload", "churn", "--agents", "100",
            "--zones", "2", "--duration", "5", "--engine", "parallel",
        )
        assert code == 0
        assert "decomposed" in output

    def test_analyze_churn_is_rejected(self):
        with pytest.raises(SystemExit):
            self.run_cli("analyze", "--workload", "churn")

    def test_sweep_runner_churn_scenario(self):
        fleet = simulate_scenario_runner(
            {"workload": "churn", "agents": 150, "zones": 2, "duration": 6.0},
            seed=7,
        )
        assert fleet["workload"] == "churn" and fleet["mode"] == "fleet"
        decomposed = simulate_scenario_runner(
            {"workload": "churn", "agents": 150, "zones": 2, "duration": 6.0,
             "mode": "decomposed"},
            seed=7,
            engine="parallel",
        )
        assert decomposed["mode"] == "decomposed"
        assert "_stats" in decomposed
