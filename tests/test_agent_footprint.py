"""A worker agent costs what a worker does (E16 footprint).

A continuum fleet is tens of thousands of symmetric agents of which a
handful ever orchestrate or serve.  These tests pin the per-agent cost —
GC-tracked objects per (node, agent) pair — and that the state of a role
exists from the moment the agent first plays it, with every behaviour of
the eager version kept.  The energy half pins ``EnergyAccountant``'s
on/off interval arithmetic against the figures the list-of-intervals
version gave.
"""

import gc

import pytest

from repro.agents import Agent, AlwaysOffload, MessageBus
from repro.agents.messages import Message, Op
from repro.core.exceptions import AgentError
from repro.executor import SimWorkflowBuilder
from repro.infrastructure import EnergyAccountant, Platform
from repro.infrastructure.resources import Node, NodeKind, PowerProfile
from repro.simulation import SimulationEngine

_POWER = PowerProfile(idle_watts=2.0, busy_watts_per_core=3.0)


def _fleet(workers, persistence=True):
    platform = Platform()
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    platform.add_node(Node("store", kind=NodeKind.CLOUD, power=_POWER))
    store = "store" if persistence else None
    agents = []
    for i in range(workers):
        name = f"w{i}"
        platform.add_node(Node(name, kind=NodeKind.FOG, cores=2, power=_POWER))
        agents.append(Agent(name, name, bus, persistence_store_node=store))
    return platform, engine, bus, agents


def _graph(prefix, tasks=3):
    builder = SimWorkflowBuilder()
    for i in range(tasks):
        builder.add_task(f"{prefix}{i}", duration=1.0, outputs={f"{prefix}o{i}": 1e3})
    return builder.graph


def _has_no_role_state(agent):
    return agent._orch is None


class TestFootprint:
    def test_a_worker_adds_at_most_three_gc_tracked_objects(self):
        _fleet(10)  # warm every lazily built module-level object
        gc.collect()
        before = len(gc.get_objects())
        fleet = _fleet(1000)
        gc.collect()
        per_agent = (len(gc.get_objects()) - before) / 1000
        assert len(fleet[3]) == 1000
        # Agent + Node; the eager version held 8 (a policy instance, a set,
        # a frozenset and three lists more).
        assert per_agent <= 3.0, per_agent

    def test_default_software_and_policy_are_shared(self):
        a, b = Node("a"), Node("b")
        assert a.software is b.software and a.software == frozenset()
        assert Node("c", software=["x"]).software == frozenset({"x"})
        _platform, engine, _bus, agents = _fleet(2)
        agents[0].start_application(_graph("a"))
        agents[1].start_application(_graph("b"))
        engine.run()
        assert agents[0]._orch.policy is agents[1]._orch.policy
        assert agents[0].report().executed_by == {"w0": 3}


class TestLaziness:
    def test_a_worker_that_only_executed_tasks_holds_no_role_state(self):
        _platform, engine, _bus, agents = _fleet(3)
        orch, worker, idle = agents
        assert all(_has_no_role_state(a) and a._queue is None for a in agents)
        orch.start_application(_graph("t"), policy=AlwaysOffload(), peers=["w1"])
        engine.run()
        assert orch.report().completed and orch.report().executed_by == {"w1": 3}
        assert worker.tasks_executed == 3 and worker._queue == []
        assert _has_no_role_state(worker)
        assert _has_no_role_state(idle) and idle._queue is None
        assert worker.graph is None and not worker.app_failed
        assert worker.tasks_recovered == 0 and worker.failure_reason is None
        assert worker.peer_names() == [] and worker.homed_data() == []
        worker.forget_data()
        worker.reset_orchestration()
        assert _has_no_role_state(worker)

    def test_report_on_a_never_orchestrating_agent_raises(self):
        _platform, _engine, _bus, agents = _fleet(1)
        with pytest.raises(AgentError, match="never orchestrated"):
            agents[0].report()

    def test_second_application_after_reset_keeps_catalogue_and_counters(self):
        _platform, engine, _bus, agents = _fleet(2)
        orch = agents[0]
        orch.start_application(_graph("a"), initial_data={"seed": 5e3})
        with pytest.raises(AgentError, match="already orchestrating"):
            orch.start_application(_graph("x"))
        with pytest.raises(AgentError, match="still orchestrating"):
            orch.reset_orchestration()
        engine.run()
        first = orch.report()
        assert first.completed and first.tasks_done == 3
        assert [d for d, _home, _size in orch.homed_data()] == [
            "seed", "ao0", "ao1", "ao2"
        ]
        orch.reset_orchestration()
        assert orch.graph is None
        with pytest.raises(AgentError):
            orch.report()
        orch.start_application(_graph("b", tasks=2))
        engine.run()
        second = orch.report()
        assert second.completed and second.tasks_done == 2
        # Lifetime counter and data catalogue outlive the application.
        assert second.executed_by == {"w0": 5}
        assert ("seed", "w0", 5e3) in orch.homed_data()
        assert len(orch.homed_data()) == 6
        orch.forget_data()
        assert orch.homed_data() == []

    def test_on_killed_on_an_idle_worker(self):
        platform, engine, bus, agents = _fleet(2)
        bus.kill_now("w1")
        engine.run()
        assert not bus.is_alive("w1") and agents[1]._queue is None
        assert agents[1]._free_cores == agents[1].cores
        # The dead agent is retired: its node left the platform.
        assert not platform.has_node("w1") and platform.has_node("w0")
        assert _has_no_role_state(agents[1])
        # Status of a worker that never queued anything.
        bus.send(Message(op=Op.QUERY_STATUS, sender="w0", recipient="w0"))
        engine.run()
        assert bus.dropped_count == 0

    def test_orchestrator_death_fails_its_open_application(self):
        _platform, engine, bus, agents = _fleet(1)
        agents[0].start_application(_graph("t"))
        bus.kill_now("w0")
        engine.run()
        report = agents[0].report()
        assert report.failed and not report.completed
        assert agents[0].failure_reason == "orchestrator agent died"

    def test_unhandled_op_still_raises(self):
        _platform, _engine, _bus, agents = _fleet(1)
        message = Message(op=Op.QUERY_STATUS, sender="w0", recipient="w0")
        message.op = "PATCH /nothing"
        with pytest.raises(AgentError, match="unhandled op"):
            agents[0].handle(message)


class TestEnergyIntervals:
    """on → off → on → off → on, clipped at horizons inside and past each
    interval.  Expected joules are the parent's (list-of-intervals) figures:
    idle watts × clipped on-seconds, summed in interval order, + busy."""

    def _accountant(self):
        acct = EnergyAccountant()
        node = Node("n0", power=PowerProfile(idle_watts=50.0, busy_watts_per_core=3.0))
        acct.register_node(node, on_since=1.0)
        acct.power_off("n0", at=4.0)
        acct.register_node(node, on_since=6.0)
        acct.power_off("n0", at=9.5)
        acct.power_off("n0", at=11.0)  # already off: no effect
        acct.register_node(node, on_since=12.0)
        acct.record_busy("n0", 1.0, 3.0, cores=2)
        return acct

    @pytest.mark.parametrize(
        "horizon, on_seconds",
        [
            (0.5, 0.0),
            (1.0, 0.0),
            (2.5, 1.5),
            (4.0, 3.0),
            (5.0, 3.0),
            (7.25, 4.25),
            (10.0, 6.5),
            (12.0, 6.5),
            (13.5, 8.0),
            (1000.0, 994.5),
        ],
    )
    def test_intervals_clip_at_the_horizon(self, horizon, on_seconds):
        acct = self._accountant()
        expected = 50.0 * on_seconds + 3.0 * 4.0
        assert acct.node_energy_joules("n0", horizon) == expected
        assert acct.total_energy_joules(horizon) == expected

    def test_remove_then_readd_node_through_the_platform(self):
        platform = Platform()
        profile = PowerProfile(idle_watts=10.0, busy_watts_per_core=0.0)
        platform.add_node(Node("a", power=profile), at=0.0)
        platform.add_node(Node("b", power=profile), at=2.0)
        platform.remove_node("a", at=3.0)
        platform.add_node(Node("a", power=profile), at=5.0)
        platform.fail_node("b", at=6.0)
        energy = platform.energy
        assert energy.node_energy_joules("a", 8.0) == 10.0 * (3.0 + 3.0)
        assert energy.node_energy_joules("b", 8.0) == 10.0 * 4.0
        assert energy.total_energy_joules(8.0) == 100.0
        assert energy.total_energy_joules(4.0) == 10.0 * 3.0 + 10.0 * 2.0

    def test_never_registered_name_costs_nothing(self):
        acct = self._accountant()
        assert acct.node_energy_joules("ghost", 100.0) == 0.0
        acct.power_off("ghost", at=1.0)
        acct.record_busy("ghost", 0.0, 2.0, cores=4)
        assert acct.node_energy_joules("ghost", 100.0) == 0.0
        assert acct.busy_core_seconds("ghost") == 8.0
