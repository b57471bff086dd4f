"""A dead agent is retired: the bus, platform and energy meter keep only what
its death leaves behind (E16 soak).

When the bus kills an agent, the ``Agent`` leaves the bus registry, its
``Node`` leaves the platform, and the energy meter keeps the node's power
model and on-intervals, not the node.  Only a tombstone (name -> node name)
stays on the bus.  These tests pin that contract: a retired name stays
taken, killing it again is a no-op, a message to it is still priced and
dropped after the same delay, and after many deaths nothing holds an
``Agent`` or a ``Node`` of the dead.
"""

import gc
import weakref

import pytest

from repro.agents import Agent, MessageBus
from repro.agents.messages import Message, Op
from repro.core.exceptions import AgentError
from repro.infrastructure import Platform
from repro.infrastructure.network import Link, NetworkTopology
from repro.infrastructure.resources import Node, PowerProfile
from repro.simulation import SimulationEngine

_POWER = PowerProfile(idle_watts=2.0, busy_watts_per_core=3.0)


def _fleet(workers=4):
    """``workers`` agents alternating over two zones joined by a slow link."""
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=2e-3, bandwidth_bps=1e6),
        default_link=Link(latency_s=0.5, bandwidth_bps=1e6),
    )
    platform = Platform(network=network)
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    for i in range(workers):
        name = f"w{i}"
        platform.add_node(Node(name, cores=2, power=_POWER), zone=f"z{i % 2}")
        Agent(name, name, bus)
    return platform, engine, bus


class TestTombstone:
    def test_a_retired_name_cannot_be_registered_again(self):
        platform, _engine, bus = _fleet(2)
        bus.kill_now("w1")
        assert not bus.is_alive("w1") and not platform.has_node("w1")
        # The node name is free again on the platform; the agent name is not.
        platform.add_node(Node("w1", power=_POWER), zone="z1")
        with pytest.raises(AgentError, match="already registered"):
            Agent("w1", "w1", bus)
        with pytest.raises(AgentError, match="already registered"):
            Agent("w1", "w0", bus)

    def test_killing_a_retired_agent_is_a_no_op(self):
        _platform, engine, bus = _fleet(2)
        bus.kill_now("w1")
        bus.kill_now("w1")
        bus.kill_agent("w1", at=1.0)
        engine.run()
        assert bus.deaths == 1 and bus.alive_agents == ["w0"]
        with pytest.raises(AgentError, match="unknown agent 'ghost'"):
            bus.kill_agent("ghost", at=2.0)

    def test_a_retired_agent_reads_as_retired_not_unknown(self):
        _platform, _engine, bus = _fleet(2)
        bus.kill_now("w1")
        with pytest.raises(AgentError, match="retired agent 'w1'"):
            bus.agent("w1")
        with pytest.raises(AgentError, match="unknown agent 'ghost'"):
            bus.agent("ghost")
        assert bus.zone_of_agent("w1") == "z1"

    @pytest.mark.parametrize("retire", [False, True])
    def test_a_message_to_a_retired_agent_is_priced_and_dropped_on_time(self, retire):
        platform, engine, bus = _fleet(2)
        if retire:
            bus.kill_now("w1")
        message = Message(
            op=Op.STATUS_REPLY, sender="w0", recipient="w1", payload_bytes=4e4
        )
        bus.send(message)
        assert bus.messages_sent == 1 and bus.bytes_sent == 4e4
        engine.run()
        # Cross-zone: 0.5 s latency plus 4e4 B at 1e6 B/s, either way.
        assert engine.now == pytest.approx(0.54)
        assert engine.now == platform.network.transfer_time("w0", "w1", 4e4)
        assert bus.dropped_count == (1 if retire else 0)
        if retire:
            assert list(bus.dropped_messages) == [message]

    def test_a_retired_sender_is_priced_from_its_node(self):
        _platform, engine, bus = _fleet(2)
        bus.kill_now("w0")
        bus.send(Message(op=Op.STATUS_REPLY, sender="w0", recipient="w1"))
        engine.run()
        assert bus.messages_sent == 1 and bus.dropped_count == 0
        with pytest.raises(AgentError, match="unknown sender"):
            bus.send(Message(op=Op.STATUS_REPLY, sender="ghost", recipient="w1"))
        with pytest.raises(AgentError, match="unknown recipient"):
            bus.send(Message(op=Op.STATUS_REPLY, sender="w1", recipient="ghost"))

    def test_watching_a_retired_agent_records_nothing(self):
        _platform, engine, bus = _fleet(3)
        bus.kill_now("w2")
        bus.watch("w0", "w2")
        bus.watch("w2", "w1")  # a retired watcher is never notified
        bus.kill_now("w1")
        engine.run()
        assert bus.down_notices == 0
        assert set(bus._interest) <= set(bus.alive_agents)
        with pytest.raises(AgentError, match="unknown watch target"):
            bus.watch("w0", "ghost")


class TestNothingOfTheDeadIsHeld:
    def test_after_many_deaths_no_agent_or_node_of_the_dead_is_alive(self):
        platform, engine, bus = _fleet(40)
        dead = [f"w{i}" for i in range(0, 40, 4)] + [f"w{i}" for i in range(1, 40, 4)]
        refs = [weakref.ref(bus.agent(name)) for name in dead]
        refs += [weakref.ref(platform.node(name)) for name in dead]
        # Traffic to, from and between the doomed: interest sets, in-flight
        # deliveries and AGENT_DOWN notices all name them.
        for i, name in enumerate(dead):
            peer = f"w{(i * 7 + 2) % 40}"
            bus.send(Message(op=Op.STATUS_REPLY, sender=name, recipient=peer))
            bus.send(Message(op=Op.STATUS_REPLY, sender=peer, recipient=name))
        for i, name in enumerate(dead):
            if i % 2:
                bus.kill_now(name)
            else:
                bus.kill_agent(name, at=0.001 * i)
        engine.run()
        gc.collect()
        assert bus.deaths == len(dead) and bus.alive_count == 40 - len(dead)
        assert [ref for ref in refs if ref() is not None] == []
        assert set(bus._agents) == set(bus.alive_agents)
        assert set(bus._interest) <= set(bus.alive_agents)
        assert all(not platform.has_node(name) for name in dead)
        assert platform.alive_count == len(platform.nodes) == 40 - len(dead)

    def test_the_energy_of_a_retired_node_is_still_counted(self):
        platform, engine, bus = _fleet(2)
        bus.kill_agent("w1", at=10.0)
        engine.run()
        energy = platform.energy
        # Idle power from t = 0 to its death, whatever the horizon.
        assert energy.node_energy_joules("w1", 100.0) == 2.0 * 10.0
        assert energy.node_energy_joules("w0", 100.0) == 2.0 * 100.0
        assert energy.total_energy_joules(100.0) == 2.0 * 110.0
        assert energy.node_energy_joules("ghost", 100.0) == 0.0
