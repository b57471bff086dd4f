"""Tests for web services on agents (§VI-A task type 4 and app-as-a-service)."""

import pytest

from repro.agents import Agent, MessageBus, NeverOffload, publish_application_service
from repro.core.exceptions import AgentError
from repro.executor import SimWorkflowBuilder
from repro.infrastructure import make_fog_platform
from repro.simulation import SimulationEngine


def make_stack():
    platform = make_fog_platform(num_edge=0, num_fog=2, num_cloud=1)
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    agents = {
        name: Agent(name, name, bus) for name in ("fog-0", "fog-1", "cloud-0")
    }
    return platform, engine, bus, agents


class TestServiceInvocation:
    def test_publish_and_invoke_roundtrip(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service(
            "classify", handler=lambda x: {"label": "anomaly" if x > 1 else "ok"},
            compute_time_s=2.0,
        )
        replies = []
        agents["fog-0"].invoke_service("classify", 5, on_reply=replies.append)
        agents["fog-0"].invoke_service("classify", 0, on_reply=replies.append)
        engine.run()
        assert replies == [{"label": "anomaly"}, {"label": "ok"}]

    def test_service_work_occupies_cores(self):
        platform, engine, bus, agents = make_stack()
        # fog-1 has 4 cores; a 4-core service serializes concurrent requests.
        agents["fog-1"].publish_service(
            "heavy", handler=lambda x: x, compute_time_s=10.0, cores=4
        )
        done_at = []
        for i in range(3):
            agents["fog-0"].invoke_service(
                "heavy", i, on_reply=lambda r: done_at.append(engine.now)
            )
        engine.run()
        assert len(done_at) == 3
        # Strictly increasing completion times: requests were serialized.
        assert done_at[0] < done_at[1] < done_at[2]
        assert done_at[2] - done_at[0] >= 2 * 10.0 / agents["fog-1"].speed_factor - 1e-6

    def test_unknown_service_rejected(self):
        platform, engine, bus, agents = make_stack()
        with pytest.raises(AgentError):
            agents["fog-0"].invoke_service("ghost")

    def test_duplicate_publication_rejected(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service("svc", handler=lambda x: x)
        with pytest.raises(AgentError):
            agents["cloud-0"].publish_service("svc", handler=lambda x: x)
        # Same (service, provider) pair twice is an error ...
        with pytest.raises(AgentError):
            bus.register_service("svc", "cloud-0")
        # ... but a second provider for the same service is failover, not a
        # conflict: the registry keeps both, primary first.
        agents["fog-0"].publish_service("svc", handler=lambda x: x)
        assert bus.service_providers("svc") == ["cloud-0", "fog-0"]
        assert bus.find_service("svc") == "cloud-0"

    def test_service_failover_to_next_live_provider(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service("svc", handler=lambda x: ("cloud", x))
        agents["fog-1"].publish_service("svc", handler=lambda x: ("fog", x))
        assert bus.find_service("svc") == "cloud-0"
        bus.kill_agent("cloud-0", at=0.0)
        engine.run()
        # Deterministic failover: next live provider in registration order.
        assert bus.find_service("svc") == "fog-1"
        replies = []
        agents["fog-0"].invoke_service("svc", 7, on_reply=replies.append)
        engine.run()
        assert replies == [("fog", 7)]
        # Dead providers stay listed (diagnostics) but are never returned.
        assert bus.service_providers("svc") == ["cloud-0", "fog-1"]

    def test_dead_provider_not_discoverable(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service("svc", handler=lambda x: x)
        bus.kill_agent("cloud-0", at=0.0)
        engine.run()
        with pytest.raises(AgentError):
            agents["fog-0"].invoke_service("svc")

    def test_invocation_count_tracked(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service("svc", handler=lambda x: x)
        for i in range(4):
            agents["fog-0"].invoke_service("svc", i)
        engine.run()
        assert agents["cloud-0"].published_service("svc").invocations == 4

    def test_services_coexist_with_task_execution(self):
        platform, engine, bus, agents = make_stack()
        agents["cloud-0"].publish_service(
            "svc", handler=lambda x: x * 2, compute_time_s=1.0
        )
        builder = SimWorkflowBuilder()
        for i in range(8):
            builder.add_task(f"t{i}", duration=5.0, outputs={f"o{i}": 1e3})
        orchestrator = agents["fog-0"]
        orchestrator.start_application(builder.graph, policy=NeverOffload())
        replies = []
        agents["fog-1"].invoke_service("svc", 21, on_reply=replies.append)
        engine.run()
        assert orchestrator.report().completed
        assert replies == [42]


class TestApplicationAsAService:
    def test_workflow_behind_service_endpoint(self):
        platform, engine, bus, agents = make_stack()
        host = agents["cloud-0"]

        def graph_factory(argument):
            builder = SimWorkflowBuilder()
            for i in range(int(argument)):
                builder.add_task(f"job{i}", duration=2.0, outputs={f"o{i}": 1e3})
            return builder.graph

        publish_application_service(host, "run-campaign", graph_factory)
        accepted = []
        agents["fog-0"].invoke_service("run-campaign", 5, on_reply=accepted.append)
        engine.run()
        assert accepted == [{"accepted": True}]
        report = host.report()
        assert report.completed
        assert report.tasks_done == 5

    def test_sequential_requests_reuse_the_host(self):
        platform, engine, bus, agents = make_stack()
        host = agents["cloud-0"]

        def graph_factory(argument):
            builder = SimWorkflowBuilder()
            builder.add_task("only", duration=1.0, outputs={"o": 1e3})
            return builder.graph

        publish_application_service(host, "svc", graph_factory)
        agents["fog-0"].invoke_service("svc", None)
        engine.run()
        first_done = host.graph.completed_count
        agents["fog-0"].invoke_service("svc", None)
        engine.run()
        assert first_done == 1
        assert host.report().completed


class TestQueuedWorkIdentity:
    """Queued work compares by identity: a completion retires its own item,
    never an equal-valued sibling."""

    def test_equal_valued_work_items_are_distinct(self):
        from repro.agents.agent import _InFlight, _QueuedWork

        def item():
            return _QueuedWork(
                task_id=-7, origin="fog-0", cores=1, duration_s=1.0,
                stage_in_s=0.0, output_sizes={},
            )

        first, second = item(), item()
        assert first != second and first == first
        queue = [first, second]
        assert second in queue and item() not in queue
        queue.remove(second)
        assert queue[0] is first and len(queue) == 1
        assert first.on_complete is None
        assert _InFlight(task=None, executor="a") != _InFlight(task=None, executor="a")

    def test_equal_valued_requests_each_reply_once_in_order(self):
        from repro.agents.messages import Message, Op
        from repro.infrastructure import Platform
        from repro.infrastructure.resources import Node

        platform = Platform()
        platform.add_node(Node("client", cores=1))
        platform.add_node(Node("single", cores=1))
        engine = SimulationEngine()
        bus = MessageBus(platform, engine)
        Agent("client", "client", bus)
        provider = Agent("single", "single", bus)
        calls = []
        provider.publish_service(
            "echo", handler=lambda x: calls.append(x) or x, compute_time_s=2.0
        )
        replies = []
        deliver = bus.send

        def recording_send(message):
            if message.op is Op.SERVICE_RESPONSE:
                replies.append((engine.now, message.payload["result"]))
            deliver(message)

        bus.send = recording_send

        def request(argument):
            # Same sender, same request id, same spec: equal-valued work.
            bus.send(
                Message(
                    op=Op.SERVICE_REQUEST, sender="client", recipient="single",
                    payload={"service": "echo", "argument": argument, "request_id": 7},
                )
            )

        request("first")
        request("second")
        engine.run()
        assert calls == ["first", "second"]
        assert [result for _at, result in replies] == ["first", "second"]
        assert replies[1][0] - replies[0][0] == pytest.approx(2.0)
        assert provider.tasks_executed == 2 and provider._queue == []
        # A completion that arrives after the agent was killed is ignored.
        request("third")
        engine.run(until=engine.now + 1.0)
        assert provider._free_cores == 0
        bus.kill_now("single")
        engine.run()
        assert calls == ["first", "second"] and len(replies) == 2
        assert provider.tasks_executed == 2 and provider._free_cores == 1
