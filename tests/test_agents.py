"""Integration tests for the fog-to-cloud COMPSs Agents (claims C5/E6/E7/E13)."""

import pytest

from repro.agents import (
    Agent,
    AlwaysOffload,
    LoadThresholdOffload,
    Message,
    MessageBus,
    NeverOffload,
    Op,
)
from repro.executor import SimWorkflowBuilder
from repro.infrastructure import make_fog_platform
from repro.simulation import SimulationEngine


def make_stack(persistence=False, num_fog=2, num_cloud=1):
    """A fog platform with one agent per fog/cloud node (+optional store)."""
    platform = make_fog_platform(num_edge=0, num_fog=num_fog, num_cloud=num_cloud)
    engine = SimulationEngine()
    bus = MessageBus(platform, engine)
    store_node = f"cloud-{num_cloud - 1}" if persistence and num_cloud else None
    agents = {}
    for i in range(num_fog):
        agents[f"fog-{i}"] = Agent(
            f"fog-{i}", f"fog-{i}", bus, persistence_store_node=store_node
        )
    for i in range(num_cloud):
        agents[f"cloud-{i}"] = Agent(
            f"cloud-{i}", f"cloud-{i}", bus, persistence_store_node=store_node
        )
    return platform, engine, bus, agents


def simple_app(num_tasks=6, duration=10.0):
    builder = SimWorkflowBuilder()
    for i in range(num_tasks):
        builder.add_task(f"t{i}", duration=duration, outputs={f"o{i}": 1e5})
    return builder


def test_local_only_application_completes():
    platform, engine, bus, agents = make_stack()
    builder = simple_app(num_tasks=4)
    orchestrator = agents["fog-0"]
    orchestrator.start_application(builder.graph, policy=NeverOffload())
    engine.run()
    report = orchestrator.report()
    assert report.completed and not report.failed
    assert report.tasks_done == 4
    assert report.executed_by == {"fog-0": 4}
    # fog node: 4 cores, speed 0.25 -> 4 parallel tasks of 10s take 40s.
    assert report.makespan == pytest.approx(40.0, rel=0.01)


def test_always_offload_sends_everything_to_cloud():
    platform, engine, bus, agents = make_stack()
    builder = simple_app(num_tasks=4)
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["cloud-0", "fog-1"]
    )
    engine.run()
    report = orchestrator.report()
    assert report.completed
    assert report.executed_by.get("cloud-0", 0) == 4


def test_threshold_offload_uses_cloud_under_load():
    platform, engine, bus, agents = make_stack()
    builder = simple_app(num_tasks=40)
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph,
        policy=LoadThresholdOffload(threshold=1.0),
        peers=["cloud-0"],
    )
    engine.run()
    report = orchestrator.report()
    assert report.completed
    assert report.executed_by.get("cloud-0", 0) > 0
    assert report.executed_by.get("fog-0", 0) > 0


def test_offloading_beats_fog_only_under_heavy_load():
    def run(policy, peers):
        platform, engine, bus, agents = make_stack()
        builder = simple_app(num_tasks=60, duration=10.0)
        orchestrator = agents["fog-0"]
        orchestrator.start_application(builder.graph, policy=policy, peers=peers)
        engine.run()
        return orchestrator.report()

    fog_only = run(NeverOffload(), [])
    offload = run(LoadThresholdOffload(threshold=1.0), ["cloud-0", "fog-1"])
    assert fog_only.completed and offload.completed
    assert offload.makespan < fog_only.makespan


def test_dependency_chain_across_agents():
    platform, engine, bus, agents = make_stack()
    builder = SimWorkflowBuilder()
    builder.add_task("a", duration=5.0, outputs={"x": 1e6})
    builder.add_task("b", duration=5.0, inputs=["x"], outputs={"y": 1e6})
    builder.add_task("c", duration=5.0, inputs=["y"])
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["cloud-0"]
    )
    engine.run()
    report = orchestrator.report()
    assert report.completed
    assert report.tasks_done == 3


def test_worker_failure_without_persistence_fails_application():
    platform, engine, bus, agents = make_stack(persistence=False)
    builder = SimWorkflowBuilder()
    builder.add_task("produce", duration=10.0, outputs={"x": 1e6})
    builder.add_task("consume", duration=500.0, inputs=["x"])
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["cloud-0"]
    )
    # Kill the cloud worker while "consume" is running there: "x" only
    # existed on cloud-0 and was never persisted.
    bus.kill_agent("cloud-0", at=100.0)
    engine.run()
    report = orchestrator.report()
    assert report.failed
    assert not report.completed


def test_worker_failure_with_persistence_recovers():
    platform, engine, bus, agents = make_stack(persistence=True, num_fog=2, num_cloud=2)
    builder = SimWorkflowBuilder()
    builder.add_task("produce", duration=10.0, outputs={"x": 1e6})
    builder.add_task("consume", duration=500.0, inputs=["x"])
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["cloud-0"]
    )
    bus.kill_agent("cloud-0", at=100.0)
    engine.run()
    report = orchestrator.report()
    assert report.completed, getattr(orchestrator, "failure_reason", "")
    assert report.tasks_recovered == 1
    assert report.tasks_done == 2


def test_add_resources_takes_effect():
    platform, engine, bus, agents = make_stack()
    worker = agents["fog-1"]
    baseline_cores = worker.cores
    bus.send(
        Message(
            op=Op.ADD_RESOURCES,
            sender="fog-0",
            recipient="fog-1",
            payload={"cores": 4},
        )
    )
    engine.run()
    assert worker.cores == baseline_cores + 4


def test_add_resources_speeds_up_application():
    def run(extra_cores):
        platform, engine, bus, agents = make_stack()
        builder = simple_app(num_tasks=16)
        orchestrator = agents["fog-0"]
        if extra_cores:
            bus.send(
                Message(
                    op=Op.ADD_RESOURCES,
                    sender="fog-0",
                    recipient="fog-0",
                    payload={"cores": extra_cores},
                )
            )
        orchestrator.start_application(builder.graph, policy=NeverOffload())
        engine.run()
        return orchestrator.report()

    slow = run(0)
    fast = run(12)
    assert fast.makespan < slow.makespan


def test_every_op_has_a_handler_and_every_handler_an_op():
    assert set(Agent._HANDLERS) == set(Op)


def test_query_status_roundtrip():
    platform, engine, bus, agents = make_stack()
    bus.send(
        Message(op=Op.QUERY_STATUS, sender="fog-0", recipient="cloud-0")
    )
    engine.run()
    # One query + one reply crossed the bus.
    assert bus.messages_sent == 2


def test_messages_to_dead_agents_are_dropped():
    platform, engine, bus, agents = make_stack()
    bus.kill_agent("fog-1", at=0.0)
    engine.after(
        1.0,
        lambda: bus.send(
            Message(op=Op.QUERY_STATUS, sender="fog-0", recipient="fog-1")
        ),
    )
    engine.run()
    assert len(bus.dropped_messages) == 1


def test_orchestrator_death_fails_application():
    platform, engine, bus, agents = make_stack()
    builder = simple_app(num_tasks=8, duration=100.0)
    orchestrator = agents["fog-0"]
    orchestrator.start_application(builder.graph, policy=NeverOffload())
    bus.kill_agent("fog-0", at=10.0)
    engine.run()
    assert orchestrator.report().failed


def test_battery_depletion_kills_agent_and_recovery_continues():
    # A fog device with a tiny battery dies after its first few tasks; with
    # persistence the orchestrator reroutes the remaining work (the paper's
    # "disappeared for low battery" scenario).
    platform, engine, bus, agents = make_stack(persistence=True, num_fog=2, num_cloud=2)
    platform.node("fog-1").battery_joules = 300.0  # ~1-2 tasks' worth
    builder = simple_app(num_tasks=12, duration=10.0)
    orchestrator = agents["fog-0"]
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["fog-1"]
    )
    engine.run()
    report = orchestrator.report()
    assert not bus.is_alive("fog-1")
    assert report.completed, getattr(orchestrator, "failure_reason", "")
    assert report.tasks_done == 12
    assert report.tasks_recovered > 0


def test_offloaded_outputs_reach_the_worker_and_its_persist_time():
    # A described task keeps its output sizes as a column beside its
    # writes; the offload request pairs them up again, name by name.
    platform, engine, bus, agents = make_stack(persistence=True, num_cloud=2)
    outputs = {"small": 2e5, "large": 4e8}
    builder = SimWorkflowBuilder()
    builder.add_task("produce", duration=10.0, outputs=outputs)
    orchestrator, worker = agents["fog-0"], agents["cloud-0"]
    sent = []
    deliver = bus.send

    def recording_send(message):
        sent.append((engine.now, message.op, message.payload))
        deliver(message)

    bus.send = recording_send
    started = []
    handle = worker.handle

    def recording_handle(message):
        if message.op is Op.EXECUTE_TASK:
            started.append(engine.now)
        handle(message)

    worker.handle = recording_handle
    orchestrator.start_application(
        builder.graph, policy=AlwaysOffload(), peers=["cloud-0"]
    )
    engine.run()
    assert orchestrator.report().completed
    (request,) = [p for _, op, p in sent if op is Op.EXECUTE_TASK]
    ((finished, reply),) = [(t, p) for t, op, p in sent if op is Op.TASK_DONE]
    assert list(request["outputs"].items()) == list(outputs.items())
    assert list(reply["outputs"].items()) == list(outputs.items())
    assert reply["persisted"]
    assert orchestrator.homed_data() == [
        ("small", "cloud-0", 2e5), ("large", "cloud-0", 4e8)
    ]
    # The worker persists every output to the store, so its largest output
    # sets the delay; nothing is staged in.
    network = platform.network
    persist = max(
        network.transfer_time("cloud-0", "cloud-1", size) for size in outputs.values()
    )
    assert persist > network.transfer_time("cloud-0", "cloud-1", 2e5)
    assert finished - started[0] == pytest.approx(
        10.0 / worker.speed_factor + persist, rel=1e-12
    )


def test_mains_powered_agents_never_battery_die():
    platform, engine, bus, agents = make_stack()
    builder = simple_app(num_tasks=20, duration=50.0)
    orchestrator = agents["cloud-0"]
    orchestrator.start_application(builder.graph, policy=NeverOffload())
    engine.run()
    assert bus.is_alive("cloud-0")
    assert orchestrator.report().completed


class TestQueuedWorkIdentity:
    """Queued work compares by identity: a completion retires its own item,
    never an equal-valued sibling."""

    def test_equal_valued_work_items_are_distinct(self):
        from repro.agents.agent import _InFlight, _QueuedWork

        def item():
            return _QueuedWork(
                task_id=7, origin="fog-0", cores=1, duration_s=1.0,
                stage_in_s=0.0, output_sizes={},
            )

        first, second = item(), item()
        assert first != second and first == first
        queue = [first, second]
        assert second in queue and item() not in queue
        queue.remove(second)
        assert queue[0] is first and len(queue) == 1
        assert _InFlight(task=None, executor="a") != _InFlight(task=None, executor="a")

    def test_equal_valued_task_requests_each_reply_once_in_order(self):
        from repro.infrastructure import Platform
        from repro.infrastructure.resources import Node

        platform = Platform()
        platform.add_node(Node("client", cores=1))
        platform.add_node(Node("single", cores=1))
        engine = SimulationEngine()
        bus = MessageBus(platform, engine)
        Agent("client", "client", bus)
        worker = Agent("single", "single", bus)
        replies = []
        deliver = bus.send

        def recording_send(message):
            if message.op is Op.TASK_DONE:
                replies.append(engine.now)
            deliver(message)

        bus.send = recording_send

        def request():
            # Same sender, same task id, same shape: equal-valued work.
            bus.send(
                Message(
                    op=Op.EXECUTE_TASK, sender="client", recipient="single",
                    payload={
                        "task_id": 7, "origin": "client", "cores": 1,
                        "duration_s": 2.0, "inputs": [], "outputs": {},
                    },
                )
            )

        request()
        request()
        engine.run()
        assert len(replies) == 2
        assert replies[1] - replies[0] == pytest.approx(2.0)
        assert worker.tasks_executed == 2 and worker._queue == []
        # A completion that arrives after the agent was killed is ignored.
        request()
        engine.run(until=engine.now + 1.0)
        assert worker._free_cores == 0
        bus.kill_now("single")
        engine.run()
        assert len(replies) == 2
        assert worker.tasks_executed == 2 and worker._free_cores == 1
