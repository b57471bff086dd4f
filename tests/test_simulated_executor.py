"""Integration tests for the discrete-event execution backend."""

import pytest

from repro.core.data import reader_ids
from repro.core.graph import SimProfile, TaskInstance, TaskState
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster, make_fog_platform
from repro.scheduling import (
    DataLocationService,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
)
from repro.workloads.guidance import GuidanceConfig, build_guidance_workflow


def test_single_task_makespan():
    builder = SimWorkflowBuilder()
    builder.add_task("t", duration=10.0)
    platform = make_hpc_cluster(1, cores_per_node=4)
    report = SimulatedExecutor(builder.graph, platform).run()
    assert report.makespan == pytest.approx(10.0)
    assert report.tasks_done == 1


def test_independent_tasks_run_in_parallel():
    builder = SimWorkflowBuilder()
    for i in range(4):
        builder.add_task(f"t{i}", duration=10.0)
    platform = make_hpc_cluster(1, cores_per_node=4)
    report = SimulatedExecutor(builder.graph, platform).run()
    # Four 1-core tasks on a 4-core node: perfectly parallel.
    assert report.makespan == pytest.approx(10.0)
    assert report.tasks_done == 4


def test_serial_chain_accumulates_time():
    builder = SimWorkflowBuilder()
    builder.add_task("a", duration=5.0, outputs={"x": 100.0})
    builder.add_task("b", duration=5.0, inputs=["x"], outputs={"y": 100.0})
    builder.add_task("c", duration=5.0, inputs=["y"])
    platform = make_hpc_cluster(2, cores_per_node=4)
    report = SimulatedExecutor(builder.graph, platform).run()
    assert report.makespan >= 15.0
    assert report.tasks_done == 3


def test_core_capacity_serializes_excess_tasks():
    builder = SimWorkflowBuilder()
    for i in range(8):
        builder.add_task(f"t{i}", duration=10.0)
    platform = make_hpc_cluster(1, cores_per_node=4)
    report = SimulatedExecutor(builder.graph, platform).run()
    # 8 tasks, 4 cores: two waves.
    assert report.makespan == pytest.approx(20.0)


def test_memory_constraint_limits_packing():
    builder = SimWorkflowBuilder()
    # Node has 96 GB; each task wants 48 GB -> at most 2 in flight even
    # though 48 cores are free.
    for i in range(4):
        builder.add_task(f"big{i}", duration=10.0, memory_mb=48_000)
    platform = make_hpc_cluster(1)
    report = SimulatedExecutor(builder.graph, platform).run()
    assert report.makespan == pytest.approx(20.0)


def test_gang_task_spans_nodes():
    builder = SimWorkflowBuilder()
    builder.add_task("mpi", duration=30.0, cores=48, nodes=4, software=["mpi"])
    platform = make_hpc_cluster(4)
    report = SimulatedExecutor(builder.graph, platform).run()
    assert report.makespan == pytest.approx(30.0)
    # All four nodes were fully busy for the gang task.
    assert len(report.per_node_busy_seconds) == 4


def test_slow_node_stretches_duration():
    builder = SimWorkflowBuilder()
    builder.add_task("t", duration=10.0)
    platform = make_fog_platform(num_edge=0, num_fog=1, num_cloud=0)
    report = SimulatedExecutor(builder.graph, platform).run()
    # Fog node speed factor is 0.25.
    assert report.makespan == pytest.approx(40.0)


def test_transfer_time_charged_for_remote_inputs():
    builder = SimWorkflowBuilder()
    builder.add_initial_datum("input", 1e9)
    builder.add_task("consume", duration=1.0, inputs=["input"])
    platform = make_hpc_cluster(2)
    locations = DataLocationService()
    # Pin the input on node 1, force the task onto node 0 via FIFO order.
    executor = SimulatedExecutor(
        builder.graph,
        platform,
        policy=FifoPolicy(),
        locations=locations,
        initial_data=builder.initial_data,
        initial_data_nodes={"input": platform.nodes[1].name},
    )
    report = executor.run()
    # 1 GB over 100 Gbit/s fabric = 0.08 s + latency, plus 1 s compute.
    assert report.makespan > 1.0
    assert report.bytes_transferred == pytest.approx(1e9)
    assert report.remote_transfers == 1


@pytest.mark.parametrize("inputs", [["a", "b"], ["a", "a", "b", "a"]])
def test_an_input_named_twice_is_read_and_fetched_once(inputs):
    builder = SimWorkflowBuilder()
    builder.add_initial_datum("a", 1e6)
    builder.add_initial_datum("b", 5.0)
    task = builder.add_task("t", 1.0, inputs=inputs)
    assert task.reads == ("a", "b")
    assert task.profile.input_bytes == 1e6 + 5.0
    assert reader_ids(builder._data["a"]) == (task.task_id,)
    platform = make_hpc_cluster(2)
    report = SimulatedExecutor(
        builder.graph,
        platform,
        policy=FifoPolicy(),
        initial_data=builder.initial_data,
        initial_data_nodes={"a": platform.nodes[1].name, "b": platform.nodes[0].name},
    ).run()
    assert report.bytes_transferred == 1e6
    assert report.remote_transfers == 1


def test_locality_policy_avoids_transfer():
    def build():
        builder = SimWorkflowBuilder()
        builder.add_initial_datum("input", 1e9)
        builder.add_task("consume", duration=1.0, inputs=["input"])
        return builder

    platform_fifo = make_hpc_cluster(2)
    b1 = build()
    fifo_report = SimulatedExecutor(
        b1.graph,
        platform_fifo,
        policy=FifoPolicy(),
        initial_data=b1.initial_data,
        initial_data_nodes={"input": platform_fifo.nodes[1].name},
    ).run()

    platform_loc = make_hpc_cluster(2)
    b2 = build()
    locations = DataLocationService()
    loc_report = SimulatedExecutor(
        b2.graph,
        platform_loc,
        policy=LocalityPolicy(locations),
        locations=locations,
        initial_data=b2.initial_data,
        initial_data_nodes={"input": platform_loc.nodes[1].name},
    ).run()

    assert loc_report.bytes_transferred == 0.0
    assert fifo_report.bytes_transferred > 0.0
    assert loc_report.makespan < fifo_report.makespan


def test_node_failure_requeues_running_task():
    builder = SimWorkflowBuilder()
    builder.add_task("long", duration=100.0)
    platform = make_hpc_cluster(2, cores_per_node=4)
    executor = SimulatedExecutor(builder.graph, platform, policy=FifoPolicy())
    # Node 0 (FIFO pick) dies mid-task.
    executor.fail_node_at(50.0, platform.nodes[0].name)
    report = executor.run()
    assert report.tasks_done == 1
    assert report.resubmissions == 1
    # Restarted at t=50 on the surviving node: finishes at 150.
    assert report.makespan == pytest.approx(150.0)


def test_first_attempts_completion_does_not_end_the_requeued_second():
    # Nothing cancels the completion of an attempt a node failure ends: it
    # fires at t=10 while the second attempt, restarted at t=5 on the
    # surviving node, still runs, and must leave it running until 5 + 10.
    builder = SimWorkflowBuilder()
    for index in range(8):
        builder.add_task(f"t{index}", 10.0, outputs={f"t{index}": 1e6})
    platform = make_hpc_cluster(2)
    executor = SimulatedExecutor(builder.graph, platform)
    victim, survivor = (node.name for node in platform.nodes)
    executor.fail_node_at(5.0, victim)
    report = executor.run()
    requeued = [t for t in builder.graph.tasks if t.attempts == 2]
    assert report.tasks_done == 8 and report.resubmissions == len(requeued) > 0
    for task in requeued:
        assert task.assigned_nodes == (survivor,)
        assert (task.start_time, task.end_time) == (5.0, 15.0)
    assert report.makespan == 15.0
    # Each stale completion dispatches as a no-op event: two dispatch
    # passes, the failure and 8 + len(requeued) completions.
    assert executor.engine.dispatched_events == 3 + 8 + len(requeued)


def test_failure_without_surviving_copy_fails_workflow():
    builder = SimWorkflowBuilder()
    produce = builder.add_task("produce", duration=10.0, outputs={"x": 1e6})
    slow_sibling = builder.add_task("slow_sibling", duration=200.0)
    consume = builder.add_task("consume", duration=10.0, inputs=["x"], depends_on=())
    platform = make_hpc_cluster(2, cores_per_node=1)
    executor = SimulatedExecutor(builder.graph, platform, policy=FifoPolicy())
    # "produce" runs on node 0 and finishes at t=10; its output only lives
    # there, so "consume" starts on node 0 at once.  Node 0 dies at t=15
    # mid-run: the victim's input went with the node, so it is failed
    # where it ran instead of being resubmitted.
    node0 = platform.nodes[0].name
    executor.fail_node_at(15.0, node0)
    report = executor.run(until=1_000.0)
    assert produce.state is TaskState.DONE
    assert slow_sibling.state is TaskState.DONE
    assert consume.state is TaskState.FAILED
    assert consume.assigned_nodes == (node0,)
    assert (consume.start_time, consume.end_time) == (10.0, 15.0)
    assert (report.tasks_done, report.tasks_failed, report.tasks_cancelled) == (2, 1, 0)
    assert report.resubmissions == 0
    assert report.makespan == 200.0


def test_lost_reader_fails_when_it_becomes_ready():
    # "R" reads "x", whose only copy dies with node 0 at t=15; it becomes
    # ready with W1 and W2 at t=100, when the one surviving core goes to
    # W1.  The loss rule fails it at its readiness instant, not when a
    # later pass first reaches it (t=110, once W1 frees the core).
    builder = SimWorkflowBuilder()
    builder.add_task("P", duration=10.0, outputs={"x": 1e6})
    long = builder.add_task("L", duration=100.0)
    w1 = builder.add_task("W1", duration=10.0, depends_on=[long.task_id])
    reader = builder.add_task("R", duration=10.0, inputs=["x"], depends_on=[long.task_id])
    w2 = builder.add_task("W2", duration=10.0, depends_on=[long.task_id])
    platform = make_hpc_cluster(2, cores_per_node=1)
    executor = SimulatedExecutor(builder.graph, platform, policy=FifoPolicy())
    executor.fail_node_at(15.0, platform.nodes[0].name)
    report = executor.run()
    assert reader.state is TaskState.FAILED
    assert reader.start_time is None
    assert reader.end_time == 100.0
    assert (w1.start_time, w2.start_time) == (100.0, 110.0)
    assert (report.tasks_done, report.tasks_failed, report.makespan) == (4, 1, 120.0)


def test_lost_reader_is_failed_at_prime_and_on_submission():
    # A location service handed in already holding lost data, and a reader
    # of it submitted mid-run: neither ever waits in the ready queue.
    locations = DataLocationService()
    locations.publish("x", "gone", size_bytes=1e6)
    locations.evict_node("gone")
    builder = SimWorkflowBuilder()
    builder.add_initial_datum("x", 1e6)
    reader = builder.add_task("reader", duration=10.0, inputs=["x"])
    other = builder.add_task("other", duration=10.0)
    executor = SimulatedExecutor(
        builder.graph, make_hpc_cluster(1), policy=FifoPolicy(), locations=locations
    )
    late = TaskInstance(
        task_id=99, label="late", reads=("x",), profile=SimProfile(duration_s=10.0)
    )
    executor.engine.at(5.0, lambda: executor.submit_tasks([(late, ())]))
    report = executor.run()
    assert (reader.state, reader.end_time) == (TaskState.FAILED, 0.0)
    assert (late.state, late.end_time) == (TaskState.FAILED, 5.0)
    assert other.state is TaskState.DONE
    assert (report.tasks_done, report.tasks_failed, report.makespan) == (1, 2, 10.0)


def test_blocked_prefix_replays_while_data_is_lost():
    # Lost data is not a placement mode: with no ready task reading lost
    # data, the pass keeps replaying its blocked prefix after the failure.
    workload = build_guidance_workflow(GuidanceConfig(chromosomes=22, chunks_per_chromosome=24))
    platform = make_hpc_cluster(100)
    locations = DataLocationService()
    executor = SimulatedExecutor(
        workload.graph,
        platform,
        policy=LoadBalancingPolicy(),
        locations=locations,
        initial_data=workload.initial_data,
    )
    ledger = executor.scheduler.ledger
    grown_since = ledger.grown_since
    replays_while_lost = []

    def spy(seq):
        if locations.has_lost_data:
            replays_while_lost.append(len(executor._placement.prefix))
        return grown_since(seq)

    ledger.grown_since = spy
    executor.fail_node_at(60.0, platform.nodes[0].name)
    report = executor.run()
    assert report.tasks_failed > 0 and locations.has_lost_data
    assert replays_while_lost and min(replays_while_lost) > 0


@pytest.mark.parametrize("window", [0, -1])
def test_dispatch_window_below_one_is_refused(window):
    builder = SimWorkflowBuilder()
    builder.add_task("t", duration=1.0)
    with pytest.raises(ValueError, match=f"got {window}"):
        SimulatedExecutor(builder.graph, make_hpc_cluster(1), dispatch_window=window)


def test_energy_accounting_positive_and_monotone_with_work():
    small = SimWorkflowBuilder()
    small.add_task("t", duration=10.0)
    big = SimWorkflowBuilder()
    for i in range(10):
        big.add_task(f"t{i}", duration=10.0)

    p1 = make_hpc_cluster(1, cores_per_node=48)
    r1 = SimulatedExecutor(small.graph, p1).run()
    p2 = make_hpc_cluster(1, cores_per_node=48)
    r2 = SimulatedExecutor(big.graph, p2).run()
    assert r1.energy_joules > 0
    assert r2.energy_joules > r1.energy_joules


def test_deterministic_repeat_runs():
    def run_once():
        builder = SimWorkflowBuilder()
        prev = None
        for i in range(50):
            outputs = {f"d{i}": 1e6}
            inputs = [f"d{i-1}"] if i > 0 else []
            builder.add_task(f"t{i}", duration=1.0 + (i % 7), inputs=inputs, outputs=outputs)
        platform = make_hpc_cluster(3)
        return SimulatedExecutor(
            builder.graph, platform, policy=LoadBalancingPolicy()
        ).run()

    r1, r2 = run_once(), run_once()
    assert r1.makespan == r2.makespan
    assert r1.bytes_transferred == r2.bytes_transferred
