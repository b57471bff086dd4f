"""Integration tests for the discrete-event execution backend."""

import pytest

from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster, make_fog_platform
from repro.scheduling import (
    DataLocationService,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
)


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
    assert builder._data["a"].readers == [task.task_id]
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


def test_failure_without_surviving_copy_fails_workflow():
    builder = SimWorkflowBuilder()
    builder.add_task("produce", duration=10.0, outputs={"x": 1e6})
    builder.add_task("slow_sibling", duration=200.0)
    builder.add_task("consume", duration=10.0, inputs=["x"], depends_on=())
    platform = make_hpc_cluster(2, cores_per_node=1)
    executor = SimulatedExecutor(builder.graph, platform, policy=FifoPolicy())
    # "produce" runs on node 0 and finishes at t=10; its output only lives
    # there.  Node 0 dies at t=15 while "consume" has not started (node 0
    # busy? consume could start on node 0 right after produce).  Use a
    # deterministic check on the report instead of exact scheduling.
    executor.fail_node_at(15.0, platform.nodes[0].name)
    report = executor.run(until=1_000.0)
    # Either consume ran before the failure (done) or it was failed due to
    # lost data; both are valid deterministic outcomes — assert the executor
    # made an explicit decision rather than hanging.
    assert report.tasks_done + report.tasks_failed + report.tasks_cancelled == 3


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
