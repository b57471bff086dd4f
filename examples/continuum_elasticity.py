"""Elasticity across the continuum: clouds and SLURM (claim C6).

Run:  python examples/continuum_elasticity.py

Drives the same bursty workload through three resource-management regimes —
a fixed cluster, an elastic cloud provider that boots VMs under backlog and
releases idle ones, and a SLURM allocation that grows mid-job — printing the
makespan/cost trade-off of each.
"""

from repro.executor import SimulatedExecutor
from repro.infrastructure import (
    CloudProvider,
    ElasticityPolicy,
    SlurmManager,
    make_hpc_cluster,
)
from repro.infrastructure.cloud import VmTemplate
from repro.simulation import SimulationEngine
from repro.workloads import embarrassingly_parallel

BURST = 240
TASK_S = 30.0


def run_fixed():
    builder = embarrassingly_parallel(BURST, duration=TASK_S)
    platform = make_hpc_cluster(1, cores_per_node=8)
    report = SimulatedExecutor(builder.graph, platform).run()
    return report.makespan, 0.0


def run_cloud_elastic():
    builder = embarrassingly_parallel(BURST, duration=TASK_S)
    platform = make_hpc_cluster(1, cores_per_node=8)
    engine = SimulationEngine()
    executor = SimulatedExecutor(builder.graph, platform, engine=engine)
    cloud = CloudProvider(
        platform, engine, startup_delay_s=60.0,
        cost_per_node_second=0.0001, template=VmTemplate(cores=16), max_nodes=8,
    )
    policy = ElasticityPolicy(
        cloud,
        engine,
        backlog_fn=lambda: executor.graph.ready_count,
        idle_nodes_fn=lambda: [
            name for name in cloud.active_nodes
            if executor.scheduler.ledger.has_node(name)
            and executor.scheduler.ledger.state(name).idle
        ],
        period_s=15.0,
        scale_out_backlog=1.0,
    )
    policy.start()
    report = executor.run()
    policy.stop()
    cloud.shutdown()
    return report.makespan, cloud.total_cost


def run_slurm_growing():
    platform = make_hpc_cluster(8, cores_per_node=8)
    engine = SimulationEngine()
    slurm = SlurmManager(platform, engine)
    result = {}

    def on_start(job):
        # Run the burst inside the allocation; ask for more nodes when the
        # backlog is obvious (a COMPSs runtime would do this automatically).
        builder = embarrassingly_parallel(BURST, duration=TASK_S)
        allocation = Platform_from_allocation(platform, job.allocated, engine)
        executor = SimulatedExecutor(builder.graph, allocation, engine=engine)
        result["executor"] = executor
        executor._request_dispatch()
        slurm.request_grow(job.job_id, 4)

    def on_grow(job, new_nodes):
        for name in new_nodes:
            node = platform.node(name)
            result["executor"].platform.add_node(
                _clone_node(node), at=engine.now
            )

    slurm.submit(2, on_start=on_start, on_grow=on_grow)
    engine.run()
    report_graph = result["executor"].graph
    makespan = max(t.end_time for t in report_graph.tasks if t.end_time is not None)
    return makespan, 0.0


def Platform_from_allocation(platform, node_names, engine):
    """A sub-platform exposing only the job's allocated nodes."""
    from repro.infrastructure import Platform

    allocation = Platform(name="allocation", network=platform.network)
    for name in node_names:
        allocation.add_node(_clone_node(platform.node(name)), at=engine.now)
    return allocation


def _clone_node(node):
    from dataclasses import replace

    return replace(node, name=f"alloc-{node.name}")


def main():
    print(f"Bursty workload: {BURST} x {TASK_S:.0f}s tasks\n")
    rows = [
        ("fixed 1x8 cores", *run_fixed()),
        ("elastic cloud", *run_cloud_elastic()),
        ("SLURM job, 2->6 nodes", *run_slurm_growing()),
    ]
    print(f"{'regime':<24} {'makespan':>12} {'cloud cost':>12}")
    for name, makespan, cost in rows:
        print(f"{name:<24} {makespan / 60:>10.1f}min {cost:>12.4f}")
    print("\nElasticity tracks the burst; SLURM growth widens a running job.")


if __name__ == "__main__":
    main()
