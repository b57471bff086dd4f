"""GUIDANCE DAG on a 100-node cluster: graph, scheduler, dispatch, event queue.

The paper's million-task C1 claim at the size one repetition can afford.
``core.graph``, ``scheduling.scheduler`` / ``capacity.best_balanced``,
``executor.simulated`` dispatch and ``simulation.events`` do nearly all the
work; data movement almost none (1.7 MB files on a 100 Gbit/s fabric).
"""

from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.scheduling import LoadBalancingPolicy
from repro.workloads import GuidanceConfig, build_guidance_workflow

CHROMOSOMES = 22
NODES = 100


def setup(seed, size):
    return {
        "config": GuidanceConfig(
            chromosomes=CHROMOSOMES, chunks_per_chromosome=size["chunks"], seed=seed
        ),
        "platform": make_hpc_cluster(NODES),
    }


def run(state, phase):
    with phase("describe"):
        workload = build_guidance_workflow(state["config"])
    with phase("construct"):
        executor = SimulatedExecutor(
            workload.graph,
            state["platform"],
            policy=LoadBalancingPolicy(),
            initial_data=workload.initial_data,
        )
    with phase("run"):
        report = executor.run()
    return {"workload": workload, "executor": executor, "report": report}


def check(state, out, seconds):
    workload, report = out["workload"], out["report"]
    tasks = workload.task_count
    done = sum(1 for t in workload.graph.tasks if t.state.name == "DONE")
    failed = tasks - min(done, report.tasks_done) + report.tasks_failed
    events = out["executor"].engine.dispatched_events
    return {
        "ops": report.tasks_done,
        "attempted": tasks,
        "failed": failed,
        "described": tasks,
        "events": events,
        "digest": {
            "tasks": tasks,
            "events": events,
            "makespan": report.makespan,
            "bytes": report.bytes_transferred,
            "transfers": report.remote_transfers,
            "energy": report.energy_joules,
            "busy": sorted(report.per_node_busy_seconds.items()),
        },
        "layers": {},
    }
