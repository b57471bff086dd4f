"""E1 — GUIDANCE strong scaling (claim C1).

Paper: "The application has been executed with up to 100 nodes of the
Marenostrum supercomputer (4800 cores), showing good scalability."

Regenerates the scaling curve: the synthetic GUIDANCE DAG on a simulated
MareNostrum, nodes ∈ {1..100} (48 cores each).  Expected shape: near-linear
speedup that flattens somewhat at 100 nodes but stays clearly "good"
(parallel efficiency well above 50%).
"""

import sys

from _common import print_table, run_once

from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.scheduling import LoadBalancingPolicy
from repro.workloads import GuidanceConfig, build_guidance_workflow

NODE_COUNTS = [1, 4, 16, 48, 100]

# 22 chromosomes x 224 chunks x 4 stages (+ merges) ~= 19.7k simulated tasks
# and ~4.9k-wide imputation waves — enough concurrency to load 4800 cores,
# the proportional miniature of GUIDANCE's 1-3M tasks.
CHUNKS_PER_CHROMOSOME = 224


def run_point(nodes: int):
    workload = build_guidance_workflow(
        GuidanceConfig(chromosomes=22, chunks_per_chromosome=CHUNKS_PER_CHROMOSOME)
    )
    platform = make_hpc_cluster(nodes)
    executor = SimulatedExecutor(
        workload.graph,
        platform,
        policy=LoadBalancingPolicy(),
        initial_data=workload.initial_data,
    )
    report = executor.run()
    return executor.log, platform, report


def run_sweep():
    results = {}
    logs = {}
    for nodes in NODE_COUNTS:
        log, platform, report = run_point(nodes)
        results[nodes] = report
        logs[nodes] = (log, platform.total_cores)
    return results, logs


def test_guidance_strong_scaling(benchmark):
    results, logs = run_once(benchmark, run_sweep)
    base = results[1].makespan
    rows = []
    for nodes in NODE_COUNTS:
        report = results[nodes]
        speedup = base / report.makespan
        efficiency = speedup / nodes
        util = logs[nodes][0].utilization(logs[nodes][1])
        rows.append(
            (nodes, nodes * 48, report.makespan / 3600, speedup, efficiency, util)
        )
    print_table(
        "E1: GUIDANCE strong scaling (paper: 'good scalability' up to 100 nodes)",
        ["nodes", "cores", "makespan_h", "speedup", "efficiency", "utilization"],
        rows,
    )
    sys.stdout.flush()

    # Shape assertions: monotone speedup, near-linear at small scale, and
    # still "good" (>50% efficiency) at the paper's 100-node point.
    speedups = [base / results[n].makespan for n in NODE_COUNTS]
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    assert speedups[NODE_COUNTS.index(4)] > 0.75 * 4
    assert speedups[-1] > 0.5 * 100
    assert all(results[n].tasks_done == results[1].tasks_done for n in NODE_COUNTS)
