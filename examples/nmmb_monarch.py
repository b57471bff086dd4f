"""NMMB-Monarch weather workflow (paper §VI-A, claim C3).

Run:  python examples/nmmb_monarch.py

Simulates the five-step chemical weather prediction workflow — init scripts,
preprocessing, an MPI gang simulation spanning several nodes, postprocessing
and archiving — for a multi-day forecast on a simulated cluster, comparing
the original driver (sequential init scripts) against the PyCOMPSs port
(init scripts parallelized by the task runtime).
"""

from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.workloads import NmmbConfig, build_nmmb_workflow


def run(days, sequential_init):
    config = NmmbConfig(
        days=days,
        init_scripts=12,
        sequential_init=sequential_init,
        mpi_nodes=4,
    )
    builder = build_nmmb_workflow(config)
    platform = make_hpc_cluster(6)
    executor = SimulatedExecutor(
        builder.graph, platform, initial_data=builder.initial_data
    )
    report = executor.run()
    return executor.log, report, platform


def main():
    print("NMMB-Monarch forecast: sequential-init driver vs PyCOMPSs port")
    print(f"{'days':>5} {'sequential':>12} {'pycompss':>12} {'speedup':>8}")
    for days in (1, 2, 4, 8):
        _, seq_report, _ = run(days, sequential_init=True)
        _, par_report, _ = run(days, sequential_init=False)
        speedup = seq_report.makespan / par_report.makespan
        print(
            f"{days:>5} {seq_report.makespan / 3600:>11.2f}h "
            f"{par_report.makespan / 3600:>11.2f}h {speedup:>7.2f}x"
        )

    print("\nDetailed 4-day run (PyCOMPSs port):")
    log, report, platform = run(4, sequential_init=False)
    print(f"  tasks executed   : {report.tasks_done}")
    print(f"  makespan         : {report.makespan / 3600:.2f}h")
    print(f"  data moved       : {report.bytes_transferred / 1e9:.1f} GB")
    print(f"  energy           : {report.energy_joules / 3.6e6:.1f} kWh")
    print(f"  core utilization : {log.utilization(platform.total_cores):.1%}")
    print("  (MPI simulation steps co-allocate 4 x 48-core nodes each)")


if __name__ == "__main__":
    main()
