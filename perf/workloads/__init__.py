"""The eight workloads, by the names ``BENCHMARK.json`` fixes.

Each module exposes ``setup(seed, size)`` (inputs from the seed, platform
construction: counted as set-up), ``run(state, phase)`` (the timed region:
only calls into ``repro``'s public API) and
``check(state, out, seconds)`` (output checks, the ``sim_digest`` fields,
and the layer figures that phase seconds and the program's own public
``stats`` give).  ``full`` sizes fit one repetition in about two seconds on a
2-core box; ``quick`` is about a tenth of that.  A ``variant`` is a
report-only rerun with some sizes overridden: it must reproduce the
``sim_digest``, and the listed layer figures are taken from it (``source
name: reported name``).  ``threaded`` workloads run a worker thread beside
the submitter.
"""

WORKLOADS = {
    "guidance_20k": {
        "module": "guidance",
        "full": {"chunks": 227},
        "quick": {"chunks": 23},
    },
    "continuum_dag_16k": {
        "module": "continuum_dag",
        "full": {"layers": 16, "width": 1000},
        "quick": {"layers": 10, "width": 200},
    },
    "stream_1m": {
        "module": "stream",
        "full": {"elements": 1_000_000},
        "quick": {"elements": 100_000},
    },
    "storage_mixed_100k": {
        "module": "storage_mixed",
        "full": {"objects": 100_000},
        "quick": {"objects": 10_000},
    },
    "churn_20k": {
        "module": "churn",
        "full": {"agents": 20_000, "duration_s": 100.0},
        "quick": {"agents": 2_000, "duration_s": 100.0},
    },
    "zonal_4x3k": {
        "module": "zonal",
        "full": {"tasks_per_zone": 3000},
        "quick": {"tasks_per_zone": 300},
        "variants": {
            "fork": {
                "size": {"engines": ("parallel",)},
                "layers": {
                    name: name
                    for name in (
                        "simulation.parallel.fork_wall_s",
                        "simulation.parallel.fork_critical_cpu_s",
                        "simulation.parallel.coordinator_cpu_s",
                        "simulation.parallel.barrier_wait_share",
                    )
                },
            }
        },
    },
    "runtime_tasks_30k": {
        "module": "runtime_tasks",
        "threaded": True,
        "full": {"leaves": 15_000},
        "quick": {"leaves": 1_500},
        "variants": {
            "w2": {
                "size": {"workers": 2},
                "layers": {"core.runtime.drain_s": "executor.local.drain_s.w2"},
            }
        },
    },
    "tenant_reuse_48k": {
        "module": "tenant_reuse",
        "threaded": True,
        "full": {"pipelines": 600},
        "quick": {"pipelines": 60},
    },
}
