"""Workload generators (DESIGN.md S13): the paper's case studies, scaled.

Synthetic equivalents of the applications the paper evaluates the COMPSs
model on — the substitution rule in action (DESIGN.md §2): the DAG shapes,
duration distributions and memory demands follow §VI-A's description, while
absolute magnitudes are scaled to simulate quickly.

What the front doors need to know about a workload — its config dataclass,
its options (one word as scenario key and as flag, defaulted from the
config) and how to build or run it — is one :class:`Workload` record in
:data:`WORKLOADS` (:mod:`repro.workloads.table`): registering a record is all
it takes for ``repro simulate`` / ``analyze`` / ``timeline`` / ``sweep`` to
know a new workload.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "WORKLOADS": "table",
        "Workload": "table",
        "WorkloadError": "table",
        "ChurnConfig": "churn",
        "HybridStreamConfig": "hybrid_stream",
        "make_hybrid_stream_programs": "hybrid_stream",
        "run_hybrid_stream": "hybrid_stream",
        "make_churn_programs": "churn",
        "run_churn": "churn",
        "run_churn_fleet": "churn",
        "GuidanceConfig": "guidance",
        "GuidanceWorkload": "guidance",
        "build_guidance_workflow": "guidance",
        "NmmbConfig": "nmmb",
        "build_nmmb_workflow": "nmmb",
        "embarrassingly_parallel": "synthetic",
        "task_chain": "synthetic",
        "fork_join_dag": "synthetic",
        "layered_random_dag": "synthetic",
        "ZonalConfig": "zonal",
        "make_zonal_network": "zonal",
        "make_zone_programs": "zonal",
        "run_zonal": "zonal",
        "zone_name": "zones",
    },
)
