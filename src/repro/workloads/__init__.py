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

from repro.workloads.guidance import (
    GuidanceConfig,
    GuidanceWorkload,
    build_guidance_workflow,
)
from repro.workloads.nmmb import NmmbConfig, build_nmmb_workflow
from repro.workloads.synthetic import (
    embarrassingly_parallel,
    task_chain,
    fork_join_dag,
    layered_random_dag,
)
from repro.workloads.zonal import (
    ZonalConfig,
    make_zonal_network,
    make_zone_programs,
    run_zonal,
    zone_name,
)
from repro.workloads.churn import (
    ChurnConfig,
    make_churn_programs,
    run_churn,
    run_churn_fleet,
)
from repro.workloads.hybrid_stream import (
    HybridStreamConfig,
    make_hybrid_stream_programs,
    run_hybrid_stream,
)
from repro.workloads.table import WORKLOADS, Workload, WorkloadError

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadError",
    "ChurnConfig",
    "HybridStreamConfig",
    "make_hybrid_stream_programs",
    "run_hybrid_stream",
    "make_churn_programs",
    "run_churn",
    "run_churn_fleet",
    "GuidanceConfig",
    "GuidanceWorkload",
    "build_guidance_workflow",
    "NmmbConfig",
    "build_nmmb_workflow",
    "embarrassingly_parallel",
    "task_chain",
    "fork_join_dag",
    "layered_random_dag",
    "ZonalConfig",
    "make_zonal_network",
    "make_zone_programs",
    "run_zonal",
    "zone_name",
]
