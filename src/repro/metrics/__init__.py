"""Tracing and data-computing metrics (DESIGN.md S15).

Covers the paper's §VI-C research directions that are concrete enough to
build: execution traces of a simulated run — the Gantt chart and the
Paraver exports, read from ``SimulatedExecutor.log`` (a
:class:`~repro.telemetry.RunLog`, which also gives utilization) — and the
"data-computing metrics ... to compute the trade-off between the cost of
storing data generated or re-computing them" (experiment E10).
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "graph_to_dot": "dot",
        "IntermediateDatum": "data_metrics",
        "StoreAllPolicy": "data_metrics",
        "RecomputeAllPolicy": "data_metrics",
        "CostModelPolicy": "data_metrics",
        "evaluate_policy": "data_metrics",
    },
)
