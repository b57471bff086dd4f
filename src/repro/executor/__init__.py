"""Execution backends (DESIGN.md S5/S6-facing).

Two backends share the scheduler and graph machinery:

* :class:`LocalExecutor` really runs Python callables on a thread pool with
  per-node core/memory accounting — the backend behind the public API;
* :class:`SimulatedExecutor` advances a discrete-event clock over task
  profiles — the substitute for the paper's physical testbeds.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "LocalExecutor": "local",
        "SimulatedExecutor": "simulated",
        "SimulationReport": "simulated",
        "SimWorkflowBuilder": "workflow_builder",
    },
)
