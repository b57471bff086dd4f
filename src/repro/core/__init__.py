"""Core task-based programming model (DESIGN.md S1–S3).

This package implements the PyCOMPSs-facing surface of the paper: the
``@task`` decorator with parameter directions, ``@constraint`` resource
annotations (including dynamically-evaluated memory constraints, claim C2),
futures, the Access Processor that turns a sequential-looking program into a
dynamic dependency graph, and the runtime facade that drives schedulers and
execution backends.

Importing the package loads none of it: each name's submodule loads on first
use, so the graph and the task model (what the simulator and ``@task``
need) come without the Access Processor, the content-key compiler or the
runtime facade.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "Direction": "parameter",
        "Parameter": "parameter",
        "IN": "parameter",
        "OUT": "parameter",
        "INOUT": "parameter",
        "FILE_IN": "parameter",
        "FILE_OUT": "parameter",
        "FILE_INOUT": "parameter",
        "Future": "futures",
        "ReproError": "exceptions",
        "TaskFailedError": "exceptions",
        "RuntimeNotStartedError": "exceptions",
        "ConstraintUnsatisfiableError": "exceptions",
        "ResourceConstraints": "constraints",
        "constraint": "constraints",
        "task": "task_definition",
        "TaskDefinition": "task_definition",
        "TaskGraph": "graph",
        "TaskInstance": "graph",
        "TaskState": "graph",
        "Runtime": "runtime",
        "compss_wait_on": "runtime",
        "compss_barrier": "runtime",
        "compss_open": "runtime",
        "compss_delete_object": "runtime",
        "start_runtime": "runtime",
        "stop_runtime": "runtime",
        "get_runtime": "runtime",
    },
)
