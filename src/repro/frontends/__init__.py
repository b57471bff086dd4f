"""Workflow description front-ends (§II taxonomy).

The paper's state of the art distinguishes how workflows are described:
graphically (Kepler/Taverna/Galaxy), *textually* "by specifying the graph in
a textual mode" (Pegasus/ASKALON), *programmatically* (PyCOMPSs/Swift/Parsl
— the `@task` API of this library), and via *tagged scripts* processed by a
cycling engine (Cylc/Autosubmit/ecFlow).

This package adds the two non-programmatic front-ends on top of the same
graph machinery:

* :mod:`repro.frontends.text` — a Pegasus-DAX-flavoured textual format;
* :mod:`repro.frontends.suite` — an Autosubmit/Cylc-flavoured cycling suite
  (dated cycles, inter-cycle dependencies like ``sim[-1]``).
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "parse_workflow_text": "text",
        "WorkflowSyntaxError": "text",
        "CyclingSuite": "suite",
        "SuiteTask": "suite",
    },
)
