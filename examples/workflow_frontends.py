"""The §II front-end taxonomy on one workflow.

Run:  python examples/workflow_frontends.py

Describes the same three-stage analysis experiment three ways — textually
(Pegasus-style), as a cycling suite (Autosubmit/Cylc-style), and
programmatically (the PyCOMPSs-style API) — and shows all three front-ends
produce graphs the same runtime machinery executes, analyzes (workflow
model), and exports (DOT, Paraver-like traces).
"""

from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.frontends import CyclingSuite, SuiteTask, parse_workflow_text
from repro.infrastructure import make_hpc_cluster
from repro.metrics import graph_to_dot
from repro.metrics.model import analyze_graph
from repro.metrics.paraver import export_trace_csv

TEXTUAL = """
# three-stage analysis, textual description
data observations size=5e9
task calibrate duration=120 reads=observations writes=calibrated:5e9
task detect    duration=300 cores=8 reads=calibrated writes=events:1e8
task summarize duration=60  reads=events writes=catalog:1e6
"""


def textual_frontend():
    return parse_workflow_text(TEXTUAL)


def suite_frontend(cycles=3):
    suite = (
        CyclingSuite("survey")
        .add_task(SuiteTask("calibrate", duration=120.0))
        .add_task(SuiteTask("detect", duration=300.0, cores=8, depends=["calibrate"]))
        .add_task(
            SuiteTask("summarize", duration=60.0, depends=["detect", "summarize[-1]"])
        )
    )
    return suite.expand(cycles)


def programmatic_frontend():
    builder = SimWorkflowBuilder()
    builder.add_initial_datum("observations", 5e9)
    builder.add_task(
        "calibrate", duration=120.0, inputs=["observations"],
        outputs={"calibrated": 5e9},
    )
    builder.add_task(
        "detect", duration=300.0, cores=8, inputs=["calibrated"],
        outputs={"events": 1e8},
    )
    builder.add_task("summarize", duration=60.0, inputs=["events"])
    return builder


def run_and_report(name, builder):
    model = analyze_graph(builder.graph)
    executor = SimulatedExecutor(
        builder.graph, make_hpc_cluster(2), initial_data=builder.initial_data
    )
    report = executor.run()
    print(
        f"  {name:<14} tasks={model.task_count:<3} "
        f"work={model.total_work_s:>7.0f}s depth={model.critical_path_s:>6.0f}s "
        f"makespan={report.makespan:>6.0f}s"
    )
    return builder.graph, executor.log


def main():
    print("One experiment, three §II front-ends:\n")
    run_and_report("textual", textual_frontend())
    graph, log = run_and_report("cycling suite", suite_frontend())
    run_and_report("programmatic", programmatic_frontend())

    print("\nArtifacts from the suite run:")
    dot = graph_to_dot(graph)
    csv_text = export_trace_csv(log)
    print(f"  DOT graph     : {len(dot.splitlines())} lines (render with graphviz)")
    print(f"  trace CSV     : {len(csv_text.splitlines()) - 1} rows")
    print("\nFirst DOT lines:")
    for line in dot.splitlines()[:6]:
        print(f"    {line}")


if __name__ == "__main__":
    main()
