"""The simulator's run log against the graph walks it replaced.

``SimulatedExecutor.log`` gets one row per application task at the instant
it settles, and everything read after a run — the Gantt chart, the Paraver
exports, ``per_node_busy_seconds``, the zone digests — reads that log.
Before the log, each of those walked every ``TaskInstance`` the graph kept
once the run was over; those walks are kept here, verbatim in substance, as
the reference.  The property runs small layered DAGs with node failures
(some tasks end FAILED, their descendants CANCELLED) and late batches
through ``submit_tasks`` (one born CANCELLED), and asserts that the log's
rows, the exporters' text and the busy seconds are identical to the
reference, down to pickle bytes and float bits.
"""

import csv
import importlib.util
import io
import pickle
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import SimProfile, TaskInstance, TaskState
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster
from repro.metrics.gantt import render_gantt
from repro.metrics.paraver import export_prv, export_trace_csv
from repro.tools.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

# ------------------------------------------------- the reference graph walks


def reference_trace_rows(graph):
    """``TraceCollector.rows``: every node of every DONE task, graph order."""
    rows = []
    for instance in graph.tasks:
        if instance.state is not TaskState.DONE:
            continue
        if instance.start_time is None or instance.end_time is None:
            continue
        for node in instance.assigned_nodes or [instance.assigned_node or "?"]:
            rows.append(
                (
                    instance.task_id,
                    instance.label,
                    node,
                    instance.start_time,
                    instance.end_time,
                    instance.requirements.cores,
                )
            )
    return rows


def reference_makespan(graph):
    """``TraceCollector.makespan``."""
    ends = [t.end_time for t in graph.tasks if t.end_time is not None]
    return max(ends, default=0.0)


def reference_utilization(graph, total_cores):
    busy = sum((end - start) * cores for _, _, _, start, end, cores in reference_trace_rows(graph))
    return min(1.0, busy / (total_cores * reference_makespan(graph)))


def reference_gantt(graph, width, label_width=18):
    """``render_gantt`` over ``TraceCollector.rows_by_node``."""
    shades = " ░▒▓█"
    makespan = reference_makespan(graph)
    by_node = {}
    for row in reference_trace_rows(graph):
        by_node.setdefault(row[2], []).append(row)
    for rows in by_node.values():
        rows.sort(key=lambda r: r[3])
    if makespan <= 0 or not by_node:
        return "(empty trace)"
    bucket_s = makespan / width
    lines = [f"{'node':<{label_width}} |{'time →'.ljust(width)}| 0..{makespan:.0f}s"]
    for node_name in sorted(by_node):
        occupancy = [0.0] * width
        for _, _, _, start, end, cores in by_node[node_name]:
            first = min(width - 1, int(start / bucket_s))
            last = min(width - 1, int(max(start, end - 1e-9) / bucket_s))
            for bucket in range(first, last + 1):
                bucket_start = bucket * bucket_s
                bucket_end = bucket_start + bucket_s
                overlap = min(end, bucket_end) - max(start, bucket_start)
                if overlap > 0:
                    occupancy[bucket] += cores * overlap / bucket_s
        peak = max(occupancy) or 1.0
        glyphs = "".join(
            shades[min(len(shades) - 1, int(round(v / peak * (len(shades) - 1))))]
            for v in occupancy
        )
        display = node_name if len(node_name) <= label_width else node_name[: label_width - 1] + "…"
        lines.append(f"{display:<{label_width}} |{glyphs}|")
    return "\n".join(lines)


def reference_prv(graph):
    """``export_prv`` over ``TraceCollector``."""
    rows = reference_trace_rows(graph)
    node_ids = {}
    for row in rows:
        node_ids.setdefault(row[2], len(node_ids) + 1)
    lines = [
        f"#Paraver-like trace: tasks={len({row[0] for row in rows})} "
        f"nodes={len(node_ids)} makespan_us={int(reference_makespan(graph) * 1e6)}"
    ]
    for task_id, label, node, start, end, _ in sorted(rows, key=lambda r: (r[3], r[0])):
        lines.append(f"1:{node_ids[node]}:{task_id}:{int(start * 1e6)}:{int(end * 1e6)}:{label}")
    row_lines = [f"LEVEL NODE SIZE {len(node_ids)}"]
    for name, node_id in sorted(node_ids.items(), key=lambda kv: kv[1]):
        row_lines.append(f"{node_id} {name}")
    return "\n".join(lines), "\n".join(row_lines)


def reference_csv(graph):
    """``export_trace_csv`` over ``TraceCollector``."""
    buffer = io.StringIO()
    fields = ["task_id", "label", "node", "start", "end", "cores"]
    writer = csv.DictWriter(buffer, fieldnames=fields)
    writer.writeheader()
    for row in sorted(reference_trace_rows(graph), key=lambda r: (r[3], r[0])):
        record = dict(zip(fields, row))
        record["start"] = f"{record['start']:.6f}"
        record["end"] = f"{record['end']:.6f}"
        writer.writerow(record)
    return buffer.getvalue()


def reference_outcome_rows(tasks, cache_keys=False):
    """``workloads.zonal.outcome_rows``: what the zone digests pickled."""
    return sorted(
        (t.label, t.state.name, t.start_time, t.end_time, tuple(t.assigned_nodes))
        + ((t.cache_key,) if cache_keys else ())
        for t in tasks
    )


def busy_reference(executor):
    """``SimulatedExecutor._busy_seconds``: accumulated at each completion."""
    busy = {}

    def accumulate(instance):
        for node in instance.assigned_nodes:
            busy[node] = busy.get(node, 0.0) + (instance.end_time - instance.start_time)

    executor.on_task_done(accumulate)
    return busy


def assert_log_matches_reference(executor, report, busy):
    graph, log = executor.graph, executor.log
    assert log.trace_rows() == reference_trace_rows(graph)
    assert log.makespan() == reference_makespan(graph) == report.makespan
    assert list(report.per_node_busy_seconds.items()) == list(busy.items())
    assert render_gantt(log, width=40) == reference_gantt(graph, 40)
    assert render_gantt(log, width=9) == reference_gantt(graph, 9)
    assert export_prv(log) == reference_prv(graph)
    assert export_trace_csv(log) == reference_csv(graph)
    if reference_trace_rows(graph):
        cores = executor.platform.total_cores
        assert log.utilization(cores) == reference_utilization(graph, cores)
    # One row per task, each settled once.
    tasks = graph.tasks
    assert sorted(log.task_id) == [t.task_id for t in tasks]
    for cache_keys, columns in (
        (False, ("label", "state", "start", "end", "nodes")),
        (True, ("label", "state", "start", "end", "nodes", "cache_key")),
    ):
        rows = sorted(log.rows(*columns))
        reference = reference_outcome_rows(tasks, cache_keys)
        assert rows == reference
        assert pickle.dumps(rows) == pickle.dumps(reference)


# ------------------------------------------------------------- the scenarios

NODES = 4

task_spec = st.tuples(
    st.integers(1, 20),  # duration
    st.integers(1, 2),  # cores
    st.integers(1, 2),  # nodes (gang width)
    st.lists(st.integers(0, 7), min_size=1, max_size=2),  # reads, mod layer width
)
late_spec = st.tuples(
    st.integers(1, 15),  # duration
    st.lists(st.integers(0, 63), min_size=1, max_size=2),  # dependencies
)


def build_layers(layers):
    builder = SimWorkflowBuilder()
    builder.add_initial_datum("in", 1e6)
    previous = ["in"]
    for depth, layer in enumerate(layers):
        outputs = []
        for index, (duration, cores, nodes, reads) in enumerate(layer):
            name = f"d{depth}.{index}"
            builder.add_task(
                f"t{depth}.{index}",
                duration=float(duration),
                inputs=sorted({previous[r % len(previous)] for r in reads}),
                outputs={name: 1e6},
                cores=cores,
                nodes=nodes,
            )
            outputs.append(name)
        previous = outputs
    return builder


def late_batch(executor, specs, next_id, out_of):
    """``(instance, depends_on)`` pairs on tasks already in the graph, each
    reading what its dependencies wrote; the batch's last task depends on a
    FAILED or CANCELLED task when there is one, so it is born CANCELLED."""
    graph = executor.graph
    static = [t for t in graph.tasks if t.task_id < 1000]
    dead = [t for t in graph.tasks if t.state in (TaskState.FAILED, TaskState.CANCELLED)]
    batch = []
    for position, (duration, picks) in enumerate(specs):
        deps = {static[p % len(static)] for p in picks}
        if dead and position == len(specs) - 1:
            deps.add(dead[0])
        task_id = next(next_id)
        instance = TaskInstance(
            task_id,
            f"late#{task_id}",
            reads=sorted({d for t in deps for d in t.writes}),
            profile=SimProfile(duration_s=float(duration)),
        )
        batch.append((instance, {t.task_id for t in deps}))
        out_of.append(instance)
    executor.submit_tasks(batch)


def run_scenario(layers, failures, batches):
    builder = build_layers(layers)
    executor = SimulatedExecutor(
        builder.graph,
        make_hpc_cluster(NODES, cores_per_node=2),
        initial_data=builder.initial_data,
    )
    busy = busy_reference(executor)
    # Late batches land even after the static DAG has finished.
    executor.hold_open = True
    node_names = [n.name for n in executor.platform.alive_nodes]
    for time, node in failures:
        # Only the first two nodes fail, so a two-node gang still fits.
        executor.fail_node_at(float(time), node_names[node])
    ids = iter(range(1000, 2000))
    late = []
    for time, specs in batches:
        executor.engine.at(
            float(time),
            lambda specs=specs: late_batch(executor, specs, ids, late),
        )
    report = executor.run()
    return executor, report, busy, late


@settings(max_examples=60, deadline=None)
@given(
    layers=st.lists(st.lists(task_spec, min_size=1, max_size=4), min_size=1, max_size=4),
    failures=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 1)), max_size=3),
    batches=st.lists(
        st.tuples(st.integers(0, 80), st.lists(late_spec, min_size=1, max_size=3)),
        max_size=3,
    ),
)
def test_log_matches_the_graph_walks(layers, failures, batches):
    executor, report, busy, _ = run_scenario(layers, failures, batches)
    assert_log_matches_reference(executor, report, busy)


def test_failure_cancellation_and_a_late_task_born_cancelled():
    """A node failure loses data: its readers end FAILED, their descendants
    CANCELLED, and a later batch depending on them is born CANCELLED — every
    kind of row the property relies on, on one fixed scenario."""
    layers = [[(10, 1, 1, [0])] * 2, [(10, 1, 1, [0]), (10, 1, 1, [1])], [(5, 1, 2, [0, 1])]]
    executor, report, busy, late = run_scenario(layers, [(15, 0), (15, 1)], [(30, [(3, [0])])])
    states = dict(zip(executor.log.task_id, executor.log.state))
    assert {"FAILED", "CANCELLED"} <= set(states.values())
    assert states[late[0].task_id] == "CANCELLED"
    assert report.tasks_failed and report.tasks_cancelled
    assert_log_matches_reference(executor, report, busy)


# ------------------------------------------------- the parent's exporter text


def test_exporters_match_the_pinned_output():
    """``repro timeline`` and the suite example's Paraver exports, byte for
    byte as they were when the exporters walked the graph."""
    out = io.StringIO()
    argv = ["timeline", "--workload", "guidance", "--chromosomes", "2", "--chunks", "2"]
    assert main(argv + ["--width", "40"], out=out) == 0
    assert out.getvalue() == (DATA / "timeline_guidance.txt").read_text(encoding="utf-8")

    spec = importlib.util.spec_from_file_location(
        "workflow_frontends", ROOT / "examples" / "workflow_frontends.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    builder = example.suite_frontend()
    executor = SimulatedExecutor(
        builder.graph, make_hpc_cluster(2), initial_data=builder.initial_data
    )
    executor.run()
    prv, row_file = export_prv(executor.log)
    assert prv + "\n" == (DATA / "suite_trace.prv").read_text(encoding="utf-8")
    assert row_file + "\n" == (DATA / "suite_trace.row").read_text(encoding="utf-8")
    assert export_trace_csv(executor.log).encode() == (DATA / "suite_trace.csv").read_bytes()
