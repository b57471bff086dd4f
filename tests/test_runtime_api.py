"""Tests for runtime API surface: files, compss_open, lifecycle, DOT export."""

import os
import threading

import pytest

from repro import (
    FILE_IN,
    FILE_OUT,
    ReproError,
    Runtime,
    RuntimeNotStartedError,
    compss_barrier,
    compss_delete_object,
    compss_open,
    compss_wait_on,
    get_runtime,
    start_runtime,
    stop_runtime,
    task,
)
from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.metrics import graph_to_dot


@task(path=FILE_OUT)
def write_numbers(path, count):
    with open(path, "w") as handle:
        for value in range(count):
            handle.write(f"{value}\n")


@task(src=FILE_IN, dst=FILE_OUT)
def double_file(src, dst):
    with open(src) as inp, open(dst, "w") as out:
        for line in inp:
            out.write(f"{int(line) * 2}\n")


class TestFileTasks:
    def test_file_pipeline(self, tmp_path):
        raw = str(tmp_path / "raw.txt")
        doubled = str(tmp_path / "doubled.txt")
        with Runtime(workers=2):
            write_numbers(raw, 5)
            double_file(raw, doubled)
            with compss_open(doubled) as handle:
                values = [int(line) for line in handle]
        assert values == [0, 2, 4, 6, 8]

    def test_compss_open_waits_for_writer(self, tmp_path):
        import time

        path = str(tmp_path / "slow.txt")

        @task(out=FILE_OUT)
        def slow_write(out):
            time.sleep(0.2)
            with open(out, "w") as handle:
                handle.write("done")

        with Runtime(workers=2):
            slow_write(path)
            with compss_open(path) as handle:
                assert handle.read() == "done"

    def test_compss_open_without_runtime(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("hello")
        with compss_open(str(path)) as handle:
            assert handle.read() == "hello"


class TestLifecycle:
    def test_submit_without_start_raises(self):
        runtime = Runtime(workers=2)

        @task(returns=1)
        def fn(x):
            return x

        with pytest.raises(RuntimeNotStartedError):
            runtime.submit(fn._repro_task_definition, (1,), {})

    @pytest.mark.parametrize("batched", [False, True])
    def test_submit_racing_stop_is_refused(self, batched):
        # The submitter passes the started check, then stop(wait=False) runs
        # to the end before it reaches the lock: admitting the call then
        # would hand back futures that a shut-down executor never resolves.
        @task(returns=1)
        def fn(x):
            return x

        runtime = Runtime(workers=2).start()
        prepare = runtime.access_processor.prepare_task
        reached, resume = threading.Event(), threading.Event()

        def paused_prepare(*args, **kwargs):
            reached.set()
            assert resume.wait(10)
            return prepare(*args, **kwargs)

        runtime.access_processor.prepare_task = paused_prepare
        outcome = []

        def submitter():
            try:
                if batched:
                    outcome.extend(runtime.submit_many(fn, [((1,),)]))
                else:
                    outcome.append(runtime.submit(fn._repro_task_definition, (1,), {}))
            except RuntimeNotStartedError as error:
                outcome.append(error)

        thread = threading.Thread(target=submitter)
        thread.start()
        assert reached.wait(10)
        runtime.stop(wait=False)
        resume.set()
        thread.join(10)
        for result in outcome:  # every future handed back must resolve
            if not isinstance(result, RuntimeNotStartedError):
                assert runtime.wait_on(result, timeout=0.5) == 1
        assert outcome and runtime.statistics()["tasks_ready"] == 0

    def test_two_runtimes_rejected(self):
        with Runtime(workers=2):
            with pytest.raises(ReproError):
                Runtime(workers=2).start()

    def test_start_stop_module_api(self):
        runtime = start_runtime(workers=2)
        assert get_runtime() is runtime
        stop_runtime()
        with pytest.raises(RuntimeNotStartedError):
            get_runtime()

    def test_wait_on_passthrough_without_runtime(self):
        assert compss_wait_on(42) == 42
        assert compss_wait_on(1, 2) == [1, 2]
        compss_barrier()  # no-op

    def test_runtime_restartable(self):
        @task(returns=1)
        def fn(x):
            return x + 1

        runtime = Runtime(workers=2)
        with runtime:
            assert compss_wait_on(fn(1)) == 2

    def test_statistics_shape(self):
        with Runtime(workers=2) as runtime:
            stats = runtime.statistics()
        assert set(stats) >= {
            "tasks_total",
            "tasks_done",
            "tasks_failed",
            "tasks_cancelled",
            "total_cores",
        }


class TestDeleteObject:
    def test_delete_breaks_tracking(self):
        from repro import INOUT

        @task(c=INOUT)
        def push(c, item):
            c.append(item)

        with Runtime(workers=2) as runtime:
            data = []
            push(data, 1)
            runtime.wait_on(data)
            compss_delete_object(data)
            # After deletion the registry no longer tracks the object.
            assert runtime.registry.record_for_object(data) is None

    def test_delete_cycles_leave_no_record_behind(self):
        from repro import INOUT

        @task(c=INOUT)
        def push(c, item):
            c.append(item)

        with Runtime(workers=1) as runtime:
            before = len(runtime.registry.datum_ids)
            for cycle in range(1000):
                data = []
                push(data, cycle)
                assert runtime.wait_on(data) == [cycle]
                compss_delete_object(data)
            assert len(runtime.registry.datum_ids) == before

    def test_delete_without_runtime_is_noop(self):
        compss_delete_object([1, 2, 3])


@task(returns=1)
def hold(event):
    assert event.wait(10)
    return 0


def _task_lines(dot):
    return [line for line in dot.splitlines() if line.strip().startswith("t")]


class TestDotExport:
    def test_dot_contains_tasks_and_edges(self):
        @task(returns=1)
        def fn(x):
            return x

        # A real runtime's graph lets a DONE task go, so it is exported
        # while a gate task (t1) keeps the one worker busy.
        with Runtime(workers=1) as runtime:
            event = threading.Event()
            hold(event)
            a = fn(1)
            b = fn(a)
            dot = graph_to_dot(runtime.graph)
            event.set()
            compss_wait_on(b)
            settled = graph_to_dot(runtime.graph)
        assert dot.startswith("digraph")
        assert "t2" in dot and "t3" in dot
        assert "t2 -> t3" in dot
        assert "lightblue" in dot and "khaki" in dot  # running, ready
        # Settled, it shows none of its DONE tasks, nor their edges.
        assert settled.startswith("digraph") and _task_lines(settled) == []
        # A graph that keeps its DONE tasks (a simulated one) colors them.
        graph = TaskGraph()
        graph.add_task(TaskInstance(task_id=1, label="done"))
        graph.mark_running(1, "n0")
        graph.mark_done(1)
        assert "palegreen" in graph_to_dot(graph)

    def test_dot_grouped_by_node(self):
        @task(returns=1)
        def fn(x):
            return x

        with Runtime(workers=1) as runtime:
            event = threading.Event()
            hold(event)  # placed on localhost while the export runs
            fn(1)
            dot = graph_to_dot(runtime.graph, group_by_node=True)
            event.set()
        assert "subgraph cluster_0" in dot

    def test_dot_truncates_long_labels(self):
        from repro.core.graph import TaskGraph, TaskInstance

        graph = TaskGraph()
        graph.add_task(TaskInstance(task_id=1, label="x" * 100))
        dot = graph_to_dot(graph, max_label_length=16)
        assert "x" * 100 not in dot
