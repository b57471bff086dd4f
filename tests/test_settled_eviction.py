"""A settled task leaves the real runtime (E41).

Once a task is DONE the runtime forgets it: its instance and its graph rows
go, the counters keep it, and an absent id at or below the highest forgotten
one reads as DONE.  FAILED and CANCELLED tasks stay, because they poison
later readers.  A result's datum travels with its futures, not the registry.
These tests pin that contract: what the graph holds after a barrier, how a
forgotten producer's future and a forgotten writer behave, that a failure
still propagates, and that a waiter asleep on a task that settles wakes up.
"""

import threading
import time

import pytest

from repro import FILE_OUT, INOUT, ReproError, Runtime, compss_open, compss_wait_on, task
from repro.core.data import SWEEP_FLOOR
from repro.core.exceptions import TaskFailedError
from repro.core.graph import GraphError, TaskGraph, TaskInstance, TaskState

READERS = 2 * SWEEP_FLOOR + 1


@task(returns=1)
def make(n):
    return list(range(n))


@task()
def peek(xs):
    pass


@task(returns=1)
def summed(xs):
    return sum(xs)


@task(xs=INOUT)
def append(xs, value):
    xs.append(value)


@task(returns=1)
def hold(event):
    assert event.wait(10)
    return 0


@task(returns=1)
def boom():
    raise ValueError("boom")


@task(returns=1)
def ident(x):
    return x


@task(path=FILE_OUT)
def write_text(path):
    with open(path, "w") as handle:
        handle.write("done")


def _done_nodes(graph):
    return [t for t in graph.tasks if t.state is TaskState.DONE]


class TestGraphAfterABarrier:
    @pytest.mark.parametrize("held", [True, False], ids=["cascaded", "born-done"])
    def test_no_done_task_or_war_barrier_stays(self, held):
        """``held``: the readers queue behind a gate, so the write waits on
        every one of them; otherwise each group of readers finishes before
        the next, so the sweeps drop the forgotten ones and the write waits
        on none."""
        with Runtime(workers=1) as rt:
            event = threading.Event()
            if held:
                hold(event)
            else:
                event.set()
            data = make(3)
            for start in range(0, READERS, SWEEP_FLOOR):
                for _ in range(min(SWEEP_FLOOR, READERS - start)):
                    peek(data)
                if not held:
                    rt.barrier()
            # Swept at the 65th and the 129th read: one reader is left.
            assert len(data.datum.readers) == (READERS if held else 1)
            append(data, 3)
            event.set()
            rt.barrier()
            assert compss_wait_on(data) == [0, 1, 2, 3]
            graph = rt.graph
            assert graph.tasks == [] and len(graph) == 0 and graph.finished
            stats = rt.statistics()
        tasks = READERS + 2 + held
        assert (stats["tasks_total"], stats["tasks_done"]) == (tasks, tasks)
        assert stats["tasks_failed"] == stats["tasks_cancelled"] == 0
        assert stats["tasks_running"] == stats["tasks_ready"] == 0
        assert _done_nodes(graph) == []


class TestReaderSweep:
    def test_a_datum_read_for_ever_keeps_a_bounded_reader_list(self):
        """Ten waves of 1,000 reads of one object, each drained by a
        barrier: the sweeps drop the forgotten readers, so the list stays
        within two waves (without them it holds all 10,000)."""
        shared = {"x": 0}  # a list would be scanned as a collection
        with Runtime(workers=1) as rt:
            for _ in range(10):
                for _ in range(1000):
                    peek(shared)
                rt.barrier()
                record = rt.registry.record_for_object(shared)
                assert len(record.readers) <= 2000
                assert len(rt.graph) == 0
            assert rt.statistics()["tasks_done"] == 10_000


class TestForgottenProducer:
    def test_future_as_in_and_inout_keeps_value_and_order(self):
        with Runtime(workers=1) as rt:
            data = make(3)
            assert compss_wait_on(data) == [0, 1, 2]
            rt.barrier()
            producer = data.producer_task_id
            assert producer not in rt.graph and rt.graph.admitted(producer)
            event = threading.Event()
            hold(event)
            before = summed(data)  # IN
            append(data, 10)  # INOUT: after the read, by WAR
            after = summed(data)  # the next version: after the write
            tid = rt.graph.tasks[-1].task_id
            assert tid == after.producer_task_id
            assert rt.graph.predecessors(before.producer_task_id) == {producer}
            assert rt.graph.predecessors(tid - 1) == {producer, before.producer_task_id}
            assert rt.graph.predecessors(tid) == {tid - 1}
            assert rt.graph.task(before.producer_task_id).state is TaskState.READY
            event.set()
            assert compss_wait_on(before, after) == [3, 13]
            assert compss_wait_on(data) == [0, 1, 2, 10]

    def test_waits_on_a_forgotten_writer_return_at_once(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with Runtime(workers=1) as rt:
            write_text(path)
            rt.barrier()
            writer = rt.registry.register_file(path).writer
            assert writer not in rt.graph
            rt.wait_for_task(writer, timeout=0)  # any wait would time out
            with compss_open(path, timeout=0) as handle:
                assert handle.read() == "done"
            never = 10**9
            with pytest.raises(ReproError, match="never registered"):
                rt.wait_for_task(never)
            rt.registry.register_file(str(tmp_path / "other.txt")).writer = never
            with pytest.raises(ReproError, match="never registered"):
                compss_open(str(tmp_path / "other.txt"))


class TestFailuresStay:
    def test_failed_producer_stays_and_cancels_a_later_reader(self):
        with Runtime(workers=1) as rt:
            bad = boom()
            ok = ident(1)
            assert compss_wait_on(ok) == 1
            rt.barrier()
            failed = rt.graph.task(bad.producer_task_id)
            assert failed.state is TaskState.FAILED
            assert ok.producer_task_id not in rt.graph
            late = ident(bad)
            assert rt.graph.task(late.producer_task_id).state is TaskState.CANCELLED
            with pytest.raises(TaskFailedError):
                compss_wait_on(late)
            stats = rt.statistics()
        assert [t.task_id for t in rt.graph.tasks] == [
            bad.producer_task_id,
            late.producer_task_id,
        ]
        assert (stats["tasks_total"], stats["tasks_done"]) == (3, 1)
        assert (stats["tasks_failed"], stats["tasks_cancelled"]) == (1, 1)


class TestWaiterAcrossTheSettle:
    def test_blocked_waiter_wakes_when_its_task_is_forgotten(self):
        outcome = []
        with Runtime(workers=1) as rt:
            event = threading.Event()
            gate = hold(event)
            tid = gate.producer_task_id

            def waiter():
                rt.wait_for_task(tid)
                outcome.append(tid not in rt.graph)

            thread = threading.Thread(target=waiter, daemon=True)  # fails, not hangs
            thread.start()
            give_up = time.monotonic() + 5
            while tid not in rt._waiting_on:
                assert time.monotonic() < give_up
                time.sleep(0.005)
            event.set()
            thread.join(5)
            assert not thread.is_alive()
        assert outcome == [True]


class TestForgottenPredecessors:
    def test_critical_path_and_predecessors_accept_a_forgotten_id(self):
        graph = TaskGraph()
        with pytest.raises(GraphError, match="unknown"):  # nothing forgotten yet
            graph.add_task(TaskInstance(task_id=1, label="a"), depends_on=[0])
        graph.add_task(TaskInstance(task_id=1, label="a"))
        graph.mark_running(1, "n0")
        graph.mark_done(1)
        graph.add_task(TaskInstance(task_id=2, label="b"), depends_on=[1])
        graph.add_task(TaskInstance(task_id=3, label="c"), depends_on=[2])
        graph.forget(1)
        assert graph.predecessors(2) == {1} and graph.task(2).state is TaskState.READY
        assert graph.critical_path_length(lambda t: 2.0) == 4.0
        # An absent id above the highest forgotten one is still unknown.
        with pytest.raises(GraphError, match="unknown"):
            graph.add_task(TaskInstance(task_id=4, label="d"), depends_on=[3, 9])
        with pytest.raises(GraphError, match="cannot forget"):
            graph.forget(2)
        assert (graph.task_count, graph.completed_count, len(graph)) == (3, 1, 2)
