"""A task costs what a task does on the real runtime (E17 footprint).

The master keeps every task's record while it is in flight, so the
container objects a queued task holds decide how much every full GC pass
scans; once DONE the task leaves the master (E41).  These tests pin the
per-task count of GC-tracked objects and the per-task traced heap — still
queued and finished — and that the records which became lazy (a datum's
reader list, a node's successor set) behave as the eager ones did from the
moment they are first needed.
"""

import gc
import threading
import tracemalloc

from repro import INOUT, Runtime, compss_wait_on, task
from repro.core.access_processor import AccessProcessor
from repro.core.data import SWEEP_FLOOR, Datum
from repro.core.graph import TaskGraph
from repro.core.task_definition import TaskDefinition

TASKS = 2000


@task(returns=1)
def add(left, right):
    return left + right


@task(returns=1)
def hold(event):
    assert event.wait(10)
    return 0


def _tracked():
    gc.collect()
    return len(gc.get_objects())


class TestFootprint:
    def test_objects_per_task_queued_and_finished(self):
        with Runtime(workers=1) as rt:
            event = threading.Event()
            hold(event)
            before = _tracked()
            futures = rt.submit_many(add, [((i, i + 1),) for i in range(TASKS)])
            queued = (_tracked() - before) / TASKS
            event.set()
            results = compss_wait_on(futures, timeout=30)
            assert results == [2 * i + 1 for i in range(TASKS)]
            assert rt._result_futures == {}
            del futures, results
            finished = (_tracked() - before) / TASKS
            assert not hasattr(rt.access_processor, "futures_by_datum")
        # Queued: TaskInstance, Datum, Future, the ready-queue node (15
        # before E17; 5 until E37 dropped the list behind the future).
        # Finished, its future dropped: nothing (10 before: five lists and
        # two sets more; 5 until E22 released the payload to one shared
        # empty mapping instead of two fresh dicts; 3 until E23 folded the
        # datum's record and its current version into one; 2 until E41, the
        # instance and the result datum, let the settled task go).
        assert queued <= 4.5, queued
        assert finished <= 0.5, finished

    def test_traced_bytes_per_task_queued_and_finished(self):
        with Runtime(workers=1) as rt:
            event = threading.Event()
            hold(event)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                calls = [((i, i + 1),) for i in range(TASKS)]
                futures = rt.submit_many(add, calls)
                del calls
                gc.collect()
                queued = (tracemalloc.get_traced_memory()[0] - before) / TASKS
                event.set()
                assert compss_wait_on(futures, timeout=30)[-1] == 2 * TASKS - 1
                rt.barrier()
                del futures
                gc.collect()
                finished = (tracemalloc.get_traced_memory()[0] - before) / TASKS
            finally:
                tracemalloc.stop()
        # 868 / 185 B on Python 3.11 for one ``add(i, i + 1)`` (884 queued
        # before E50 deleted the instance's and the datum's barrier slots).
        # Queued:
        # the instance (160 B) with the caller's argument tuple as its
        # payload, the result datum and its id, the future, the label, the
        # ready-queue node and the index slots (1,238 B before E37: a
        # ``kwargs`` dict of 184 B, a ``future_args`` dict of 64, two slots
        # more, the future's id and the list behind ``_result_futures``; 910
        # before E41, whose registry slot per result went).  Finished:
        # nothing of the task is left, only the index tables' capacity for
        # the 2,000 tasks that were in flight at once, which a later wave
        # reuses (759 B before E37, 742 before E41 forgot settled tasks).
        assert queued <= 1000, queued
        assert finished <= 250, finished

    def test_finished_instances_hold_tuples_and_shared_defaults(self):
        # The graph lets a DONE task go, so its rows are read while a gate
        # task keeps the one worker busy, and the instances are kept here.
        with Runtime(workers=1) as rt:
            event = threading.Event()
            hold(event)
            first = add(1, 2)
            second = add(first, 3)
            a, b = (rt.graph.task(f.producer_task_id) for f in (first, second))
            assert a.reads == () and a.writes == (first.datum_id,)
            assert b.reads == (first.datum_id,) and b.writes == (second.datum_id,)
            assert rt.graph.predecessors(b.task_id) == {a.task_id}
            assert rt.graph.successors(a.task_id) == {b.task_id}
            assert rt.graph.successors(b.task_id) == set()
            assert b.task_id not in rt.graph._successors
            event.set()
            assert compss_wait_on(second) == 6
            rt.barrier()
            assert a.assigned_nodes == b.assigned_nodes == ("localhost",)
            assert a.payload == b.payload == ()
            assert rt.graph.tasks == [] and rt.graph.task_count == 3


class TestLazyRecords:
    def test_lazy_reader_list_then_a_write_that_waits_on_every_reader(self):
        graph = TaskGraph()
        ap = AccessProcessor(graph=graph)

        def register(definition, *args):
            registered = ap.register_task(definition, args, {})
            graph.add_task(registered.instance, registered.depends_on)
            return registered

        producer = register(TaskDefinition(lambda: 1, returns=1))
        (future,) = producer.futures
        # The future carries its result's record; the registry keeps none.
        record = future.datum
        assert ap.registry.datum_ids == [] and record.datum_id == future.datum_id
        assert record.readers == () and record.version == 1
        read = TaskDefinition(lambda x: None)
        first = register(read, future).instance.task_id
        assert record.readers == first
        readers = [first] + [
            register(read, future).instance.task_id for _ in range(SWEEP_FLOOR)
        ]
        # The 65th read met a sweep point, and nothing was forgotten.
        assert record.readers == readers and graph.task_count == SWEEP_FLOOR + 2
        # The writer waits for the producer and every reader.
        update = TaskDefinition(lambda x: None, param_directions={"x": INOUT})
        writer = register(update, future)
        assert writer.depends_on == {producer.instance.task_id, *readers}
        assert record.version == 2 and record.writer == writer.instance.task_id
        assert record.readers == ()
        # A rewrite resets the one record in place: N more leave no trace.
        def records():
            gc.collect()
            return sum(isinstance(o, Datum) for o in gc.get_objects())

        datums, before = len(ap.registry.datum_ids), records()
        for _ in range(50):
            register(update, future)
        assert future.datum is record and record.version == 52
        assert len(ap.registry.datum_ids) == datums and records() == before
