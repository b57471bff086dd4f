"""Run-to-completion workers on the real runtime (E17).

The thread that finishes a task runs the next ready task itself; the pool
only receives placements beyond the first.  These tests pin what that must
not change: one core means one worker thread and the ready queue's FIFO
order, a chain of any length runs on one stack frame, a task raising
``BaseException`` costs its dependents and nothing else, a stop during a
drain starts nothing afterwards, and N cores still run N tasks at once.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, TaskFailedError, compss_wait_on, constraint, task
from repro.core.graph import TaskGraph, TaskInstance

_STARTED = []


@task(returns=1)
def ident(index):
    return threading.get_ident()


@task(returns=1)
def hold(event):
    """Occupies its core until ``event`` is set, so a backlog can queue."""
    assert event.wait(10)
    return threading.get_ident()


@constraint(cores=4)
@task(returns=1)
def hold_four_cores(event):
    assert event.wait(10)
    return threading.get_ident()


@task(returns=1)
def node(index, log, deps):
    log.append(index)
    return index


@task(returns=1)
def increment(value):
    return value + 1


@task(returns=1)
def interrupt(value, kind):
    raise {"KeyboardInterrupt": KeyboardInterrupt, "SystemExit": SystemExit}[kind]()


@task(returns=1)
def slow(index):
    _STARTED.append(index)
    time.sleep(0.001)
    return index


@task(returns=1)
def meet(barrier):
    barrier.wait()
    return threading.get_ident()


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker")]


def test_one_core_is_one_worker_thread():
    with Runtime(workers=1) as rt:
        assert rt.executor.pool_size == 1
        futures = rt.submit_many(ident, [((i,),) for i in range(2000)])
        idents = compss_wait_on(futures, timeout=30)
        assert len(_worker_threads()) == 1
    assert len(set(idents)) == 1
    assert idents[0] != threading.get_ident()


def _fifo_reference(deps_of):
    """Execution order of a one-core run: a ready list in registration
    order, successors appended in the order ``mark_done`` returns them."""
    graph = TaskGraph()
    for tid, deps in deps_of.items():
        graph.add_task(TaskInstance(task_id=tid, label=str(tid)), deps)
    ready = [instance.task_id for instance in graph.ready_tasks()]
    order = []
    while ready:
        tid = ready.pop(0)
        graph.mark_running(tid, "localhost")
        order.append(tid)
        ready.extend(instance.task_id for instance in graph.mark_done(tid))
    return order


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=8), max_size=3),
        min_size=1,
        max_size=200,
    )
)
def test_one_core_runs_the_ready_queue_in_fifo_order(dep_offsets):
    # The gate holds the only core while the whole DAG registers, so the
    # ready queue the worker then drains does not depend on timing.
    gate_id, first_id = 1, 2
    deps_of = {gate_id: set()}
    log = []
    with Runtime(workers=1) as rt:
        event = threading.Event()
        gate = hold(event)
        futures = []
        for index, offsets in enumerate(dep_offsets):
            deps = sorted({index - o for o in offsets if index - o >= 0})
            future = node(index, log, [futures[d] for d in deps])
            assert future.producer_task_id == first_id + index
            deps_of[first_id + index] = {first_id + d for d in deps}
            futures.append(future)
        event.set()
        assert compss_wait_on(futures, timeout=30) == list(range(len(dep_offsets)))
        worker = compss_wait_on(gate)
        assert [t.ident for t in _worker_threads()] == [worker]
    executed = [gate_id] + [first_id + index for index in log]
    assert executed == _fifo_reference(deps_of)


def test_a_20k_chain_completes_under_the_default_recursion_limit():
    with Runtime(workers=1) as rt:
        event = threading.Event()
        hold(event)
        value = 0
        for _ in range(20_000):
            value = increment(value)
        event.set()  # from here on every link is the worker's continuation
        assert compss_wait_on(value, timeout=120) == 20_000
        assert rt.statistics()["tasks_done"] == 20_001


@pytest.mark.parametrize("kind", ["KeyboardInterrupt", "SystemExit"])
def test_base_exception_fails_its_cone_and_the_worker_carries_on(kind):
    with Runtime(workers=1) as rt:
        event = threading.Event()
        gate = hold(event)
        first = increment(0)
        failing = interrupt(first, kind)
        cone = [increment(failing)]
        cone.append(increment(cone[0]))
        unrelated = rt.submit_many(ident, [((i,),) for i in range(50)])
        event.set()
        idents = compss_wait_on(unrelated, timeout=30)
        assert compss_wait_on(first, timeout=30) == 1
        for future in [failing] + cone:
            with pytest.raises(TaskFailedError) as info:
                compss_wait_on(future, timeout=30)
            assert type(info.value.cause).__name__ == kind
            assert info.value.task_label.startswith("interrupt#")
        rt.barrier(timeout=30)
        stats = rt.statistics()
        # The one worker thread survived the BaseException and drained the rest.
        assert set(idents) == {compss_wait_on(gate)}
    assert (stats["tasks_done"], stats["tasks_failed"], stats["tasks_cancelled"]) == (
        52, 1, 2,
    )
    assert stats["tasks_running"] == 0 and stats["tasks_ready"] == 0


def test_stop_without_wait_starts_nothing_afterwards():
    del _STARTED[:]
    rt = Runtime(workers=2).start()
    try:
        rt.submit_many(slow, [((i,),) for i in range(3000)])
        time.sleep(0.05)
    finally:
        rt.stop(wait=False)
    started = len(_STARTED)
    assert not _worker_threads()
    time.sleep(0.1)
    assert len(_STARTED) == started
    stats = rt.statistics()
    # Every task that started finished; the rest stayed where they were.
    assert 0 < started < 3000
    assert stats["tasks_done"] == started and stats["tasks_running"] == 0
    assert stats["tasks_ready"] == 3000 - started
    assert rt.graph.pending_count == 0 and stats["tasks_failed"] == 0


def test_four_cores_still_run_four_tasks_at_once():
    barrier = threading.Barrier(4, timeout=5)
    with Runtime(workers=4) as rt:
        event = threading.Event()
        gate = hold_four_cores(event)
        before = rt.submit_many(ident, [((i,),) for i in range(100)])
        meets = [meet(barrier) for _ in range(4)]
        after = rt.submit_many(ident, [((i,),) for i in range(100)])
        # One thread completes the gate and frees four cores at once: it
        # keeps one placement, the other three must reach the pool.
        event.set()
        assert len(set(compss_wait_on(meets, timeout=30))) == 4
        compss_wait_on(before + after, timeout=30)
        assert compss_wait_on(gate) in {t.ident for t in _worker_threads()}
        assert rt.statistics()["tasks_failed"] == 0
