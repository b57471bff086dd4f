"""Submission front-end behavior: submit_many, pruning, compss_open timeout.

PR 3 coverage for the lock-lean master: batched submission keeps ordering
and dependency semantics, master-side bookkeeping stays bounded (resolved
futures and completed instances' payloads are released), and the file
synchronization API honors deadlines and mid-wait writer failures.
"""

import threading
import time

import pytest

from repro import (
    FILE_OUT,
    INOUT,
    Runtime,
    RuntimeNotStartedError,
    TaskFailedError,
    compss_open,
    compss_wait_on,
    task,
)
from repro.core.futures import Future
from repro.core.task_definition import definition_of


@task(returns=1)
def add(a, b):
    return a + b


@task(returns=1)
def total(values):
    return sum(values)


@task(acc=INOUT)
def extend(acc, x):
    acc.append(x)


@task(returns=1)
def hold(event):
    assert event.wait(10)
    return 0


@task(returns=1)
def boom():
    raise ValueError("boom")


class TestSubmitMany:
    def test_batch_returns_futures_in_order(self):
        with Runtime(workers=2) as rt:
            futures = rt.submit_many(add, [((i, i), {}) for i in range(50)])
            assert all(isinstance(f, Future) for f in futures)
            values = compss_wait_on(list(futures))
        assert values == [2 * i for i in range(50)]

    def test_accepts_definition_and_args_only_calls(self):
        with Runtime(workers=2) as rt:
            futures = rt.submit_many(
                definition_of(add), [((2, 3),), ((4, 5),)]
            )
            assert compss_wait_on(list(futures)) == [5, 9]

    def test_batched_tasks_depend_on_each_other(self):
        with Runtime(workers=2) as rt:
            partial = rt.submit_many(add, [((i, 1), {}) for i in range(10)])
            # A task consuming the whole batch sees every result resolved.
            result = compss_wait_on(total(partial))
        assert result == sum(i + 1 for i in range(10))

    def test_inout_batch_preserves_program_order(self):
        acc = []
        with Runtime(workers=4) as rt:
            rt.submit_many(extend, [((acc, i), {}) for i in range(8)])
            out = compss_wait_on(acc)
        # INOUT chains serialize: append order == submission order.
        assert out == list(range(8))

    def test_rejects_non_task_callable(self):
        with Runtime(workers=2) as rt:
            with pytest.raises(TypeError):
                rt.submit_many(lambda x: x, [((1,), {})])

    def test_requires_started_runtime(self):
        rt = Runtime(workers=2)
        with pytest.raises(RuntimeNotStartedError):
            rt.submit_many(add, [((1, 2), {})])

    @pytest.mark.parametrize(
        "calls, index",
        [
            ([(7, {"k": 1})], 0),  # a dict argument is not kwargs
            ([(5,)], 0),  # args must be a tuple or list
            ([(1, 2)], 0),  # bare args: no guessing
            ([((1, 2),), ((1, 2), {}, {})], 1),
            ([((1, 2),), ((1, 2), {}), 3], 2),
            ([((1, 2), [])], 0),
            ([()], 0),
        ],
    )
    def test_other_call_shapes_are_refused_before_any_is_admitted(self, calls, index):
        with Runtime(workers=2) as rt:
            with pytest.raises(TypeError, match=rf"submit_many call {index} of 'add'"):
                rt.submit_many(add, calls)
            assert rt.graph.task_count == 0

    def test_both_shapes_and_list_args_are_accepted(self):
        with Runtime(workers=2) as rt:
            calls = [((1, 2),), ((1,), {"b": 5}), ([3, 4],), ([], {"a": 1, "b": 1})]
            assert compss_wait_on(rt.submit_many(add, calls)) == [3, 6, 7, 2]


@task(returns=1)
def kinds(first, second=()):
    return type(first).__name__, list(first), type(second).__name__, list(second)


class TestContainersOfFutures:
    """Futures one level into a list or tuple reach the task as their
    values, in a container of the type that was passed."""

    def test_tuple_list_and_mixed_containers_keep_their_type(self):
        plain = (1, 2)
        with Runtime(workers=2):
            a, b = add(0, 1), add(1, 1)
            assert compss_wait_on(kinds((a, b))) == ("tuple", [1, 2], "tuple", [])
            assert compss_wait_on(kinds([a, b])) == ("list", [1, 2], "tuple", [])
            assert compss_wait_on(kinds((a, 5, "x"), [None, b])) == (
                "tuple", [1, 5, "x"], "list", [None, 2]
            )
            assert compss_wait_on(kinds(plain, (b,))) == ("tuple", [1, 2], "tuple", [2])
        # The same answers as with no runtime, where the call runs inline.
        assert kinds((1, 2), [None, 2]) == ("tuple", [1, 2], "list", [None, 2])

    def test_a_container_without_futures_is_passed_as_it_is(self):
        values = [1, 2]

        @task(returns=1)
        def same(items):
            return items is values

        with Runtime(workers=2):
            assert compss_wait_on(same(values)) is True


class TestBoundedMasterBookkeeping:
    def test_future_tracking_is_released_after_completion(self):
        with Runtime(workers=2) as rt:
            futures = rt.submit_many(add, [((i, i), {}) for i in range(32)])
            compss_wait_on(list(futures))
            rt.barrier()
            assert rt._result_futures == {}
            assert all(t.payload == () for t in rt.graph.tasks)

    def test_completed_instances_drop_argument_payloads(self):
        # The graph lets a DONE task go; whoever still holds the instance
        # (fetched here while a gate task keeps the one worker busy) sees
        # its arguments dropped too.
        payload = list(range(1000))
        event = threading.Event()
        with Runtime(workers=1) as rt:
            hold(event)
            future = add(payload, [0])
            instance = rt.graph.task(future.producer_task_id)
            assert instance.payload[0] is payload
            event.set()
            compss_wait_on(future)
            rt.barrier()
            assert instance.payload == ()
            assert future.producer_task_id not in rt.graph

    def test_failed_and_cancelled_tasks_release_tracking_too(self):
        with Runtime(workers=2) as rt:
            bad = boom()
            dependent = add(bad, 1)
            with pytest.raises(TaskFailedError):
                compss_wait_on(dependent)
            rt.barrier()
            assert rt._result_futures == {}
            for future in (bad, dependent):
                instance = rt.graph.task(future.producer_task_id)
                assert instance.payload == ()
        assert bad.error is not None
        assert dependent.error is not None

    def test_submission_after_failure_fails_futures_immediately(self):
        with Runtime(workers=2) as rt:
            bad = boom()
            rt.barrier()
            late = add(bad, 1)  # ancestor already failed: poisoned at birth
            assert late.error is not None
            with pytest.raises(TaskFailedError):
                compss_wait_on(late)


class TestCompssOpenTimeout:
    def test_timeout_expires_while_writer_runs(self, tmp_path):
        path = str(tmp_path / "slow.txt")

        @task(out=FILE_OUT)
        def slow_write(out):
            time.sleep(1.0)
            with open(out, "w") as handle:
                handle.write("done")

        with Runtime(workers=2):
            slow_write(path)
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                compss_open(path, timeout=0.05)
            assert time.monotonic() - start < 0.9  # did not wait out the task

    def test_writer_failure_raises_mid_wait(self, tmp_path):
        path = str(tmp_path / "never.txt")

        @task(out=FILE_OUT)
        def failing_write(out):
            time.sleep(0.1)
            raise RuntimeError("disk on fire")

        with Runtime(workers=2):
            failing_write(path)
            # No timeout: the failure check inside the wait loop must fire
            # instead of hanging on a file that will never be written.
            with pytest.raises(TaskFailedError):
                compss_open(path)

    def test_completed_writer_opens_within_timeout(self, tmp_path):
        path = str(tmp_path / "fast.txt")

        @task(out=FILE_OUT)
        def quick_write(out):
            with open(out, "w") as handle:
                handle.write("42")

        with Runtime(workers=2):
            quick_write(path)
            with compss_open(path, timeout=5.0) as handle:
                assert handle.read() == "42"
