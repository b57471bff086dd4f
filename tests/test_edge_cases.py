"""Targeted error-path and edge-case tests across the library."""

import sys
import threading
import time

import pytest

from repro import FILE_OUT, Runtime, TaskFailedError, compss_open, compss_wait_on, task
from repro.core.exceptions import RuntimeNotStartedError, StorageError
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.executor.simulated import SimulatedExecutionError
from repro.infrastructure import Node, Platform, make_hpc_cluster
from repro.scheduling.capacity import CapacityError, CapacityLedger
from repro.simulation import EventQueue
from repro.storage import estimate_size
from repro.storage.interface import StorageRuntime
from repro.streams import DataStream, StreamElement


class TestTaskDefinitionValidation:
    def test_varargs_rejected(self):
        with pytest.raises(TypeError):

            @task(returns=1)
            def bad(*args):
                return args

    def test_kwargs_rejected(self):
        with pytest.raises(TypeError):

            @task(returns=1)
            def bad(**kwargs):
                return kwargs

    def test_unknown_direction_param_rejected(self):
        from repro import INOUT

        with pytest.raises(ValueError):

            @task(ghost=INOUT)
            def bad(x):
                return x

    def test_non_parameter_direction_rejected(self):
        with pytest.raises(TypeError):

            @task(x="inout")
            def bad(x):
                return x

    def test_negative_returns_rejected(self):
        with pytest.raises(ValueError):

            @task(returns=-1)
            def bad(x):
                return x


class TestRuntimeErrorPaths:
    def test_wrong_return_arity_fails_future(self):
        @task(returns=2)
        def one_value(x):
            return x  # not iterable into 2 values -> runtime error path

        with Runtime(workers=2):
            a, b = one_value(7)
            with pytest.raises(Exception):
                compss_wait_on(a)

    def test_compss_open_on_failed_writer_raises(self, tmp_path):
        path = str(tmp_path / "never.txt")

        @task(out=FILE_OUT)
        def boom(out):
            raise IOError("disk on fire")

        with Runtime(workers=2):
            boom(path)
            with pytest.raises(TaskFailedError):
                compss_open(path)

    def test_wait_on_timeout(self):
        import threading

        release = threading.Event()

        @task(returns=1)
        def blocked(x):
            release.wait(5.0)
            return x

        with Runtime(workers=2) as runtime:
            future = blocked(1)
            with pytest.raises(TimeoutError):
                runtime.wait_on(future, timeout=0.1)
            release.set()

    def test_exception_exit_does_not_hang(self):
        import time

        @task(returns=1)
        def slow(x):
            time.sleep(0.05)
            return x

        with pytest.raises(RuntimeError):
            with Runtime(workers=2):
                slow(1)
                raise RuntimeError("user error mid-workflow")
        # A fresh runtime still works afterwards.
        with Runtime(workers=2):
            assert compss_wait_on(slow(2)) == 2


@task(returns=1)
def _pause(seconds, x):
    time.sleep(seconds)
    return x


@task(returns=1)
def _held(seconds):
    threading.Event().wait(seconds)  # blocks on an Event nobody sets
    return seconds


@task(out=FILE_OUT)
def _held_write(seconds, out):
    threading.Event().wait(seconds)
    with open(out, "w") as handle:
        handle.write("done")


class TestOneWait:
    def test_stop_without_wait_fails_a_stranded_waiter(self):
        outcome = []

        def waiter():
            try:
                outcome.append(rt.wait_on(futures[-1]))
            except RuntimeNotStartedError as error:
                outcome.append((error, time.monotonic()))

        rt = Runtime(workers=1).start()
        try:
            futures = rt.submit_many(_pause, [((0.01, i),) for i in range(200)])
            thread = threading.Thread(target=waiter, daemon=True)  # fails, not hangs
            thread.start()
            give_up = time.monotonic() + 5
            while futures[-1].producer_task_id not in rt._waiting_on:
                assert time.monotonic() < give_up
                time.sleep(0.005)
        finally:
            stopped = time.monotonic()
            rt.stop(wait=False)
        thread.join(5)
        assert not thread.is_alive()
        (error, raised_at), = outcome
        assert raised_at - stopped < 1.0
        assert f"task _pause#{futures[-1].producer_task_id}" in str(error)
        # An unplaced task does not burn its timeout; a settled one still returns.
        start = time.monotonic()
        with pytest.raises(RuntimeNotStartedError, match="_pause#"):
            rt.wait_on(futures[-2], timeout=2.5)
        assert time.monotonic() - start < 1.0
        assert rt.wait_on(futures[0]) == 0
        with pytest.raises(RuntimeNotStartedError, match="barrier"):
            rt.barrier()

    @pytest.mark.parametrize("listed", [False, True])
    def test_wait_on_timeout_bounds_the_whole_call(self, listed):
        with Runtime(workers=1) as rt:
            futures = [_pause(0.25, i) for i in range(4)]
            start = time.monotonic()
            with pytest.raises(TimeoutError, match=r"task _pause#\d+ timed out after 0\.3 s"):
                rt.wait_on(futures, timeout=0.3) if listed else rt.wait_on(*futures, timeout=0.3)
            assert time.monotonic() - start < 0.75  # not 0.3 s per item

    def test_barrier_and_compss_open_timeouts_name_their_target(self, tmp_path):
        path = str(tmp_path / "late.txt")
        with Runtime(workers=2) as rt:
            _held_write(1.0, path)
            with pytest.raises(TimeoutError, match=r"wait on barrier timed out after 0\.05 s"):
                rt.barrier(timeout=0.05)
            with pytest.raises(
                TimeoutError, match=r"wait on task _held_write#\d+ timed out after 0\.05 s"
            ):
                compss_open(path, timeout=0.05)

    @pytest.mark.parametrize("sync", ["wait_on", "barrier", "compss_open"])
    def test_an_untimed_wait_sleeps_until_notified(self, sync, tmp_path, monkeypatch):
        path = str(tmp_path / "held.txt")
        with Runtime(workers=2) as rt:
            timeouts = []
            wait = rt._cv.wait

            def counting_wait(timeout=None):
                timeouts.append(timeout)
                return wait(timeout)

            def synchronize():
                if sync == "compss_open":
                    compss_open(path).close()
                elif sync == "wait_on":
                    rt.wait_on(future)
                else:
                    rt.barrier()

            monkeypatch.setattr(rt._cv, "wait", counting_wait)
            future = _held_write(2.0, path) if sync == "compss_open" else _held(2.0)
            # Untimed, so run it on a thread: a missed wakeup fails the join.
            start = time.monotonic()
            thread = threading.Thread(target=synchronize, daemon=True)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            waited, calls = time.monotonic() - start, list(timeouts)
        assert waited >= 1.5
        assert calls and len(calls) <= 2 and all(timeout is None for timeout in calls)

    def test_concurrent_waiters_wake_and_unregister(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Runtime(workers=4) as rt:
                futures = rt.submit_many(_pause, [((0.0005 * (i % 7), i),) for i in range(400)])
                results = {}

                def waiter(index):
                    picked = futures[index::16]
                    results[index] = rt.wait_on(picked, timeout=30)
                    rt.barrier(timeout=30)

                threads = [threading.Thread(target=waiter, args=(i,)) for i in range(16)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == {i: list(range(400))[i::16] for i in range(16)}
                assert rt._waiting_on == {}
        finally:
            sys.setswitchinterval(interval)


class TestSimulatedExecutorEdges:
    def test_unrunnable_tasks_raise_explicitly(self):
        builder = SimWorkflowBuilder()
        # Requires mpi software no node in this bare platform has.
        builder.add_task("sim", duration=1.0, software=["mpi"])
        platform = Platform()
        platform.add_node(Node("bare", cores=4))
        executor = SimulatedExecutor(builder.graph, platform)
        with pytest.raises(SimulatedExecutionError):
            executor.run()

    def test_run_until_reports_partial_progress(self):
        builder = SimWorkflowBuilder()
        for i in range(4):
            builder.add_task(f"t{i}", duration=100.0)
        platform = make_hpc_cluster(1, cores_per_node=1)
        executor = SimulatedExecutor(builder.graph, platform)
        with pytest.raises(SimulatedExecutionError):
            executor.run(until=150.0)  # only 1 of 4 can have finished

    def test_zero_duration_tasks_complete(self):
        builder = SimWorkflowBuilder()
        builder.add_task("instant", duration=0.0)
        platform = make_hpc_cluster(1)
        report = SimulatedExecutor(builder.graph, platform).run()
        assert report.makespan == 0.0
        assert report.tasks_done == 1


class TestCapacityLedgerEdges:
    def test_remove_unknown_node(self):
        ledger = CapacityLedger([Node("a")])
        with pytest.raises(CapacityError):
            ledger.remove_node("ghost")
        with pytest.raises(CapacityError):
            ledger.state("ghost")

    def test_remove_returns_state_with_running_tasks(self):
        from repro.core.constraints import ResolvedRequirements

        ledger = CapacityLedger([Node("a", cores=4)])
        ledger.state("a").allocate(7, ResolvedRequirements(cores=2))
        state = ledger.remove_node("a")
        assert state.running_task_ids == {7}


class TestEventQueueEdges:
    def test_pop_empty_returns_none(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert queue.peek_time() is None


class TestStorageEdges:
    def test_estimate_size_unpicklable_fallback(self):
        # The fallback is a sys.getsizeof-based shallow estimate, not a
        # flat 64-byte charge: a real footprint, proportional to content.
        import sys

        size = estimate_size(lambda: None)
        assert size >= sys.getsizeof(lambda: None)

    def test_estimate_size_unpicklable_scales_with_content(self):
        # A container full of unpicklable callbacks must cost far more
        # than a single one (the seed charged both a flat 64 bytes).
        one = estimate_size([lambda: None])
        many = estimate_size([(lambda i=i: i) for i in range(1000)])
        assert many > one * 100

    def test_sri_without_backend_raises(self):
        sri = StorageRuntime()
        with pytest.raises(StorageError):
            sri.persist({"x": 1})

    def test_sri_unknown_object_raises(self):
        from repro.storage import KeyValueCluster

        sri = StorageRuntime()
        sri.register_backend(KeyValueCluster(["n0"]), default=True)
        with pytest.raises(StorageError):
            sri.retrieve("ghost")
        with pytest.raises(StorageError):
            sri.get_locations("ghost")
        assert not sri.exists("ghost")


class TestStreamEdges:
    def test_equal_timestamps_allowed(self):
        stream = DataStream("s")
        stream.publish(StreamElement(1.0, "a"))
        stream.publish(StreamElement(1.0, "b"))  # simultaneous sensors
        assert len(stream) == 2

    def test_subscriber_added_late_misses_history(self):
        stream = DataStream("s")
        stream.publish(StreamElement(1.0, "early"))
        seen = []
        stream.subscribe(seen.append)
        stream.publish(StreamElement(2.0, "late"))
        assert [e.value for e in seen] == ["late"]
        # ...but history is still queryable.
        assert len(stream.elements) == 2


class TestGangEdgeCases:
    def test_gang_larger_than_cluster_detected(self):
        from repro import ConstraintUnsatisfiableError
        from repro.core.constraints import ResolvedRequirements
        from repro.scheduling import TaskScheduler

        platform = make_hpc_cluster(2)
        scheduler = TaskScheduler(platform)
        # 'nodes' isn't part of per-node satisfiability (any node fits the
        # per-node slice), but placement must return None, never a partial
        # allocation.
        from repro.core.graph import TaskInstance

        gang = TaskInstance(
            task_id=1,
            label="huge-mpi",
            requirements=ResolvedRequirements(cores=48, nodes=5),
        )
        assert scheduler.try_place(gang) is None
        assert scheduler.total_free_cores == 2 * 48
