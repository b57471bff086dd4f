"""Unit tests for the Access Processor: dependency derivation from accesses."""

import pytest

from repro.core.access_processor import AccessProcessor
from repro.core.data import DataRegistry, DependencyTracker
from repro.core.futures import Future
from repro.core.parameter import FILE_IN, FILE_OUT, IN, INOUT, OUT
from repro.core.task_definition import TaskDefinition
from repro.executor.local import LocalExecutor


def define(fn, returns=0, **directions):
    return TaskDefinition(fn, returns=returns, param_directions=directions)


class TestResultFutures:
    def test_returns_mint_futures(self):
        ap = AccessProcessor()
        d = define(lambda a: a, returns=2)
        registered = ap.register_task(d, (1,), {})
        assert len(registered.futures) == 2
        assert all(isinstance(f, Future) for f in registered.futures)
        assert registered.instance.writes == tuple(
            f.datum_id for f in registered.futures
        )

    def test_future_arg_creates_raw_dependency(self):
        ap = AccessProcessor()
        producer = ap.register_task(define(lambda: 1, returns=1), (), {})
        consumer = ap.register_task(
            define(lambda x: x, returns=1), (producer.futures[0],), {}
        )
        assert consumer.depends_on == {producer.instance.task_id}
        assert consumer.instance.payload == (producer.futures[0],)

    def test_independent_tasks_have_no_dependencies(self):
        ap = AccessProcessor()
        a = ap.register_task(define(lambda v: v, returns=1), (1,), {})
        b = ap.register_task(define(lambda v: v, returns=1), (2,), {})
        assert a.depends_on == set()
        assert b.depends_on == set()


class TestObjectDependencies:
    def test_inout_chains_serialize(self):
        ap = AccessProcessor()
        shared = []
        d = define(lambda c: c, c=INOUT)
        first = ap.register_task(d, (shared,), {})
        second = ap.register_task(d, (shared,), {})
        assert second.depends_on == {first.instance.task_id}

    def test_reader_then_writer_war(self):
        ap = AccessProcessor()
        shared = []
        reader = ap.register_task(define(lambda c: c, c=IN), (shared,), {})
        writer = ap.register_task(define(lambda c: c, c=INOUT), (shared,), {})
        assert reader.instance.task_id in writer.depends_on

    def test_parallel_readers_do_not_depend_on_each_other(self):
        ap = AccessProcessor()
        shared = [1]
        d = define(lambda c: c, c=IN)
        r1 = ap.register_task(d, (shared,), {})
        r2 = ap.register_task(d, (shared,), {})
        assert r2.depends_on == set()
        assert r1.depends_on == set()

    def test_readers_after_write_depend_on_writer(self):
        ap = AccessProcessor()
        shared = [1]
        writer = ap.register_task(define(lambda c: c, c=INOUT), (shared,), {})
        reader = ap.register_task(define(lambda c: c, c=IN), (shared,), {})
        assert reader.depends_on == {writer.instance.task_id}

    def test_small_immutables_not_tracked(self):
        ap = AccessProcessor()
        ap.register_task(define(lambda a, b: None), (5, "text"), {})
        assert ap.registry.datum_ids == []

    def test_out_direction_writes_without_reading(self):
        ap = AccessProcessor()
        target = {}
        writer = ap.register_task(define(lambda c: c, c=OUT), (target,), {})
        assert writer.instance.reads == ()
        assert len(writer.instance.writes) == 1


class TestFileDependencies:
    def test_file_out_then_file_in(self):
        ap = AccessProcessor()
        writer = ap.register_task(
            define(lambda path: None, path=FILE_OUT), ("/tmp/x.dat",), {}
        )
        reader = ap.register_task(
            define(lambda path: None, path=FILE_IN), ("/tmp/x.dat",), {}
        )
        assert reader.depends_on == {writer.instance.task_id}

    def test_paths_normalized(self):
        ap = AccessProcessor()
        writer = ap.register_task(
            define(lambda path: None, path=FILE_OUT), ("/tmp/a/../x.dat",), {}
        )
        reader = ap.register_task(
            define(lambda path: None, path=FILE_IN), ("/tmp/x.dat",), {}
        )
        assert reader.depends_on == {writer.instance.task_id}

    def test_non_string_file_param_rejected(self):
        ap = AccessProcessor()
        with pytest.raises(TypeError):
            ap.register_task(define(lambda path: None, path=FILE_IN), (123,), {})


class TestCollections:
    def test_futures_inside_list_tracked(self):
        ap = AccessProcessor()
        producers = [
            ap.register_task(define(lambda: 1, returns=1), (), {}) for _ in range(3)
        ]
        futures = [p.futures[0] for p in producers]
        consumer = ap.register_task(define(lambda items: items, returns=1), (futures,), {})
        assert consumer.depends_on == {p.instance.task_id for p in producers}
        # All three are substituted when the task runs.
        for value, future in enumerate(futures):
            future.resolve(value)
        materialize = LocalExecutor._materialize_arguments
        assert materialize(consumer.instance) == [[0, 1, 2]]

    def test_mixed_list_only_tracks_futures(self):
        ap = AccessProcessor()
        producer = ap.register_task(define(lambda: 1, returns=1), (), {})
        mixed = [1, producer.futures[0], "x"]
        consumer = ap.register_task(define(lambda items: items, returns=1), (mixed,), {})
        assert consumer.depends_on == {producer.instance.task_id}


class TestDataRegistry:
    def test_object_identity_stable(self):
        registry = DataRegistry()
        obj = [1]
        assert registry.register_object(obj) is registry.register_object(obj)

    def test_distinct_objects_distinct_records(self):
        registry = DataRegistry()
        assert (
            registry.register_object([1]).datum_id
            != registry.register_object([1]).datum_id
        )

    def test_versions_bump_on_write(self):
        registry = DataRegistry()
        tracker = DependencyTracker()
        obj = []
        record = registry.register_object(obj)
        assert record.version == 0 and record.writer is None
        tracker.write(record, 7, set())
        assert record.version == 1 and record.writer == 7
        assert registry.record_for_object(obj) is record  # reset in place

    def test_readers_recorded_per_version(self):
        registry = DataRegistry()
        tracker = DependencyTracker()
        record = registry.register_object([])
        tracker.read(record, 1, set())
        tracker.read(record, 2, set())
        assert record.readers == [1, 2]
        deps = set()
        tracker.write(record, 3, deps)
        assert deps == {1, 2}
        assert list(record.readers) == []

    def test_unpin_forgets_object(self):
        registry = DataRegistry()
        obj = [1]
        first = registry.register_object(obj)
        registry.unpin_object(obj)
        second = registry.register_object(obj)
        assert first.datum_id != second.datum_id
