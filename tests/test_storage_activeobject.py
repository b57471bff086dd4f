"""Unit tests for the dataClay-like active object store and the SOI/SRI."""

import pytest

from repro.core.exceptions import StorageError
from repro.storage import (
    ActiveObject,
    ActiveObjectStore,
    StorageObject,
    StorageRuntime,
    set_storage_runtime,
)
from repro.storage.keyvalue import KeyValueCluster


NODES = ["store-0", "store-1", "store-2"]


class Matrix(ActiveObject):
    """Example domain class: a matrix with a reducing method."""

    def __init__(self, values):
        super().__init__()
        self.values = list(values)

    def total(self):
        return sum(self.values)

    def scale(self, factor):
        self.values = [v * factor for v in self.values]
        return len(self.values)


class TestActiveObjectStore:
    def test_store_and_fetch(self):
        store = ActiveObjectStore(NODES)
        m = Matrix(range(10))
        oid = store.store(m)
        fetched = store.fetch(oid)
        assert fetched.total() == 45

    def test_class_registered_on_store(self):
        store = ActiveObjectStore(NODES)
        store.store(Matrix([1]))
        assert store.registry.is_registered(Matrix)

    def test_in_store_call_returns_result(self):
        store = ActiveObjectStore(NODES)
        oid = store.store(Matrix(range(100)))
        assert store.call(oid, "total") == sum(range(100))

    def test_in_store_call_mutates_stored_object(self):
        store = ActiveObjectStore(NODES)
        oid = store.store(Matrix([1, 2, 3]))
        store.call(oid, "scale", 10)
        assert store.call(oid, "total") == 60

    def test_in_store_call_moves_fewer_bytes_than_fetch(self):
        store = ActiveObjectStore(NODES)
        oid = store.store(Matrix(range(10_000)))
        store.call(oid, "total")
        call_bytes = store.bytes_moved_calls
        store.fetch(oid)
        fetch_bytes = store.bytes_moved_fetch
        assert call_bytes * 10 < fetch_bytes

    def test_unregistered_method_rejected(self):
        store = ActiveObjectStore(NODES)
        oid = store.store(Matrix([1]))
        with pytest.raises(StorageError):
            store.call(oid, "_private")
        with pytest.raises(StorageError):
            store.call(oid, "no_such_method")

    def test_same_named_classes_each_run_their_own_method(self):
        """The registry used to be keyed by ``module.qualname``: the second
        of two classes defined in one function ran the first one's code."""

        def make(step):
            class Box:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += step
                    return self.count

            return Box

        first, second = make(1), make(100)
        assert first.__qualname__ == second.__qualname__
        store = ActiveObjectStore(NODES)
        id_a, id_b = store.store(first()), store.store(second())
        assert store.call(id_a, "bump") == 1
        assert store.call(id_b, "bump") == 100
        assert store.registry.is_registered(first)
        assert store.registry.is_registered(second)
        name = f"{first.__module__}.{first.__qualname__}"
        assert store.registry.class_names == [name, name]
        with pytest.raises(StorageError, match="has no registered method 'nope'"):
            store.call(id_b, "nope")
        with pytest.raises(StorageError, match="is not registered"):
            store.registry.lookup_method(make(2), "bump")

    def test_missing_object_raises(self):
        store = ActiveObjectStore(NODES)
        with pytest.raises(StorageError):
            store.fetch("ghost")

    def test_replication_survives_node_failure(self):
        store = ActiveObjectStore(NODES, replication=2)
        oid = store.store(Matrix([5, 5]))
        victim = next(iter(store.get_locations(oid)))
        store.fail_node(victim)
        assert store.call(oid, "total") == 10

    def test_active_object_remote_helper(self):
        store = ActiveObjectStore(NODES)
        m = Matrix([2, 4])
        m.make_persistent(store)
        assert m.is_persistent
        assert m.remote("total") == 6

    def test_remote_before_persist_raises(self):
        m = Matrix([1])
        with pytest.raises(StorageError):
            m.remote("total")

    def test_alias_in_use_is_refused(self):
        """``store`` used to replace the object under a taken id: the first
        object's remote calls then ran on the second."""
        store = ActiveObjectStore(NODES)
        first, second = Matrix([1, 2]), Matrix([100])
        first.make_persistent(store, alias="k")
        with pytest.raises(StorageError, match="already stored"):
            second.make_persistent(store, alias="k")
        assert not second.is_persistent
        with pytest.raises(StorageError, match="already stored"):
            store.store(Matrix([7]), object_id="k")
        assert first.remote("scale", 10) == 2
        assert first.remote("total") == 30
        assert store.fetch("k") is first
        # The SRI protocol's put keeps its overwrite semantics.
        store.put("k", second)
        assert store.call("k", "total") == 100


class Profile(StorageObject):
    """Example SOI subclass."""

    def __init__(self, name, score):
        super().__init__()
        self.name = name
        self.score = score


@pytest.fixture()
def sri():
    runtime = StorageRuntime()
    runtime.register_backend(KeyValueCluster(NODES, replication=2), default=True)
    set_storage_runtime(runtime)
    yield runtime
    set_storage_runtime(None)


class TestStorageObjectInterface:
    def test_make_persistent_and_locations(self, sri):
        p = Profile("ada", 10)
        oid = p.make_persistent()
        assert p.is_persistent
        assert p.getID() == oid
        assert len(sri.get_locations(oid)) == 2

    def test_make_persistent_idempotent(self, sri):
        p = Profile("ada", 10)
        assert p.make_persistent() == p.make_persistent()

    def test_roundtrip_from_storage(self, sri):
        p = Profile("grace", 99)
        oid = p.make_persistent()
        clone = Profile.from_storage(oid)
        assert clone.name == "grace"
        assert clone.score == 99

    def test_sync_to_storage_pushes_mutations(self, sri):
        p = Profile("alan", 1)
        oid = p.make_persistent()
        p.score = 2
        p.sync_to_storage()
        assert Profile.from_storage(oid).score == 2

    def test_delete_persistent(self, sri):
        p = Profile("x", 0)
        oid = p.make_persistent()
        p.delete_persistent()
        assert not p.is_persistent
        assert not sri.exists(oid)

    def test_alias(self, sri):
        p = Profile("named", 7)
        oid = p.make_persistent(alias="profiles/named")
        assert oid == "profiles/named"
        assert Profile.from_storage("profiles/named").score == 7

    def test_duplicate_alias_rejected(self, sri):
        Profile("a", 1).make_persistent(alias="dup")
        with pytest.raises(StorageError):
            Profile("b", 2).make_persistent(alias="dup")

    def test_multiple_backends(self, sri):
        sri.register_backend(ActiveObjectStore(NODES, name="dataclay"))
        p = Profile("multi", 3)
        oid = p.make_persistent(backend="dataclay")
        assert sri.exists(oid)
        assert sri.get_locations(oid) <= set(NODES)
