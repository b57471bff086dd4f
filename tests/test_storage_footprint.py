"""A stored object costs what an object does (E21 footprint).

The storage plane keeps every cell and every active object for as long as
it is stored, so what each one leaves behind in ``repro/storage`` decides
the heap of a million-object campaign.  These tests pin the bytes owned per
stored cell and per persisted ``ActiveObject`` (``tracemalloc``, the lines
of ``repro/storage/*.py`` only), that the ring's own state is O(arcs) and
the cluster's O(live cells) — nothing is kept for an id that is not stored
— that a key is hashed once per ring version, and that one slotted record
per active object keeps the holders, the survivor promotion and the
pickle-once sizing a per-holder model gives (that model lives on here as
the oracle).
"""

import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import StorageError
from repro.storage import (
    ActiveObject,
    ActiveObjectStore,
    ConsistentHashRing,
    KeyValueCluster,
    StorageDict,
    estimate_size,
)

NODES = [f"dn-{i}" for i in range(16)]
CELLS = 20_000
OBJECTS = 5_000
STORAGE_DIR = os.sep + os.path.join("repro", "storage") + os.sep


class Counter(ActiveObject):
    def __init__(self, payload):
        super().__init__()
        self.values = payload
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total

    def peek(self):
        return self.total


def _storage_bytes():
    """Live bytes allocated by a line of ``repro/storage/*.py``."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    return sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if STORAGE_DIR in stat.traceback[0].filename
    )


def _per_cell_entries(cluster):
    return (
        len(cluster._sizes)
        + len(cluster._placement)
        + sum(len(table) for table in cluster._data.values())
    )


def _count_preference_for(ring):
    """Count the ring's resolutions from here on (its one entry point)."""
    calls = []
    resolve = ring.preference_for

    def counting(key, count):
        calls.append(key)
        return resolve(key, count)

    ring.preference_for = counting
    return calls


class TestFootprint:
    def test_bytes_per_stored_cell(self):
        cells = {f"cell-{i}": (i, i * 7919 % (1 << 30)) for i in range(CELLS)}
        tracemalloc.start()
        try:
            before = _storage_bytes()
            cluster = KeyValueCluster(NODES, replication=2)
            table = StorageDict(cluster, "perf")
            table.update(cells)
            read_back = {key: table[key] for key in table.keys()}
            split = table.split()
            by_partition = {
                key: table[key] for keys in split.values() for key in keys
            }
            per_cell = (_storage_bytes() - before) / CELLS
        finally:
            tracemalloc.stop()
        assert read_back == by_partition == cells
        # The cell-id str, one slot each in the key map, the size map and
        # the placement map, one per replica table: 192 B on 3.11, 238 B on
        # 3.9.  The per-(key, count) memo version held 566 B.
        assert per_cell <= 260.0, per_cell

    def test_bytes_per_active_object(self):
        payloads = [[(i * 31 + j) % 1000 for j in range(32)] for i in range(OBJECTS)]
        tracemalloc.start()
        try:
            before = _storage_bytes()
            store = ActiveObjectStore(NODES, replication=2)
            counters = [Counter(payload) for payload in payloads]
            for counter in counters:
                counter.make_persistent(store)
            for amount in (1, 2):
                for counter in counters:
                    assert counter.remote("add", amount) in (1, 3)
            fetched = [store.fetch(counter.getID()) for counter in counters]
            per_object = (_storage_bytes() - before) / OBJECTS
        finally:
            tracemalloc.stop()
        assert all(obj.total == 3 for obj in fetched)
        # One slotted record, the id str, three table slots, and the
        # ``__dict__`` that ``__getstate__`` materializes: 304 B on 3.11
        # (351 B while the record also held a digest int and a replica
        # version; 421 B on 3.9 then).  The dataclass + list + dict version
        # held 763 B.
        assert per_object <= 450.0, per_object


class TestBoundedState:
    def test_ring_state_is_per_arc_not_per_key(self):
        ring = ConsistentHashRing()
        for node in NODES:
            ring.add_node(node)
        arcs = len(NODES) * ring.virtual_nodes
        for i in range(50_000):
            ring.preference_for(f"key-{i}", 1 + i % 3)
        containers = [v for v in vars(ring).values() if hasattr(v, "__len__")]
        nested = [
            inner
            for outer in containers
            if isinstance(outer, dict)
            for inner in outer.values()
            if hasattr(inner, "__len__")
        ]
        assert nested, "the arc tables should have been filled"
        assert all(len(c) <= arcs for c in containers + nested)

    def test_deleting_every_cell_empties_the_per_cell_containers(self):
        cluster = KeyValueCluster(NODES[:4], replication=2)
        table = StorageDict(cluster, "t")
        table.update({i: i for i in range(500)})
        assert _per_cell_entries(cluster) == 500 * 4
        for key in table.keys():
            del table[key]
        assert _per_cell_entries(cluster) == 0
        assert len(table._keys) == 0

    @pytest.mark.parametrize("replication", [1, 2])
    def test_failing_every_node_empties_the_per_cell_containers(self, replication):
        cluster = KeyValueCluster(NODES[:4], replication=replication)
        cluster.put_many({f"k{i}": i for i in range(500)})
        for node in NODES[:3]:
            cluster.fail_node(node)
            # A size is kept for exactly the cells that still have a replica.
            live = set().union(*cluster._data.values())
            assert set(cluster._sizes) == live
            assert all(cluster.exists(key) for key in live)
        cluster.fail_node(NODES[3])
        assert _per_cell_entries(cluster) == 0
        assert not cluster.exists("k0")

    def test_an_id_that_was_never_stored_leaves_no_entry(self):
        cluster = KeyValueCluster(NODES[:4], replication=2)
        table = StorageDict(cluster, "t")
        table.update({i: i for i in range(10)})
        before = _per_cell_entries(cluster)
        for ghost in ("ghost", "t:99"):
            with pytest.raises(StorageError):
                cluster.get(ghost)
            with pytest.raises(StorageError):
                cluster.delete(ghost)
            assert not cluster.exists(ghost)
            assert cluster.get_locations(ghost) == set()
            assert len(cluster.preference_of(ghost)) == 2
        assert 99 not in table and table.get(99) is None
        assert table.location_of(99) == set()
        with pytest.raises(KeyError):
            table[99]
        assert _per_cell_entries(cluster) == before
        assert len(table._keys) == 10


class TestResolutionCounts:
    def test_a_key_is_hashed_once_per_ring_version(self):
        cluster = KeyValueCluster(NODES[:4], replication=2)
        table = StorageDict(cluster, "t")
        cells = {i: i * 10 for i in range(300)}
        calls = _count_preference_for(cluster.ring)
        table.update(cells)
        assert len(calls) == 300  # one per written cell
        del calls[:]
        first = table.split()
        assert {key: table[key] for key in table.keys()} == cells
        assert table.split() == first
        assert sum(len(cluster.keys_on_node(node)) for node in NODES[:4]) == 300
        assert calls == []  # reads and splits are dict probes only
        cluster.add_node("joiner")
        table.split()
        assert sorted(calls) == sorted(f"t:{key!r}" for key in cells)
        del calls[:]
        table.split()
        assert {key: table[key] for key in table.keys()} == cells
        assert calls == []


# ------------------------------------------------------------ replica model


class PerHolderReference:
    """One object's bookkeeping as the store kept it before the record was
    slotted: a holder list walked per holder, a size re-taken at most once
    per observed version.  Same transitions, same counter."""

    def __init__(self, holders, value):
        self.value = value
        self.holders = list(holders)
        self.version = 0
        self.size_version = 0
        self.size_bytes = estimate_size(value)
        self.size_computations = 1

    def call(self):
        self.version += 1

    def current_size(self):
        if self.size_version != self.version:
            self.size_bytes = estimate_size(self.value)
            self.size_computations += 1
            self.size_version = self.version
        return self.size_bytes

    def fail_node(self, node):
        if node in self.holders:
            self.holders.remove(node)


class TestReplicaModel:
    @given(
        replication=st.integers(1, 4),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(1, 9)),
                st.tuples(st.just("peek"), st.just(0)),
                st.tuples(st.just("fetch"), st.just(0)),
                st.tuples(st.just("fail"), st.integers(0, 4)),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_int_carries_what_the_per_holder_dict_did(self, replication, ops):
        nodes = [f"an-{i}" for i in range(5)]
        store = ActiveObjectStore(nodes, replication=replication)
        oid = store.store(Counter([1, 2, 3]))
        holders = store.ring.replicas_for(oid, replication)
        reference = PerHolderReference(holders, Counter([1, 2, 3]))
        assert store.get_locations(oid) == set(holders)
        for op, arg in ops:
            if not reference.holders:
                break
            if op == "add":
                reference.value.add(arg)
                reference.call()
                store.call(oid, "add", arg)
            elif op == "peek":
                reference.call()
                store.call(oid, "peek")
            elif op == "fetch":
                reference.current_size()
                assert store.fetch(oid).total == reference.value.total
            elif nodes[arg] in store.alive_nodes:
                reference.fail_node(nodes[arg])
                store.fail_node(nodes[arg])
            assert store.exists(oid) == bool(reference.holders)
            assert store.get_locations(oid) == set(reference.holders)
            assert store.size_computations == reference.size_computations
