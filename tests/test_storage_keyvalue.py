"""Unit tests for the Hecuba-like key-value store and the hash ring."""

import pytest

from repro.core.exceptions import StorageError
from repro.storage import ConsistentHashRing, KeyValueCluster, StorageDict


NODES = [f"sn-{i}" for i in range(4)]


class TestConsistentHashRing:
    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing()
        ring.add_node("only")
        assert ring.primary_for("anything") == "only"

    def test_replicas_are_distinct(self):
        ring = ConsistentHashRing()
        for n in NODES:
            ring.add_node(n)
        replicas = ring.replicas_for("key-1", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_replica_count_capped_at_node_count(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        ring.add_node("b")
        assert len(ring.replicas_for("k", 5)) == 2

    def test_placement_stable_and_deterministic(self):
        def build():
            ring = ConsistentHashRing()
            for n in NODES:
                ring.add_node(n)
            return ring

        r1, r2 = build(), build()
        for i in range(50):
            assert r1.primary_for(f"key-{i}") == r2.primary_for(f"key-{i}")

    def test_node_join_moves_few_keys(self):
        ring = ConsistentHashRing()
        for n in NODES:
            ring.add_node(n)
        before = {f"key-{i}": ring.primary_for(f"key-{i}") for i in range(500)}
        ring.add_node("sn-new")
        moved = sum(
            1 for k, owner in before.items() if ring.primary_for(k) != owner
        )
        # With consistent hashing, ~1/5 of keys should move; assert well
        # under half (a naive mod-N hash would move ~80%).
        assert moved < 250
        # Moved keys must have moved to the new node only.
        for k, owner in before.items():
            now = ring.primary_for(k)
            assert now == owner or now == "sn-new"

    def test_load_roughly_balanced(self):
        ring = ConsistentHashRing(virtual_nodes=128)
        for n in NODES:
            ring.add_node(n)
        counts = {n: 0 for n in NODES}
        for i in range(2000):
            counts[ring.primary_for(f"key-{i}")] += 1
        for n in NODES:
            assert 0.4 * 500 < counts[n] < 2.2 * 500

    def test_remove_unknown_node_raises(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        with pytest.raises(StorageError):
            ring.remove_node("ghost")

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(StorageError):
            ring.primary_for("k")


class TestKeyValueCluster:
    def test_put_get_roundtrip(self):
        cluster = KeyValueCluster(NODES, replication=2)
        cluster.put("k1", {"a": 1})
        assert cluster.get("k1") == {"a": 1}

    def test_replication_places_copies(self):
        cluster = KeyValueCluster(NODES, replication=3)
        holders = cluster.put("k1", "value")
        assert len(holders) == 3
        assert cluster.get_locations("k1") == holders

    def test_survives_single_node_failure(self):
        cluster = KeyValueCluster(NODES, replication=2)
        for i in range(50):
            cluster.put(f"k{i}", i)
        victim = next(iter(cluster.get_locations("k0")))
        cluster.fail_node(victim)
        for i in range(50):
            assert cluster.get(f"k{i}") == i

    def test_unreplicated_data_lost_on_failure(self):
        cluster = KeyValueCluster(NODES, replication=1)
        cluster.put("k", "v")
        (holder,) = cluster.get_locations("k")
        cluster.fail_node(holder)
        with pytest.raises(StorageError):
            cluster.get("k")

    def test_delete_and_exists(self):
        cluster = KeyValueCluster(NODES)
        cluster.put("k", 1)
        assert cluster.exists("k")
        cluster.delete("k")
        assert not cluster.exists("k")
        with pytest.raises(StorageError):
            cluster.delete("k")

    def test_transfer_accounting_grows(self):
        cluster = KeyValueCluster(NODES, replication=2)
        cluster.put("k", list(range(1000)))
        assert cluster.bytes_written > 0
        cluster.get("k")
        assert cluster.bytes_read > 0

    def test_overwrite_after_join_leaves_no_copy_of_the_old_value(self):
        """A write used to go to the current preference list only: the copy
        on a former holder outlived the overwrite and was served once both
        current replicas had failed."""
        cluster = KeyValueCluster(
            [f"n{i}" for i in range(4)], replication=2, virtual_nodes=8
        )
        assert cluster.put("k0", "v1") == {"n0", "n1"}
        cluster.add_node("joiner")
        assert cluster.ring.preference_for("k0", 2) == ("joiner", "n1")
        assert cluster.put("k0", "v2") == {"joiner", "n1"}
        assert cluster.get_locations("k0") == {"joiner", "n1"}
        cluster.fail_node("joiner")
        assert cluster.get("k0") == "v2"
        cluster.fail_node("n1")
        with pytest.raises(StorageError):
            cluster.get("k0")  # never "v1"
        assert not cluster.exists("k0")

    def test_batched_overwrite_after_join_drops_former_holders_too(self):
        cluster = KeyValueCluster(
            [f"n{i}" for i in range(4)], replication=2, virtual_nodes=8
        )
        keys = [f"k{i}" for i in range(40)]
        cluster.put_many({key: "old" for key in keys})
        cluster.add_node("joiner")
        cluster.put_many({key: "new" for key in keys})
        for key in keys:
            assert cluster.get_locations(key) == set(cluster.preference_of(key))
        for node in sorted(cluster.alive_nodes):
            assert "old" not in cluster._data[node].values()


class TestStorageDict:
    def test_dict_protocol(self):
        cluster = KeyValueCluster(NODES)
        table = StorageDict(cluster, "experiments")
        table["alpha"] = 1
        table["beta"] = 2
        assert table["alpha"] == 1
        assert "beta" in table
        assert len(table) == 2
        assert sorted(table.keys()) == ["alpha", "beta"]
        assert dict(table.items()) == {"alpha": 1, "beta": 2}
        del table["alpha"]
        assert "alpha" not in table
        with pytest.raises(KeyError):
            table["alpha"]

    def test_get_default_and_update(self):
        cluster = KeyValueCluster(NODES)
        table = StorageDict(cluster, "t")
        assert table.get("missing", 42) == 42
        table.update({"x": 1, "y": 2})
        assert table["y"] == 2

    def test_overwrite_keeps_single_key(self):
        cluster = KeyValueCluster(NODES)
        table = StorageDict(cluster, "t")
        table["k"] = 1
        table["k"] = 2
        assert len(table) == 1
        assert table["k"] == 2

    def test_split_covers_all_keys_disjointly(self):
        cluster = KeyValueCluster(NODES, replication=2)
        table = StorageDict(cluster, "genome")
        for i in range(100):
            table[f"chunk-{i}"] = i
        partitions = table.split()
        seen = [k for keys in partitions.values() for k in keys]
        assert sorted(seen) == sorted(table.keys())
        # Partition owners hold their keys' primary replica.
        for node, keys in partitions.items():
            for key in keys:
                assert node in table.location_of(key)

    def test_two_tables_do_not_collide(self):
        cluster = KeyValueCluster(NODES)
        t1 = StorageDict(cluster, "t1")
        t2 = StorageDict(cluster, "t2")
        t1["k"] = "one"
        t2["k"] = "two"
        assert t1["k"] == "one"
        assert t2["k"] == "two"

    def test_keys_whose_cell_died_are_forgotten(self):
        # Unreplicated: every cell on the failed node loses its last replica.
        cluster = KeyValueCluster(NODES, replication=1)
        table = StorageDict(cluster, "t")
        table.update({f"k{i}": i for i in range(200)})
        victim = "sn-0"
        dead = set(table.split()[victim])
        assert dead and len(dead) < 200
        cluster.fail_node(victim)
        alive = [key for key in (f"k{i}" for i in range(200)) if key not in dead]
        assert all(key not in table for key in dead)
        assert all(key in table for key in alive)
        assert len(table) == len(alive) and table.keys() == alive
        assert table.get(next(iter(dead)), "gone") == "gone"
        partitions = table.split()
        assert sorted(k for keys in partitions.values() for k in keys) == sorted(alive)
        # Every partition is readable: no task built from the split fails.
        for keys in partitions.values():
            assert {k: table[k] for k in keys} == {k: int(k[1:]) for k in keys}
        # A dead key can be written again and is a member again.
        revived = next(iter(dead))
        table[revived] = -1
        assert revived in table and table[revived] == -1
        assert len(table) == len(alive) + 1

    def test_replicated_cells_survive_a_failure_as_members(self):
        cluster = KeyValueCluster(NODES, replication=2)
        table = StorageDict(cluster, "t")
        table.update({f"k{i}": i for i in range(100)})
        cluster.fail_node("sn-1")
        assert len(table) == 100
        assert dict(table.items()) == {f"k{i}": i for i in range(100)}
