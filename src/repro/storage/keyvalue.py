"""Hecuba analogue: a partitioned, replicated key-value store.

"Hecuba ... aims to facilitate programmers the utilization of key-value
datastores ... the most representative case is the mapping of Python
dictionaries into Cassandra tables." (§VI-A1)

The Cassandra/ScyllaDB substitution (DESIGN.md §2) is a consistent-hash ring
over named storage nodes with N-way replication.  What the reproduction
needs from it — and what this module provides — is:

* stable key→node placement so ``getLocations`` is meaningful;
* replica survival when a node fails (claim C5's recovery path);
* :class:`StorageDict`, the dict-as-table mapping, with Hecuba's ``split()``
  so tasks can iterate partitions data-locally (claim C4).

Data-plane hot path: a stored cell costs what a cell does.  The ring
resolves a key by hash → bisect → one shared preference tuple *per ring
arc* (its own state is O(arcs), never O(keys)); the cluster keeps one
placement slot per *live* cell — that shared tuple, valid for one ring
version — so between membership changes a key is hashed once in its life
and a read is dict probes only; cell sizes are pickled once at write time
and reused by every read; the dict-as-table layer maps each key to its
cell-id string, built once.  A membership change drops the arc tables and
the placement slots whole; nothing here has a bound to tune.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.exceptions import StorageError
from repro.storage.interface import estimate_size


def _hash64(value: str) -> int:
    """Stable 64-bit hash (Python's hash() is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Consistent hashing with virtual nodes.

    Placement of a key is stable under unrelated node joins/leaves: only keys
    whose arc is affected move (the property the paper's storage backends get
    from Cassandra).

    The arc is the unit of placement: every key hashing onto one arc shares
    one preference list, so the ring keeps one lazily filled table of shared
    tuples per ``count`` asked for (``len(ring)`` slots each) and drops them
    whole on every ``add_node``/``remove_node`` — the membership change that
    also bumps ``version``.  A lookup is hash + bisect + one list index.
    """

    def __init__(self, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._ring: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._nodes: Set[str] = set()
        #: Bumped on every membership change; preference tuples handed out
        #: are only valid for the version they were resolved at.
        self.version = 0
        #: ``{count: [preference tuple | None] per arc}``.
        self._arc_preferences: Dict[int, List[Optional[Tuple[str, ...]]]] = {}

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise StorageError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self.virtual_nodes):
            token = _hash64(f"{node}@{v}")
            index = bisect.bisect(self._hashes, token)
            self._hashes.insert(index, token)
            self._ring.insert(index, (token, node))
        self.version += 1
        self._arc_preferences = {}

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise StorageError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        keep = [(t, n) for t, n in self._ring if n != node]
        self._ring = keep
        self._hashes = [t for t, _ in keep]
        self.version += 1
        self._arc_preferences = {}

    def _arc_of(self, key: str) -> int:
        """Index into ``_ring`` of the arc ``key`` hashes onto."""
        if not self._ring:
            raise StorageError("ring has no nodes")
        return bisect.bisect(self._hashes, _hash64(str(key))) % len(self._ring)

    def preference_for(self, key: str, count: int) -> Tuple[str, ...]:
        """The ``count`` distinct nodes responsible for ``key``, in ring order.

        Returns the arc's shared tuple — callers must not rely on mutating it.
        """
        arc = self._arc_of(key)
        table = self._arc_preferences.get(count)
        if table is None:
            table = self._arc_preferences[count] = [None] * len(self._ring)
        chosen = table[arc]
        if chosen is None:
            count = min(count, len(self._nodes))
            picked: List[str] = []
            index = arc
            while len(picked) < count:
                node = self._ring[index][1]
                if node not in picked:
                    picked.append(node)
                index = (index + 1) % len(self._ring)
            chosen = table[arc] = tuple(picked)
        return chosen

    def replicas_for(self, key: str, count: int) -> List[str]:
        """The ``count`` distinct nodes responsible for ``key``, in ring order."""
        return list(self.preference_for(key, count))

    def primary_for(self, key: str) -> str:
        return self._ring[self._arc_of(key)][1]


class KeyValueCluster:
    """An in-process cluster of key-value storage nodes.

    Implements the :class:`~repro.storage.interface.StorageBackend` protocol,
    so it can serve as an SRI backend, and additionally exposes the
    cell-level operations :class:`StorageDict` needs.

    Per *live* cell (one with a replica on an alive node) the cluster keeps
    two slots and nothing else: its serialized size, computed once per write
    (pickle-once accounting — reads charge it instead of re-serializing), and
    its ring preference tuple, created by the write, re-resolved at most once
    after a membership change, dropped with the cell.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        replication: int = 2,
        name: str = "hecuba",
        virtual_nodes: int = 64,
    ) -> None:
        self.name = name
        self.replication = max(1, replication)
        self.ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self._data: Dict[str, Dict[str, Any]] = {}
        self._alive: Set[str] = set()
        # Serialized size of each live cell, computed once at write time.
        self._sizes: Dict[str, int] = {}
        # The ring's (arc-shared) preference tuple of live cells resolved at
        # the current ring version; emptied by every membership change.
        self._placement: Dict[str, Tuple[str, ...]] = {}
        for node in node_names:
            self.add_node(node)
        if not self._alive:
            raise StorageError("key-value cluster needs at least one node")
        # Metrics: bytes written/read across the (virtual) wire.
        self.bytes_written = 0
        self.bytes_read = 0

    # ---------------------------------------------------------------- nodes

    @property
    def alive_nodes(self) -> Set[str]:
        return set(self._alive)

    def add_node(self, node: str) -> None:
        self.ring.add_node(node)
        self._data.setdefault(node, {})
        self._alive.add(node)
        self._placement.clear()

    def fail_node(self, node: str) -> None:
        """Simulate a storage node crash: its replicas become unavailable."""
        if node not in self._alive:
            raise StorageError(f"node {node!r} is not alive")
        self._alive.discard(node)
        self.ring.remove_node(node)
        self._placement.clear()
        dropped = self._data[node]
        self._data[node] = {}
        # A cell whose last replica just died is gone: forget its size too.
        survivors = [self._data[other] for other in self._alive]
        for object_id in dropped:
            if not any(object_id in table for table in survivors):
                del self._sizes[object_id]

    # ----------------------------------------------------------- operations

    def preference_of(self, object_id: str) -> Tuple[str, ...]:
        """The ring's current preference tuple for ``object_id``.

        A live cell is hashed once per ring version (its placement slot);
        an id that is not stored is resolved but never remembered.
        """
        holders = self._placement.get(object_id)
        if holders is None:
            holders = self.ring.preference_for(object_id, self.replication)
            if object_id in self._sizes:
                self._placement[object_id] = holders
        return holders

    def put(self, object_id: str, value: Any) -> Set[str]:
        self.put_many({object_id: value})
        return set(self._placement[object_id])

    def put_many(self, cells: Mapping[str, Any]) -> None:
        """Batched write path: one size computation and one ring resolution
        per new cell, no per-call holder-set materialization."""
        sizes = self._sizes
        data = self._data
        placement = self._placement
        preference_for = self.ring.preference_for
        replication = self.replication
        written = 0
        for object_id, value in cells.items():
            size = estimate_size(value)
            holders = placement.get(object_id)
            if holders is None:
                holders = placement[object_id] = preference_for(object_id, replication)
            if object_id in sizes:
                # An overwrite leaves no reachable replica of the previous
                # value: copies on former holders (the ring moved since the
                # last write) are dropped.
                for node, table in data.items():
                    if node not in holders:
                        table.pop(object_id, None)
            sizes[object_id] = size
            for node in holders:
                data[node][object_id] = value
            written += size * len(holders)
        self.bytes_written += written

    def get(self, object_id: str) -> Any:
        data = self._data
        for node in self._placement.get(object_id) or self.preference_of(object_id):
            local = data[node]
            if object_id in local:
                self.bytes_read += self._sizes[object_id]
                return local[object_id]
        raise StorageError(f"object {object_id!r} not found in {self.name!r}")

    def delete(self, object_id: str) -> None:
        if self._sizes.pop(object_id, None) is None:
            raise StorageError(f"object {object_id!r} not found in {self.name!r}")
        self._placement.pop(object_id, None)
        for table in self._data.values():
            table.pop(object_id, None)

    def exists(self, object_id: str) -> bool:
        return object_id in self._sizes

    def get_locations(self, object_id: str) -> Set[str]:
        """SRI getLocations: alive nodes currently holding the object."""
        return {node for node in self._alive if object_id in self._data[node]}

    def keys_on_node(self, node: str) -> List[str]:
        """Keys whose *primary* replica lives on ``node`` (split support)."""
        if node not in self._alive:
            return []
        preference_of = self.preference_of
        return [key for key in self._data[node] if preference_of(key)[0] == node]


class StorageDict:
    """Hecuba's headline feature: a Python dict backed by the cluster.

    Cells are addressed as ``{table}:{key}``; iteration order follows
    insertion.  :meth:`split` yields per-node partitions so a workflow can
    spawn one task per partition and the locality scheduler can run each
    task where its partition's primary replica lives (claim C4).

    Membership lives in an insertion-ordered dict (O(1) probes — the seed
    kept a list, making an n-cell table O(n²) to fill) mapping each key to
    its cell id: the very ``str`` the cluster's tables are keyed by, built
    once per key.  Primaries come from the cluster's per-cell placement, so
    a steady-state ``split()`` is a pure in-memory group-by, and a
    partition's task reads its cells through ``table[key]``: dict probes
    only, falling back to a surviving replica if the split went stale.
    """

    def __init__(self, cluster: KeyValueCluster, table: str) -> None:
        self.cluster = cluster
        self.table = table
        # Insertion-ordered key set; values are the keys' cell ids.
        self._keys: Dict[Any, str] = {}
        # Ring version at which dead keys were last dropped.
        self._pruned_at = cluster.ring.version

    def _cell(self, key: Any) -> str:
        return f"{self.table}:{key!r}"

    def __setitem__(self, key: Any, value: Any) -> None:
        cell = self._keys.get(key)
        if cell is None:
            cell = self._keys[key] = self._cell(key)
        self.cluster.put(cell, value)

    def __getitem__(self, key: Any) -> Any:
        cell = self._keys.get(key)
        if cell is None:
            raise KeyError(key)
        return self.cluster.get(cell)

    def __delitem__(self, key: Any) -> None:
        cell = self._keys.pop(key, None)
        if cell is None:
            raise KeyError(key)
        self.cluster.delete(cell)

    def _live_keys(self) -> Dict[Any, str]:
        """The key → cell map, less the keys whose cell died.

        A cell dies when ``fail_node`` takes its last replica, and every
        membership change bumps the ring version: the dead keys are dropped
        once per version (one ``exists`` probe per key, no ring work).
        """
        version = self.cluster.ring.version
        if version != self._pruned_at:
            keys, exists = self._keys, self.cluster.exists
            for key in [key for key, cell in keys.items() if not exists(cell)]:
                del keys[key]
            self._pruned_at = version
        return self._keys

    def __contains__(self, key: Any) -> bool:
        return key in self._live_keys()

    def __len__(self) -> int:
        return len(self._live_keys())

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def keys(self) -> List[Any]:
        return list(self._live_keys())

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for key in self.keys():
            yield key, self[key]

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self:
            return self[key]
        return default

    def update(self, mapping: Dict[Any, Any]) -> None:
        """Bulk insert through the cluster's batched write path."""
        keys = self._keys
        table = self.table
        cells = {}
        for key, value in mapping.items():
            cell = keys.get(key)
            if cell is None:
                cell = keys[key] = f"{table}:{key!r}"
            cells[cell] = value
        self.cluster.put_many(cells)

    def location_of(self, key: Any) -> Set[str]:
        """Nodes holding replicas of one cell (SRI passthrough)."""
        return self.cluster.get_locations(self._keys.get(key) or self._cell(key))

    def split(self) -> Dict[str, List[Any]]:
        """Partition keys by the node holding their primary replica.

        Returns ``{node_name: [keys...]}`` — the Hecuba ``split()`` used to
        generate one data-local task per partition.  Primaries are read off
        the cluster's per-cell placement, so repeat splits (and reads)
        between membership changes never touch the ring.
        """
        partitions: Dict[str, List[Any]] = {}
        preference_of = self.cluster.preference_of
        for key, cell in self._live_keys().items():
            primary = preference_of(cell)[0]
            bucket = partitions.get(primary)
            if bucket is None:
                bucket = partitions[primary] = []
            bucket.append(key)
        return partitions
