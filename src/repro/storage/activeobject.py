"""dataClay analogue: an active object store with in-store method execution.

"dataClay [is] a distributed active object store which enables applications
to store and retrieve objects with the same format they have in memory. In
addition to storing the objects themselves, dataClay also holds a registry
of the classes where the objects belong, including their methods, which are
executed within the object store transparently to applications. This feature
minimizes the number of data transfers." (§VI-A1)

The reproduction keeps objects as live Python instances pinned to a storage
node, tracks a class registry, and offers two call paths whose *measured
bytes moved* differ exactly the way the paper claims (experiment E5):

* :meth:`ActiveObjectStore.fetch` — ship the whole object to the caller;
* :meth:`ActiveObjectStore.call` — ship only arguments and the result,
  executing the method on the node holding the object.

Data-plane hot path: each object carries a version-tagged size computed
by one serialization pass (``estimate_size``) at most once per state
version actually observed.  In-store calls execute at the primary replica
and charge only argument/result movement — never the object state, whose
re-pickling on *every* call would make a call cost O(state) — and merely
bump the state version.  A stored object costs what an object does: one
slotted record whose holders are the ring's arc-shared tuple, in a class
registry keyed by the class itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from repro.core.exceptions import StorageError
from repro.storage.interface import estimate_size
from repro.storage.keyvalue import ConsistentHashRing


def _class_name(cls: Type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


@dataclass
class RegisteredClass:
    """Class metadata the store keeps (the dataClay class registry)."""

    cls: Type
    methods: Dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return _class_name(self.cls)


class ClassRegistry:
    """Registry of classes whose methods the store may execute.

    Keyed by the class object: two classes may share a qualified name (any
    class defined inside a function), and each must run its own methods.
    """

    def __init__(self) -> None:
        self._classes: Dict[Type, RegisteredClass] = {}

    def register(self, cls: Type) -> RegisteredClass:
        """Register a class and its public methods (idempotent)."""
        entry = self._classes.get(cls)
        if entry is None:
            methods = {
                attr: value
                for attr, value in vars(cls).items()
                if callable(value) and not attr.startswith("_")
            }
            entry = self._classes[cls] = RegisteredClass(cls=cls, methods=methods)
        return entry

    def is_registered(self, cls: Type) -> bool:
        return cls in self._classes

    def lookup_method(self, cls: Type, method: str) -> Callable:
        entry = self._classes.get(cls)
        if entry is None:
            raise StorageError(f"class {_class_name(cls)!r} is not registered")
        fn = entry.methods.get(method)
        if fn is None:
            raise StorageError(
                f"class {entry.name!r} has no registered method {method!r}"
            )
        return fn

    @property
    def class_names(self) -> List[str]:
        return [entry.name for entry in self._classes.values()]


class _StoredObject:
    """One stored object, shared by all of its replica holders.

    ``version`` counts state mutations (every in-store call bumps it);
    ``size_version`` tags the version at which ``size_bytes`` was last
    computed, so sizing happens at most once per version and only when
    something actually reads the size.  ``holders`` is the ring's shared
    preference tuple (replaced, never mutated, when a holder fails).
    """

    __slots__ = (
        "value",
        "holders",
        "version",
        "size_version",
        "size_bytes",
    )

    def __init__(
        self, value: Any, holders: Tuple[str, ...], size_bytes: int
    ) -> None:
        self.value = value
        self.holders = holders
        self.version = 0
        self.size_version = 0
        self.size_bytes = size_bytes


class ActiveObjectStore:
    """Distributed active object store over named storage nodes.

    Also implements the SRI :class:`~repro.storage.interface.StorageBackend`
    protocol (put/get/delete/exists/get_locations) so it can be registered
    with the storage runtime, which is how the fog agents persist task values
    (claim C5).
    """

    def __init__(
        self,
        node_names: List[str],
        name: str = "dataclay",
        replication: int = 1,
    ) -> None:
        if not node_names:
            raise StorageError("active object store needs at least one node")
        self.name = name
        self.registry = ClassRegistry()
        self.replication = max(1, replication)
        self.ring = ConsistentHashRing()
        self._alive: Set[str] = set()
        self._objects: Dict[str, Dict[str, _StoredObject]] = {}
        # Forward index: object id -> its (shared) record, so holder lookup
        # is one dict probe instead of a scan over every alive node.
        self._records: Dict[str, _StoredObject] = {}
        for node in node_names:
            self.ring.add_node(node)
            self._alive.add(node)
            self._objects[node] = {}
        self._ids = itertools.count(1)
        # Transfer accounting for the E5 comparison.
        self.bytes_moved_fetch = 0
        self.bytes_moved_calls = 0
        # Serialization passes over stored state (the pickle-once metric:
        # at most one per object version actually observed).
        self.size_computations = 0

    # ---------------------------------------------------------------- nodes

    @property
    def alive_nodes(self) -> Set[str]:
        return set(self._alive)

    def fail_node(self, node: str) -> None:
        if node not in self._alive:
            raise StorageError(f"node {node!r} is not alive")
        self._alive.discard(node)
        self.ring.remove_node(node)
        dropped = self._objects[node]
        self._objects[node] = {}
        for object_id, record in dropped.items():
            # Survivor promotion costs nothing to record: whoever is first
            # now serves the object's current in-memory state (the failed
            # node can no longer be pulled from).
            record.holders = tuple(n for n in record.holders if n != node)
            if not record.holders:
                # Every replica is gone: the object is lost.
                del self._records[object_id]

    # ------------------------------------------------------- object lifecycle

    def _place(self, object_id: str, value: Any) -> _StoredObject:
        size = estimate_size(value)
        self.size_computations += 1
        holders = self.ring.preference_for(object_id, self.replication)
        record = _StoredObject(value, holders, size)
        objects = self._objects
        for node in holders:
            objects[node][object_id] = record
        self._records[object_id] = record
        return record

    def store(self, value: Any, object_id: Optional[str] = None) -> str:
        """Persist a live object; registers its class; returns the object id.

        An id already in use is refused, as ``StorageRuntime.persist``
        refuses one: replacing it would route the first object's calls to
        this one and leave the first unreachable.  :meth:`put` is the SRI
        overwrite.
        """
        oid = object_id if object_id is not None else f"{self.name}-obj-{next(self._ids)}"
        if oid in self._records:
            raise StorageError(f"object id {oid!r} already stored in {self.name!r}")
        self.put(oid, value)
        return oid

    def _unplace(self, object_id: str) -> None:
        record = self._records.pop(object_id)
        for node in record.holders:
            self._objects[node].pop(object_id, None)

    def _record(self, object_id: str) -> _StoredObject:
        record = self._records.get(object_id)
        if record is None:
            raise StorageError(f"object {object_id!r} not found in {self.name!r}")
        return record

    def _current_size(self, record: _StoredObject) -> int:
        """The object's serialized size at its current version.

        Recomputed (one ``pickle.dumps``) only when the version moved since
        the last computation: ten calls and one fetch size the state once.
        """
        if record.size_version != record.version:
            record.size_bytes = estimate_size(record.value)
            self.size_computations += 1
            record.size_version = record.version
        return record.size_bytes

    def fetch(self, object_id: str) -> Any:
        """Ship the whole object to the caller (the non-dataClay path)."""
        record = self._record(object_id)
        self.bytes_moved_fetch += self._current_size(record)
        return record.value

    def call(self, object_id: str, method: str, *args: Any, **kwargs: Any) -> Any:
        """Execute ``method`` at the object's primary replica (in-store).

        Only the arguments and the result cross the wire; the object state
        never moves — dataClay's transfer-minimization claim, measurable via
        :attr:`bytes_moved_calls`.  The state version is bumped so sizing
        happens lazily, at most once per observed version, instead of
        re-serializing the state on every call.
        """
        record = self._record(object_id)
        fn = self.registry.lookup_method(type(record.value), method)
        moved = 0
        for arg in args:
            moved += estimate_size(arg)
        for arg in kwargs.values():
            moved += estimate_size(arg)
        result = fn(record.value, *args, **kwargs)
        self.bytes_moved_calls += moved + estimate_size(result)
        # The call may have mutated the state: advance the version and let
        # the size cache catch up lazily.
        record.version += 1
        return result

    # ----------------------------------------------------- backend protocol

    def put(self, object_id: str, value: Any) -> Set[str]:
        self.registry.register(type(value))
        if object_id in self._records:
            self._unplace(object_id)
        record = self._place(object_id, value)
        return set(record.holders)

    def get(self, object_id: str) -> Any:
        return self.fetch(object_id)

    def delete(self, object_id: str) -> None:
        if object_id not in self._records:
            raise StorageError(f"object {object_id!r} not found in {self.name!r}")
        self._unplace(object_id)

    def exists(self, object_id: str) -> bool:
        return object_id in self._records

    def get_locations(self, object_id: str) -> Set[str]:
        record = self._records.get(object_id)
        if record is None:
            return set()
        return set(record.holders)


class ActiveObject:
    """Convenience base class: dataClay-style objects with routed methods.

    Subclass, create, ``make_persistent(store)``; afterwards use
    ``obj.remote(name, *args)`` to run a method in-store, or keep calling
    methods directly on the local instance (which *is* the stored replica
    when replication == 1, mirroring dataClay's shared-object semantics).
    """

    def __init__(self) -> None:
        self._store: Optional[ActiveObjectStore] = None
        self._object_id: Optional[str] = None

    def __getstate__(self) -> dict:
        # Serialization (size accounting, shipping the object) must
        # cover the object's own state, not the store it is pinned to: the
        # seed pickled ``_store`` too, which priced one object as the whole
        # store graph and made per-call size refreshes O(store).
        state = dict(self.__dict__)
        state["_store"] = None
        return state

    @property
    def is_persistent(self) -> bool:
        return self._object_id is not None

    def getID(self) -> Optional[str]:  # noqa: N802 - SOI spelling
        return self._object_id

    def make_persistent(self, store: ActiveObjectStore, alias: Optional[str] = None) -> str:
        if self._object_id is not None:
            return self._object_id
        self._object_id = store.store(self, object_id=alias)
        self._store = store
        return self._object_id

    def remote(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Execute a method inside the store (transfer-minimizing path)."""
        if self._store is None or self._object_id is None:
            raise StorageError("object is not persistent; call make_persistent first")
        return self._store.call(self._object_id, method, *args, **kwargs)
