"""The storage interface: SOI (application side) and SRI (runtime side).

"The storage interface is composed of two main components: the Storage
Object interface (SOI) and the Storage Runtime interface (SRI). ... the more
relevant method is the *make_persistent* one ... The SRI includes methods
that are used by the COMPSs runtime to interoperate with the storage backend.
For example, the *getLocations* method will enable the runtime to exploit
the locality of the data." (§VI-A1)
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import sys
import zlib
from typing import Any, Dict, List, Optional, Protocol, Set, Tuple

from repro.core.exceptions import StorageError


def _shallow_size(obj: Any) -> int:
    """``sys.getsizeof``-based estimate for unpicklable objects.

    Shallow plus one container level: enough that a dict of a thousand
    callbacks costs proportionally more than a single lambda, without
    risking cycles a full traversal would have to track.
    """
    try:
        size = sys.getsizeof(obj)
    except Exception:
        return 64
    try:
        if isinstance(obj, dict):
            for key, value in obj.items():
                size += sys.getsizeof(key) + sys.getsizeof(value)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                size += sys.getsizeof(item)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs:
                for value in attrs.values():
                    size += sys.getsizeof(value)
    except Exception:
        pass
    return size


def _pickled(obj: Any) -> Tuple[int, Optional[bytes]]:
    """``(size, payload)`` from one ``pickle.dumps``, the serialization pass
    every size and digest below is taken from.  An unpicklable object has no
    payload and is sized by the ``sys.getsizeof``-based shallow estimate."""
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return (_shallow_size(obj), None)
    return (len(payload), payload)


def estimate_size(obj: Any) -> int:
    """Approximate in-memory size of an object via its pickled length.

    Used by backends to account bytes moved; exactness does not matter, only
    that bigger objects cost proportionally more.  Unpicklable objects fall
    back to a ``sys.getsizeof``-based shallow estimate (a flat charge would
    price a gigabyte callback registry like an int).
    """
    return _pickled(obj)[0]


# No src/ caller; perf/trace.py SPANS wraps it (ROADMAP item 10(c)).
def estimate_size_digest(obj: Any) -> Tuple[int, Optional[int]]:
    """``(size, CRC32 digest)`` from a single serialization pass.

    The digest is None for unpicklable objects (sized via the shallow
    fallback), which callers must treat as "always changed".
    """
    size, payload = _pickled(obj)
    if payload is None:
        return (size, None)
    return (size, zlib.crc32(payload))


def content_fingerprint(obj: Any) -> Tuple[int, Optional[str]]:
    """``(size, collision-resistant digest)`` from a single serialization pass.

    The cache-key sibling of :func:`estimate_size_digest`: same pickle-once
    discipline, but the digest is a 128-bit blake2b hex string instead of a
    CRC32, because consumers (the task memoizer, the workflow compiler's
    content keys) serve *values* under this identity — a 32-bit checksum
    collision would silently return the wrong result.  The digest is None for
    unpicklable objects, which callers must treat as "not content
    addressable"; the size is still the shallow estimate so byte accounting
    stays proportional either way.
    """
    size, payload = _pickled(obj)
    if payload is None:
        return (size, None)
    return (size, hashlib.blake2b(payload, digest_size=16).hexdigest())


class StorageBackend(Protocol):
    """What any storage implementation must offer the SRI."""

    name: str

    def put(self, object_id: str, value: Any) -> Set[str]:
        """Store a value; returns the node names now holding replicas."""
        ...

    def get(self, object_id: str) -> Any:
        """Retrieve the stored value (raises StorageError if absent)."""
        ...

    def delete(self, object_id: str) -> None:
        ...

    def exists(self, object_id: str) -> bool:
        ...

    def get_locations(self, object_id: str) -> Set[str]:
        """SRI getLocations: node names holding replicas of the object."""
        ...


class StorageRuntime:
    """The SRI: the runtime's broker to one or more storage backends.

    Tracks which backend holds which object, mints object ids, and exposes
    ``get_locations`` so schedulers (via
    :class:`~repro.scheduling.locations.DataLocationService`) can place tasks
    next to their data.
    """

    def __init__(self) -> None:
        self._backends: Dict[str, StorageBackend] = {}
        self._object_backend: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self.default_backend: Optional[str] = None

    def register_backend(self, backend: StorageBackend, default: bool = False) -> None:
        self._backends[backend.name] = backend
        if default or self.default_backend is None:
            self.default_backend = backend.name

    def backend(self, name: Optional[str] = None) -> StorageBackend:
        key = name if name is not None else self.default_backend
        if key is None or key not in self._backends:
            raise StorageError(
                f"no storage backend {key!r} registered; register one first"
            )
        return self._backends[key]

    def new_object_id(self, hint: str = "obj") -> str:
        return f"{hint}-{next(self._ids)}"

    def persist(self, value: Any, object_id: Optional[str] = None, backend: Optional[str] = None) -> str:
        """Store ``value``; returns its object id."""
        target = self.backend(backend)
        oid = object_id if object_id is not None else self.new_object_id()
        if oid in self._object_backend:
            raise StorageError(f"object id {oid!r} already persisted")
        target.put(oid, value)
        self._object_backend[oid] = target.name
        return oid

    def update(self, object_id: str, value: Any) -> None:
        """Overwrite a persisted object's value in its backend."""
        backend = self._backend_of(object_id)
        backend.put(object_id, value)

    def retrieve(self, object_id: str) -> Any:
        return self._backend_of(object_id).get(object_id)

    def delete(self, object_id: str) -> None:
        self._backend_of(object_id).delete(object_id)
        del self._object_backend[object_id]

    def exists(self, object_id: str) -> bool:
        name = self._object_backend.get(object_id)
        return name is not None and self._backends[name].exists(object_id)

    def get_locations(self, object_id: str) -> Set[str]:
        """SRI getLocations over whichever backend holds the object."""
        return self._backend_of(object_id).get_locations(object_id)

    def _backend_of(self, object_id: str) -> StorageBackend:
        name = self._object_backend.get(object_id)
        if name is None:
            raise StorageError(f"object {object_id!r} is not persisted")
        return self._backends[name]


_storage_runtime: Optional[StorageRuntime] = None


def get_storage_runtime() -> StorageRuntime:
    """The process-wide SRI instance (created on first use)."""
    global _storage_runtime
    if _storage_runtime is None:
        _storage_runtime = StorageRuntime()
    return _storage_runtime


def set_storage_runtime(runtime: Optional[StorageRuntime]) -> None:
    """Install (or clear, with None) the process-wide SRI — used by tests."""
    global _storage_runtime
    _storage_runtime = runtime


class StorageObject:
    """SOI base class: subclass it and call :meth:`make_persistent`.

    After ``make_persistent`` the object keeps working as a regular Python
    object ("accessed from the application using the regular access
    methods"), while a replica lives in the backend and the SRI can answer
    ``getLocations`` for it.  :meth:`sync_to_storage` pushes in-place
    mutations back to the backend (the trade-off a real NVRAM-backed store
    would hide; made explicit here).
    """

    def __init__(self) -> None:
        self._persistent_id: Optional[str] = None
        self._storage: Optional[StorageRuntime] = None

    @property
    def is_persistent(self) -> bool:
        return self._persistent_id is not None

    def getID(self) -> Optional[str]:  # noqa: N802 - paper/PyCOMPSs spelling
        """The persisted object id, or None (SOI method name per the paper)."""
        return self._persistent_id

    def make_persistent(
        self, alias: Optional[str] = None, backend: Optional[str] = None
    ) -> str:
        """Push this object to the storage backend; returns its object id."""
        if self._persistent_id is not None:
            return self._persistent_id
        storage = get_storage_runtime()
        oid = storage.persist(self._state(), object_id=alias, backend=backend)
        self._persistent_id = oid
        self._storage = storage
        return oid

    def sync_to_storage(self) -> None:
        """Write current in-memory state over the persisted replica."""
        if self._persistent_id is None:
            raise StorageError("object is not persistent")
        assert self._storage is not None
        self._storage.update(self._persistent_id, self._state())

    def delete_persistent(self) -> None:
        if self._persistent_id is None:
            return
        assert self._storage is not None
        self._storage.delete(self._persistent_id)
        self._persistent_id = None
        self._storage = None

    def _state(self) -> dict:
        """The attribute dict that gets persisted (excludes SOI internals)."""
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("_persistent_id", "_storage")
        }

    @classmethod
    def from_storage(cls, object_id: str) -> "StorageObject":
        """Rebuild an instance from its persisted state (any process/agent)."""
        storage = get_storage_runtime()
        state = storage.retrieve(object_id)
        obj = cls.__new__(cls)
        StorageObject.__init__(obj)
        obj.__dict__.update(state)
        obj._persistent_id = object_id
        obj._storage = storage
        return obj
