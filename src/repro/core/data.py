"""Data registry: versioned identities for every datum tasks touch.

The Access Processor needs a stable identity for each piece of data so it can
derive read-after-write, write-after-read and write-after-write dependencies.
Three families of data exist:

* **objects** — tracked by Python identity.  The registry keeps a strong
  reference to every registered object so ``id()`` reuse after garbage
  collection cannot alias two different objects;
* **files** — tracked by (normalized) path string;
* **task results** — born inside the runtime; their identity is minted when
  the producing task is registered and carried around by the Future.

Every datum has a monotonically increasing *version*.  Readers depend on the
writer of the version they read; each write creates a new version.  This is
exactly the renaming scheme COMPSs applies to detect dependencies.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, List, Optional, Sequence


#: The reader tail of every version nobody has read yet.
_NO_READERS: Sequence[int] = ()


class DataVersion:
    """One version of a datum: who wrote it, who reads it.

    ``reader_task_ids`` holds only the readers registered since the last
    WAR barrier was flushed for this version (the *tail*); earlier readers
    are collapsed behind ``barrier_task_id`` by the Access Processor, so a
    write never has to walk more than one tail of bounded length.  Each
    write swaps in a fresh version with an empty tail — the O(1) reader-set
    swap.  Slotted, and the tail is a list only from the first reader on
    (:meth:`DataRegistry.read` allocates it): registries track one version
    per write across million-task runs, and most versions are never read.
    """

    __slots__ = (
        "datum_id",
        "version",
        "writer_task_id",
        "reader_task_ids",
        "barrier_task_id",
        "reader_count",
    )

    def __init__(
        self,
        datum_id: str,
        version: int,
        writer_task_id: Optional[int] = None,
    ) -> None:
        self.datum_id = datum_id
        self.version = version
        self.writer_task_id = writer_task_id
        self.reader_task_ids: Sequence[int] = _NO_READERS
        # Last flushed WAR fan-in barrier covering readers before the tail.
        self.barrier_task_id: Optional[int] = None
        # Total readers ever registered on this version (tail + flushed).
        self.reader_count = 0

    @property
    def key(self) -> str:
        return f"{self.datum_id}#v{self.version}"

    def __repr__(self) -> str:
        return (
            f"DataVersion({self.datum_id!r}, v{self.version}, "
            f"writer={self.writer_task_id}, readers={self.reader_count})"
        )


class DatumRecord:
    """All registry state about a single datum.

    Holds its current version directly; ``history`` (the superseded
    versions, oldest first) exists from the first rewrite on — a task
    result is written once, so most records never have one.
    """

    __slots__ = ("datum_id", "current", "history", "pinned_object", "is_file", "size_bytes")

    def __init__(
        self,
        datum_id: str,
        current: DataVersion,
        pinned_object: Any = None,
        is_file: bool = False,
        size_bytes: float = 0.0,
    ) -> None:
        self.datum_id = datum_id
        self.current = current
        self.history: Optional[List[DataVersion]] = None
        # Strong reference for object data; None for file/result data.
        self.pinned_object = pinned_object
        self.is_file = is_file
        # Estimated size in bytes, used by the simulation and locality
        # scheduling.
        self.size_bytes = size_bytes

    @property
    def versions(self) -> List[DataVersion]:
        """Every version so far, oldest first."""
        return [*(self.history or ()), self.current]

    def __repr__(self) -> str:
        return f"DatumRecord({self.datum_id!r}, versions={len(self.versions)})"


class DataRegistry:
    """Maps objects/files/results to versioned datum records."""

    def __init__(self) -> None:
        self._records: Dict[str, DatumRecord] = {}
        self._object_ids: Dict[int, str] = {}
        self._counter = itertools.count()

    # ---------------------------------------------------------------- lookup

    def record(self, datum_id: str) -> DatumRecord:
        return self._records[datum_id]

    def has(self, datum_id: str) -> bool:
        return datum_id in self._records

    @property
    def datum_ids(self) -> List[str]:
        return list(self._records)

    # ------------------------------------------------------------ registration

    def register_object(self, obj: Any) -> DatumRecord:
        """Return the record for ``obj``, creating it on first sight."""
        key = id(obj)
        datum_id = self._object_ids.get(key)
        if datum_id is not None:
            return self._records[datum_id]
        datum_id = f"obj-{next(self._counter)}"
        record = DatumRecord(datum_id, DataVersion(datum_id, 0), pinned_object=obj)
        self._records[datum_id] = record
        self._object_ids[key] = datum_id
        return record

    def record_for_object(self, obj: Any) -> Optional[DatumRecord]:
        """The record tracking ``obj``, or None if it was never registered."""
        datum_id = self._object_ids.get(id(obj))
        if datum_id is None:
            return None
        record = self._records.get(datum_id)
        # Guard against id() reuse: the record must still pin this object.
        if record is not None and record.pinned_object is obj:
            return record
        return None

    def register_file(self, path: str) -> DatumRecord:
        """Return the record for file ``path``, creating it on first sight."""
        normalized = os.path.normpath(path)
        datum_id = f"file:{normalized}"
        record = self._records.get(datum_id)
        if record is None:
            record = DatumRecord(datum_id, DataVersion(datum_id, 0), is_file=True)
            self._records[datum_id] = record
        return record

    def register_result(self, task_id: int, index: int) -> DatumRecord:
        """Mint a fresh datum for return value ``index`` of task ``task_id``."""
        datum_id = f"res-{task_id}-{index}"
        # Result data is born at version 1, written by its producer.
        record = DatumRecord(datum_id, DataVersion(datum_id, 1, task_id))
        self._records[datum_id] = record
        return record

    # ------------------------------------------------------------- accesses

    def read(self, datum_id: str, reader_task_id: int) -> DataVersion:
        """Register a read of the current version; returns that version."""
        version = self._records[datum_id].current
        if version.reader_task_ids is _NO_READERS:
            version.reader_task_ids = [reader_task_id]
        else:
            version.reader_task_ids.append(reader_task_id)
        version.reader_count += 1
        return version

    def write(self, datum_id: str, writer_task_id: int) -> DataVersion:
        """Register a write: creates and returns the next version."""
        record = self._records[datum_id]
        new_version = DataVersion(
            datum_id=datum_id,
            version=record.current.version + 1,
            writer_task_id=writer_task_id,
        )
        if record.history is None:
            record.history = [record.current]
        else:
            record.history.append(record.current)
        record.current = new_version
        return new_version

    def set_size(self, datum_id: str, size_bytes: float) -> None:
        """Attach a size estimate (locality scheduling, simulation)."""
        self._records[datum_id].size_bytes = float(size_bytes)

    def unpin_object(self, obj: Any) -> None:
        """Drop the strong reference to a registered object.

        After this the registry stops tracking the object; a later
        registration of the same (or an aliased) object starts a fresh
        datum.  Exposed as ``compss_delete_object`` at the API level.
        """
        key = id(obj)
        datum_id = self._object_ids.pop(key, None)
        if datum_id is not None and datum_id in self._records:
            self._records[datum_id].pinned_object = None
