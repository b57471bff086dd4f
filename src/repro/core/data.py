"""One record per datum, one rule for which tasks an access waits for.

The Access Processor needs a stable identity for each piece of data so it can
derive read-after-write, write-after-read and write-after-write dependencies.
Three families of data exist on the real runtime:

* **objects** — tracked by Python identity.  The registry keeps a strong
  reference to every registered object so ``id()`` reuse after garbage
  collection cannot alias two different objects;
* **files** — tracked by (normalized) path string;
* **task results** — born inside the runtime; their record is minted when
  the producing task is registered and carried around by the Future, not
  the registry, so it lives exactly as long as the futures that hold it.

Simulated workflows (:class:`~repro.executor.workflow_builder.SimWorkflowBuilder`)
name their data and keep them in a plain dict.  Either way a datum is one
:class:`Datum`, and every access to it goes through the one
:class:`DependencyTracker`:

* a **read** depends on the writer of the version it reads (RAW);
* a **write** depends on that writer *and* on every reader of that version
  (WAW + WAR — required because objects are mutated in place), then starts
  the next version.  This is the renaming scheme COMPSs applies.

Only the current version can gain readers or be superseded, so a write
resets the record in place: nothing a dependency is derived from lives in an
older version, and a datum rewritten N times costs one record, not N + 1.
On the real runtime, whose graph forgets settled tasks, a datum read for
ever (and never written) would otherwise keep every reader's id: ``read``
sweeps out the forgotten ones as the reader list doubles.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:
    from repro.core.graph import TaskGraph

#: The shortest reader list that ``read`` sweeps; from there it sweeps at
#: every power of two.
SWEEP_FLOOR = 64

#: The reader list of every version nobody has read yet.
_NO_READERS: Sequence[int] = ()


class Datum:
    """Everything tracked about one datum: the state of its current version.

    Slotted, and the reader list costs what it holds: there is one record
    per datum across million-task runs, most versions are never read, and
    most of the rest are read once.  So ``readers`` is the shared empty
    tuple, then a lone reader's id, and a list only from the second reader
    on; read it through :func:`reader_ids`.
    """

    __slots__ = ("datum_id", "version", "writer", "readers", "size_bytes")

    def __init__(
        self,
        datum_id: str,
        version: int = 0,
        writer: Optional[int] = None,
        size_bytes: float = 0.0,
    ) -> None:
        self.datum_id = datum_id
        self.version = version
        self.writer = writer
        self.readers: Union[int, Sequence[int]] = _NO_READERS
        # What a simulated transfer of the datum moves; unused on the real side.
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"Datum({self.datum_id!r}, v{self.version}, writer={self.writer})"


def reader_ids(datum: Datum) -> Sequence[int]:
    """The ids of a datum's current readers, in registration order."""
    readers = datum.readers
    return (readers,) if readers.__class__ is int else readers


class DependencyTracker:
    """The rule: which earlier tasks a data access must wait for.

    Args:
        graph: the graph that forgets settled tasks (the real runtime's),
            whose forgotten readers ``read`` sweeps out of a long reader
            list.  None where nothing is forgotten (the simulator): no
            sweep then, and the dependencies are the same.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: Optional["TaskGraph"] = None) -> None:
        self.graph = graph

    def read(self, datum: Datum, task_id: int, deps: Set[int]) -> None:
        """Register a read of the current version; adds the RAW edge."""
        writer = datum.writer
        if writer is not None and writer != task_id:
            deps.add(writer)
        readers = datum.readers
        if readers is _NO_READERS:
            datum.readers = task_id
            return
        if readers.__class__ is int:
            readers = datum.readers = [readers]
        elif self.graph is not None:
            count = len(readers)
            if count >= SWEEP_FLOOR and not count & (count - 1):
                self._sweep(readers)
        readers.append(task_id)

    def write(self, datum: Datum, task_id: int, deps: Set[int]) -> None:
        """Register a write: WAW on the writer, WAR on every reader still
        listed (in-place mutation forbids reordering around either), then
        the record starts the next version."""
        if datum.writer is not None:
            deps.add(datum.writer)
        deps.update(reader_ids(datum))
        deps.discard(task_id)
        datum.version += 1
        datum.writer = task_id
        datum.readers = _NO_READERS

    def _sweep(self, readers: List[int]) -> None:
        """Drop the readers the graph has forgotten, when they are at least
        half of the list.

        A forgotten reader is DONE, so a later write needs no edge to it; a
        FAILED one is never forgotten and stays to cancel that write.  The
        half rule keeps a read O(1) amortized: a sweep of L ids either
        removes L / 2 of them, or leaves the list to grow to 2L before the
        next, so its cost is paid by ids removed or by the L reads to come.
        """
        forgotten = self.graph.forgotten
        held = [tid for tid in readers if not forgotten(tid)]
        if 2 * len(held) <= len(readers):
            readers[:] = held


class DataRegistry:
    """Maps the objects and files of the real runtime to their records
    (a task result's record travels with its futures instead)."""

    def __init__(self) -> None:
        self._records: Dict[str, Datum] = {}
        # id(obj) -> (obj, record): the strong reference keeps the id from
        # being reused while the object is tracked.
        self._by_object: Dict[int, Tuple[Any, Datum]] = {}
        self._counter = itertools.count()

    # ---------------------------------------------------------------- lookup

    @property
    def datum_ids(self) -> List[str]:
        return list(self._records)

    # ------------------------------------------------------------ registration

    def register_object(self, obj: Any) -> Datum:
        """Return the record for ``obj``, creating it on first sight."""
        record = self.record_for_object(obj)
        if record is None:
            record = Datum(f"obj-{next(self._counter)}")
            self._records[record.datum_id] = record
            self._by_object[id(obj)] = (obj, record)
        return record

    def record_for_object(self, obj: Any) -> Optional[Datum]:
        """The record tracking ``obj``, or None if it was never registered."""
        pinned, record = self._by_object.get(id(obj), (None, None))
        # Guard against id() reuse: the entry must still pin this object.
        return record if pinned is obj else None

    def register_file(self, path: str) -> Datum:
        """Return the record for file ``path``, creating it on first sight."""
        datum_id = f"file:{os.path.normpath(path)}"
        record = self._records.get(datum_id)
        if record is None:
            record = self._records[datum_id] = Datum(datum_id)
        return record

    def unpin_object(self, obj: Any) -> None:
        """Forget a registered object: its record and the strong reference.

        Nothing can name the record again — a later registration of the same
        (or an aliased) object starts a fresh datum.  Exposed as
        ``compss_delete_object`` at the API level.
        """
        record = self.record_for_object(obj)
        if record is not None:
            del self._by_object[id(obj)], self._records[record.datum_id]
