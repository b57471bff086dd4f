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
  the next version.  This is the renaming scheme COMPSs applies;
* **WAR fan-in barriers** — a datum read by thousands of tasks and then
  written (the GUIDANCE 120k-file shape) would naively give the writer
  O(readers) dependencies.  With a graph attached, every ``threshold``
  readers are flushed into a chained structural barrier node, so each read
  stays O(1) amortized and the writer depends on one barrier plus a bounded
  tail instead of every reader.

Only the current version can gain readers or be superseded, so a write
resets the record in place: nothing a dependency is derived from lives in an
older version, and a datum rewritten N times costs one record, not N + 1.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.graph import make_barrier_instance

if TYPE_CHECKING:
    from repro.core.graph import TaskGraph

#: Readers accumulated on one version before they are collapsed behind a
#: structural barrier node.  Bounds every writer's WAR dependency set at
#: threshold + 2 (tail + previous barrier + previous writer) regardless of
#: fan-in width.
WAR_FANIN_BARRIER_THRESHOLD = 64

#: The reader tail of every version nobody has read yet.
_NO_READERS: Sequence[int] = ()


class Datum:
    """Everything tracked about one datum: the state of its current version.

    ``readers`` holds only the readers registered since the last WAR barrier
    was flushed for this version (the *tail*); earlier readers are collapsed
    behind ``barrier``, so a write never walks more than one tail of bounded
    length.  Slotted, and the tail costs what it holds: there is one record
    per datum across million-task runs, most versions are never read, and
    most of the rest are read once.  So the tail is the shared empty tuple,
    then a lone reader's id, and a list only from the second reader on;
    read it through :func:`reader_ids`.
    """

    __slots__ = ("datum_id", "version", "writer", "readers", "barrier", "size_bytes")

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
        # Last flushed WAR fan-in barrier covering readers before the tail.
        self.barrier: Optional[int] = None
        # What a simulated transfer of the datum moves; unused on the real side.
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"Datum({self.datum_id!r}, v{self.version}, writer={self.writer})"


def reader_ids(datum: Datum) -> Sequence[int]:
    """The ids in a datum's reader tail, in registration order."""
    readers = datum.readers
    return (readers,) if readers.__class__ is int else readers


class DependencyTracker:
    """The rule: which earlier tasks a data access must wait for.

    Args:
        graph: where fan-in barriers are added.  Without one the tracker
            derives exact per-reader dependencies (the naive O(R) rule) —
            semantically identical, just slower on hot data.
        ids: the caller's task-id counter; barriers take their ids from it
            so every edge keeps pointing from an earlier id to a later one.
    """

    __slots__ = ("graph", "ids", "threshold")

    def __init__(self, graph: Optional["TaskGraph"], ids: Iterator[int]) -> None:
        self.graph = graph
        self.ids = ids
        #: Tail length that triggers a barrier flush.
        self.threshold = WAR_FANIN_BARRIER_THRESHOLD

    def read(
        self, datum: Datum, task_id: int, deps: Set[int], may_flush: bool = True
    ) -> None:
        """Register a read of the current version; adds the RAW edge.

        A full tail is flushed into a barrier *before* this reader joins it:
        the flushed readers are all in the graph already, this task is not.
        ``may_flush`` is False when the task also rewrites the datum — the
        barrier's id would postdate the task's own, and its write would then
        depend on a later id (unrepresentable); the write consumes the
        still-bounded tail directly instead.
        """
        writer = datum.writer
        if writer is not None and writer != task_id:
            deps.add(writer)
        readers = datum.readers
        if readers is _NO_READERS:
            datum.readers = task_id
            return
        if readers.__class__ is int:
            readers = datum.readers = [readers]
        if len(readers) >= self.threshold and may_flush and self.graph is not None:
            self._flush(datum)
        readers.append(task_id)

    def write(self, datum: Datum, task_id: int, deps: Set[int]) -> None:
        """Register a write: WAW on the writer, WAR on the barrier and the
        tail (in-place mutation forbids reordering around either), then the
        record starts the next version."""
        if datum.writer is not None:
            deps.add(datum.writer)
        if datum.barrier is not None:
            deps.add(datum.barrier)
        deps.update(reader_ids(datum))
        deps.discard(task_id)
        datum.version += 1
        datum.writer = task_id
        datum.readers = _NO_READERS
        datum.barrier = None

    def _flush(self, datum: Datum) -> None:
        """Collapse the datum's reader tail behind one structural node.

        Chaining (the new barrier depends on the previous one) keeps every
        graph edge pointing from an earlier-minted id to a later one, so the
        DAG's program-order invariant survives without any special casing.
        """
        barrier_id = next(self.ids)
        barrier_deps: Set[int] = set(datum.readers)
        if datum.barrier is not None:
            barrier_deps.add(datum.barrier)
        self.graph.add_task(
            make_barrier_instance(
                barrier_id, f"war-barrier/{datum.datum_id}#v{datum.version}"
            ),
            barrier_deps,
        )
        datum.barrier = barrier_id
        datum.readers.clear()


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
