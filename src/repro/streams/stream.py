"""The stream channel: timestamped elements plus subscriptions.

Two properties make this the dataflow plane's hot path viable at
production rates:

* **Batched columns** — :meth:`DataStream.publish_batch` appends a batch's
  timestamp and value columns (plus one source name) to three parallel
  retained lists and notifies batch subscribers once, so no element becomes
  a record on its way to a window bucket.  A :class:`StreamElement` is
  built, in C, only for callers that ask for elements (``elements``,
  ``since``, per-element ``subscribe``).
* **Watermark pruning** — :meth:`DataStream.prune_upto` discards the
  consumed prefix (everything below the consumers' watermark), so retained
  memory is bounded by in-flight windows instead of campaign length.
  ``since()`` stays correct on the retained suffix (it bisects exactly as
  before) and refuses queries that reach into the pruned region rather
  than silently returning a truncated answer.
"""

from __future__ import annotations

import bisect
from functools import partial
from itertools import repeat
from typing import Any, Callable, List, NamedTuple, Tuple


class StreamElement(NamedTuple):
    """One element on a stream: an immutable, hashable, picklable record.

    The plane applies ``map``/``filter`` to a run's value column, not element
    by element: they must be pure per element — which
    :func:`repro.streams.dataflow.stream_task_key` content keys already require.
    """

    timestamp: float
    value: Any
    source: str = ""


#: ``(timestamp, value, source)`` -> :class:`StreamElement`, built in C.
_element = partial(tuple.__new__, StreamElement)

BatchCallback = Callable[[List[float], List[Any]], None]


class DataStream:
    """An append-only channel; subscribers see elements as they arrive.

    Publication happens in virtual time (whoever calls ``publish`` does so
    from a simulation event); subscribers are synchronous callbacks, which
    is all the DES needs — any delay they model is scheduled by themselves.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # Parallel retained columns; publish_batch() keeps timestamps monotone,
        # so ``since`` and ``prune_upto`` bisect instead of scanning history.
        self._timestamps: List[float] = []
        self._values: List[Any] = []
        self._sources: List[str] = []
        # The ordering invariant is against the last *published* element,
        # which pruning may already have discarded from the retained lists.
        self._last_timestamp = float("-inf")
        self._subscribers: List[Callable[[StreamElement], None]] = []
        self._batch_subscribers: List[BatchCallback] = []
        self._closed = False
        # Watermark-pruning bookkeeping: elements with timestamp < the
        # watermark may have been discarded; ``_pruned`` counts them.
        self._pruned = 0
        self._watermark = float("-inf")
        # High-water mark of the retained suffix: the memory-boundedness
        # figure benchmark asserts ride on (flat across campaign lengths
        # when consumers prune as they go).
        self.max_retained = 0

    def __len__(self) -> int:
        """Retained element count (equals total published until pruning)."""
        return len(self._timestamps)

    @property
    def elements(self) -> List[StreamElement]:
        """The retained suffix (everything, until :meth:`prune_upto` runs)."""
        return list(map(_element, zip(self._timestamps, self._values, self._sources)))

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def total_published(self) -> int:
        """Lifetime element count, pruned prefix included."""
        return self._pruned + len(self._timestamps)

    @property
    def pruned_count(self) -> int:
        return self._pruned

    @property
    def watermark(self) -> float:
        """Largest prune boundary so far (−inf before any pruning)."""
        return self._watermark

    # ------------------------------------------------------------- publish

    def publish(self, element: StreamElement) -> None:
        self.publish_batch([element.timestamp], [element.value], element.source)

    def publish_batch(
        self, timestamps: List[float], values: List[Any], source: str = ""
    ) -> None:
        """Append ``(timestamps[k], values[k], source)`` for every ``k``.

        The timestamp column must be monotone and start no earlier than the
        last published element.  Subscribers must not mutate the columns.
        """
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        if not timestamps:
            return
        size = len(timestamps)
        if len(values) != size:
            raise ValueError(f"{size} timestamps for {len(values)} values")
        if timestamps[0] < self._last_timestamp or timestamps != sorted(timestamps):
            previous = self._last_timestamp
            for stamp in timestamps:
                if stamp < previous:
                    raise ValueError(
                        f"stream {self.name!r}: element timestamp "
                        f"{stamp} precedes {previous}"
                    )
                previous = stamp
        self._timestamps.extend(timestamps)
        self._values.extend(values)
        self._sources.extend(repeat(source, size))
        self._last_timestamp = timestamps[-1]
        if len(self._timestamps) > self.max_retained:
            self.max_retained = len(self._timestamps)
        if self._subscribers:
            elements = list(map(_element, zip(timestamps, values, repeat(source))))
            for subscriber in self._subscribers:
                for element in elements:
                    subscriber(element)
        for subscriber in self._batch_subscribers:
            subscriber(timestamps, values)

    # ----------------------------------------------------------- subscribe

    def subscribe(self, callback: Callable[[StreamElement], None]) -> None:
        self._subscribers.append(callback)

    def subscribe_batch(self, callback: BatchCallback) -> None:
        """Receive whole batches as ``callback(timestamps, values)``."""
        self._batch_subscribers.append(callback)

    def close(self) -> None:
        """No further elements; processors flush pending windows."""
        self._closed = True

    # ------------------------------------------------------------- queries

    def since_columns(self, timestamp: float) -> Tuple[list, list, list]:
        """:meth:`since` as its ``(timestamps, values, sources)`` columns."""
        if self._pruned and timestamp < self._watermark:
            raise ValueError(
                f"stream {self.name!r}: since({timestamp}) reaches below the "
                f"prune watermark {self._watermark} ({self._pruned} elements "
                "already discarded)"
            )
        start = bisect.bisect_left(self._timestamps, timestamp)
        return self._timestamps[start:], self._values[start:], self._sources[start:]

    def since(self, timestamp: float) -> List[StreamElement]:
        """Elements with timestamp >= the given instant (bisected suffix).

        Correct on a pruned stream for any ``timestamp >= watermark`` —
        pruning only ever discards elements strictly below the watermark.
        Queries reaching into the pruned region raise instead of silently
        missing elements.
        """
        return list(map(_element, zip(*self.since_columns(timestamp))))

    def prune_upto(self, timestamp: float) -> int:
        """Discard elements with timestamp < ``timestamp``; returns count.

        Consumers call this as their watermark advances (all windows below
        it closed and handed off), keeping retained memory proportional to
        the in-flight window span.
        """
        index = bisect.bisect_left(self._timestamps, timestamp)
        if index:
            del self._timestamps[:index]
            del self._values[:index]
            del self._sources[:index]
            self._pruned += index
        if timestamp > self._watermark:
            self._watermark = timestamp
        return index
