"""The stream channel: timestamped elements plus subscriptions.

Two properties make this the dataflow plane's hot path viable at
production rates:

* **Batched publication** — :meth:`DataStream.publish_batch` appends a whole
  emission batch and notifies batch subscribers once, so the per-element
  cost is a list append plus a share of one callback, not a callback each.
* **Watermark pruning** — :meth:`DataStream.prune_upto` discards the
  consumed prefix (everything below the consumers' watermark), so retained
  memory is bounded by in-flight windows instead of campaign length.
  ``since()`` stays correct on the retained suffix (it bisects exactly as
  before) and refuses queries that reach into the pruned region rather
  than silently returning a truncated answer.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, List, NamedTuple, Sequence


class StreamElement(NamedTuple):
    """One element on a stream: an immutable, hashable, picklable record.

    The same record is shared by stream retention, every subscriber and a
    valve's spill buffer, so it must not be mutable.  The dataflow plane
    applies operator ``map``/``filter`` functions column-wise to a run of
    elements' values (all of one function, then the next), not element by
    element: they must be pure per element — which
    :func:`repro.core.compile.stream_task_key` content keys already require.
    """

    timestamp: float
    value: Any
    source: str = ""


class DataStream:
    """An append-only channel; subscribers see elements as they arrive.

    Publication happens in virtual time (whoever calls ``publish`` does so
    from a simulation event); subscribers are synchronous callbacks, which
    is all the DES needs — any delay they model is scheduled by themselves.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._elements: List[StreamElement] = []
        # Parallel timestamp list: publish() enforces monotonicity, so
        # ``since`` can bisect instead of scanning the whole history (the
        # scan made every window close O(campaign) on long streams).
        self._timestamps: List[float] = []
        # The ordering invariant is against the last *published* element,
        # which pruning may already have discarded from the retained lists.
        self._last_timestamp = float("-inf")
        self._subscribers: List[Callable[[StreamElement], None]] = []
        self._batch_subscribers: List[Callable[[Sequence[StreamElement]], None]] = []
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
        return len(self._elements)

    @property
    def elements(self) -> List[StreamElement]:
        """The retained suffix (everything, until :meth:`prune_upto` runs)."""
        return list(self._elements)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def total_published(self) -> int:
        """Lifetime element count, pruned prefix included."""
        return self._pruned + len(self._elements)

    @property
    def pruned_count(self) -> int:
        return self._pruned

    @property
    def watermark(self) -> float:
        """Largest prune boundary so far (−inf before any pruning)."""
        return self._watermark

    # ------------------------------------------------------------- publish

    def publish(self, element: StreamElement) -> None:
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        if element.timestamp < self._last_timestamp:
            raise ValueError(
                f"stream {self.name!r}: element timestamp {element.timestamp} "
                f"precedes the last published {self._last_timestamp}"
            )
        self._elements.append(element)
        self._timestamps.append(element.timestamp)
        self._last_timestamp = element.timestamp
        if len(self._elements) > self.max_retained:
            self.max_retained = len(self._elements)
        for subscriber in self._subscribers:
            subscriber(element)
        if self._batch_subscribers:
            batch = (element,)
            for subscriber in self._batch_subscribers:
                subscriber(batch)

    def publish_batch(self, elements: Sequence[StreamElement]) -> None:
        """Append a timestamp-ordered batch; one notification per batch.

        The batch must be internally monotone and start no earlier than the
        last published element — the same invariant ``publish`` enforces,
        checked on the batch's timestamp column as a whole.
        """
        if not elements:
            return
        if self._closed:
            raise RuntimeError(f"stream {self.name!r} is closed")
        stamps = [element.timestamp for element in elements]
        if stamps[0] < self._last_timestamp or stamps != sorted(stamps):
            previous = self._last_timestamp
            for stamp in stamps:
                if stamp < previous:
                    raise ValueError(
                        f"stream {self.name!r}: element timestamp "
                        f"{stamp} precedes {previous}"
                    )
                previous = stamp
        self._elements.extend(elements)
        self._timestamps.extend(stamps)
        self._last_timestamp = stamps[-1]
        if len(self._elements) > self.max_retained:
            self.max_retained = len(self._elements)
        if self._subscribers:
            for subscriber in self._subscribers:
                for element in elements:
                    subscriber(element)
        for subscriber in self._batch_subscribers:
            subscriber(elements)

    # ----------------------------------------------------------- subscribe

    def subscribe(self, callback: Callable[[StreamElement], None]) -> None:
        self._subscribers.append(callback)

    def subscribe_batch(
        self, callback: Callable[[Sequence[StreamElement]], None]
    ) -> None:
        """Receive whole emission batches (one call per publish_batch)."""
        self._batch_subscribers.append(callback)

    def close(self) -> None:
        """No further elements; processors flush pending windows."""
        self._closed = True

    # ------------------------------------------------------------- queries

    def since(self, timestamp: float) -> List[StreamElement]:
        """Elements with timestamp >= the given instant (bisected suffix).

        Correct on a pruned stream for any ``timestamp >= watermark`` —
        pruning only ever discards elements strictly below the watermark.
        Queries reaching into the pruned region raise instead of silently
        missing elements.
        """
        if self._pruned and timestamp < self._watermark:
            raise ValueError(
                f"stream {self.name!r}: since({timestamp}) reaches below the "
                f"prune watermark {self._watermark} ({self._pruned} elements "
                "already discarded)"
            )
        start = bisect.bisect_left(self._timestamps, timestamp)
        return self._elements[start:]

    def prune_upto(self, timestamp: float) -> int:
        """Discard elements with timestamp < ``timestamp``; returns count.

        Consumers call this as their watermark advances (all windows below
        it closed and handed off), keeping retained memory proportional to
        the in-flight window span.
        """
        index = bisect.bisect_left(self._timestamps, timestamp)
        if index:
            del self._elements[:index]
            del self._timestamps[:index]
            self._pruned += index
        if timestamp > self._watermark:
            self._watermark = timestamp
        return index
