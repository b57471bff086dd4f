"""Event and event-queue primitives for the DES kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events scheduled for the same
instant with the same priority are dispatched in scheduling order, which is
what makes simulated schedules reproducible run-to-run.

The heap holds ``(time, priority, sequence, event)`` tuples rather than the
events themselves: every sift comparison then resolves on the first three
fields in C, never in Python — at millions of heap operations per run a
Python comparator would be a measurable share of the whole simulation
loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class Event:
    """A single scheduled event.

    The queue orders events by their ``(time, priority, sequence)`` heap
    entry; an event itself defines no ordering.  Slotted by hand
    (``dataclass(slots=True)`` needs Python 3.10): one is built per push,
    and an instance ``__dict__`` was the larger half of it.

    Attributes:
        time: virtual timestamp at which the event fires.
        priority: tie-breaker for events at the same instant (lower first).
        sequence: monotonically increasing scheduling order (assigned by the
            queue); makes ordering total.
        action: zero-argument callable executed when the event fires.
        label: human-readable tag used in traces and error messages.
        cancelled: cancelled events are skipped when popped.
    """

    __slots__ = ("time", "priority", "sequence", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        action: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events; O(n), diagnostics only."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at virtual ``time`` and return the Event.

        The returned handle can be cancelled with :meth:`Event.cancel`.
        """
        sequence = next(self._counter)
        event = Event(time, priority, sequence, action, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def push_sequenced(self, time, action, priority, sequence, label="") -> Event:
        """:meth:`push` under a caller-drawn, never repeated ``sequence``: the
        caller decides how it ties with every event at ``(time, priority)``."""
        event = Event(time, priority, sequence, action, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None
