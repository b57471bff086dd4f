"""The event queue of the DES kernel.

An event is its heap entry, the tuple ``(time, priority, sequence,
action)``; there is no event object.  The sequence number makes ordering
total and deterministic: two events scheduled for the same instant with the
same priority are dispatched in scheduling order, which is what makes
simulated schedules reproducible run-to-run.  Since the sequence is never
repeated, every sift comparison resolves on the first three fields in C and
never reaches the action.  Nothing cancels an event: a callback that may
have gone stale checks its own state when it fires.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class EventQueue:
    """A deterministic priority queue of ``(time, priority, sequence,
    action)`` entries."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], Any], priority: int = 0) -> None:
        """Schedule ``action`` at virtual ``time``."""
        heapq.heappush(self._heap, (time, priority, next(self._counter), action))

    def push_sequenced(self, time, action, priority, sequence) -> None:
        """:meth:`push` under a caller-drawn, never repeated ``sequence``: the
        caller decides how it ties with every event at ``(time, priority)``."""
        heapq.heappush(self._heap, (time, priority, sequence, action))

    def pop(self) -> Optional[tuple]:
        """Remove and return the earliest entry, or None."""
        heap = self._heap
        return heapq.heappop(heap) if heap else None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next event without removing it."""
        heap = self._heap
        return heap[0][0] if heap else None
