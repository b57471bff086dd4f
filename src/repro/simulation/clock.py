"""Virtual clock for the discrete-event simulation kernel.

The clock only ever moves forward; attempting to rewind it is a programming
error and raises immediately, because a silently time-travelling simulation
produces plausible-looking but meaningless schedules.
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised when the virtual clock would move backwards."""


class SimClock:
    """A monotone virtual clock measured in seconds.

    The clock starts at ``0.0`` (or an explicit ``start``) and is advanced by
    the simulation engine as events are dispatched.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises:
            ClockError: if ``timestamp`` is in the past.
        """
        if timestamp < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now:.6f} to {timestamp:.6f}"
            )
        self._now = float(timestamp)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
