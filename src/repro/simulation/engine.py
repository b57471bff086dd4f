"""The discrete-event simulation engine.

A :class:`SimulationEngine` owns a virtual clock and an event queue and runs
events in deterministic timestamp order.  Subsystems (schedulers, network
model, failure injectors, elasticity controllers) schedule callbacks with
:meth:`at` / :meth:`after`; the engine dispatches them until the queue drains
or an explicit stop condition fires.

The engine is deliberately minimal — no coroutines, no implicit processes —
because the callers in this codebase (the simulated executor, the agents
substrate) are themselves state machines that only need "call me at time t".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation.clock import SimClock
from repro.simulation.events import EventQueue


class SimulationError(RuntimeError):
    """Raised for unrecoverable simulation conditions (e.g. runaway loops)."""


class SimulationEngine:
    """Deterministic discrete-event loop.

    Attributes:
        clock: the virtual clock, advanced as events dispatch.
        max_events: safety valve; exceeding it raises :class:`SimulationError`
            so an accidentally self-rescheduling event cannot hang a test run.
    """

    def __init__(self, start: float = 0.0, max_events: int = 50_000_000) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.max_events = max_events
        self._dispatched = 0
        self._lifetime_dispatched = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock._now

    @property
    def dispatched_events(self) -> int:
        """Events dispatched by the current (or most recent) :meth:`run`.

        Reset at the start of every ``run()`` call, matching ``max_events``:
        the safety valve bounds one run, so a caller alternating ``run(until=)``
        phases never trips it on cumulative volume.  Use
        :attr:`lifetime_dispatched` for totals across runs.
        """
        return self._dispatched

    @property
    def lifetime_dispatched(self) -> int:
        """Events dispatched over the engine's whole lifetime."""
        return self._lifetime_dispatched

    def at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` at absolute virtual ``time``."""
        if not time >= self.clock.now:  # negated: refuses NaN too
            raise SimulationError(
                f"cannot schedule an event at {time:.6f}, "
                f"which is not at or after now ({self.clock.now:.6f})"
            )
        self.queue.push(time, action, priority)

    def after(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` ``delay`` seconds from now."""
        if not delay >= 0:  # negated: refuses NaN too
            raise SimulationError(f"delay {delay!r} is negative or NaN")
        # now + (delay >= 0) is never in the past: at()'s check is implied.
        self.queue.push(self.clock._now + delay, action, priority)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        entry = self.queue.pop()
        if entry is None:
            return False
        self.clock.advance_to(entry[0])
        self._dispatched += 1
        self._lifetime_dispatched += 1
        if self._dispatched > self.max_events:
            raise SimulationError(
                f"dispatched more than {self.max_events} events; "
                "likely a self-rescheduling loop"
            )
        entry[3]()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, :meth:`stop` is called, or ``until``.

        Returns the final virtual time.  With a horizon, the clock always
        lands exactly on ``until`` unless :meth:`stop` cut the run short —
        including when the queue drains early, so periodic callers can rely
        on ``now == until`` to resume.
        """
        self._stopped = False
        self._dispatched = 0
        if until is None:
            # Hot path: no horizon to honor, so step() alone decides when to
            # stop, with no per-event peek.
            while not self._stopped and self.step():
                pass
            return self.clock.now
        if not until >= self.clock.now:  # negated: refuses NaN too
            raise SimulationError(
                f"cannot run until {until:.6f}, which is not at or after now "
                f"({self.clock.now:.6f})"
            )
        self.drain(float("inf"), until)
        if not self._stopped and self.clock.now < until:
            self.clock.advance_to(until)
        return self.clock.now

    def drain(self, window_end: float, until: Optional[float] = None) -> None:
        """Dispatch every event before ``window_end`` and not past ``until``.

        The one window loop: a horizon run is the window ``[now, inf)`` cut
        at ``until`` (inclusive); a lane's barrier round is
        ``[now, window_end)``.  Counts against the current run's valve —
        unlike :meth:`run` it resets nothing.
        """
        peek_time = self.queue.peek_time
        while not self._stopped:
            next_time = peek_time()
            if (
                next_time is None
                or next_time >= window_end
                or (until is not None and next_time > until)
            ):
                break
            self.step()
