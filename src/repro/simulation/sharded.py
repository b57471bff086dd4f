"""Zone-sharded discrete-event engine with conservative lookahead.

The single-queue :class:`~repro.simulation.engine.SimulationEngine` funnels
every event — a completion in the fog, a message between two cloud agents —
through one heap.  This engine partitions the platform by *network zone*
instead: each zone gets its own clock and event queue, plus one ``control``
shard for platform-global machinery (the scheduler's dispatch loop, stop
conditions).

Two execution modes, one scheduling API:

``coupled`` (default)
    Every dispatch pops the globally earliest event across all shard
    queues.  Because the shard queues share one sequence counter, the merge
    key ``(time, priority, sequence)`` is the exact single-queue ordering —
    dispatch order, and therefore every simulation outcome, is *byte
    identical* to ``SimulationEngine`` by construction.  This is the safe
    mode for workloads with a zero-latency hub (the simulated executor's
    central scheduler can react to any completion instantly, which makes
    the true lookahead between its events zero).

``lookahead``
    Classic conservative PDES windows.  Zones are causally insulated by
    network latency: an event in zone A cannot affect zone B sooner than
    the effective (shortest-path) zone latency, so each round every shard
    may independently drain the window ``[GVT, GVT + lookahead)`` where GVT
    is the global minimum next-event time and the lookahead is the minimum
    effective inter-zone latency (:meth:`NetworkTopology
    .min_inter_zone_latency`).  Cross-shard scheduling during a round must
    honor the latency that justifies the window — :meth:`at` enforces
    ``time >= sender_now + effective_latency(src_zone, dst_zone)`` and
    raises :class:`SimulationError` on violation rather than silently
    breaking causality.  Within a shard, dispatch order is the familiar
    ``(time, priority, sequence)``; across shards inside one window it is
    shard-major, which is exactly the reordering the latency argument
    proves unobservable.

The engine is deliberately sequential: windows bound *logical* concurrency
(how far shards may causally run ahead of each other), which is what the
multiprocess sweep driver and the equivalence tests exercise.  The window
loop is written so each shard's round drain is independent, so a thread
per shard could be dropped in without changing any result.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.infrastructure.network import NetworkTopology
from repro.simulation.clock import SimClock
from repro.simulation.engine import SimulationError
from repro.simulation.events import Event, EventQueue

#: Shard name for events that belong to no zone (``shard=None``): the
#: scheduler's dispatch loop, stop conditions, other global machinery.
CONTROL_SHARD = "control"

#: Slack subtracted from cross-shard latency floors before rejecting a
#: push, so float round-off in ``now + latency`` arithmetic cannot turn a
#: contract-honoring schedule into an error.
_EPS = 1e-9


def lookahead_horizon(
    latency: Dict[tuple, float], lookahead: Optional[float]
) -> float:
    """Validated conservative window width for a zone latency matrix.

    Defaults to the minimum effective inter-zone latency (the widest window
    causality allows); an explicit ``lookahead`` may only be narrower.
    """
    floor = min(
        (lat for (a, b), lat in latency.items() if a != b),
        default=float("inf"),
    )
    horizon = floor if lookahead is None else lookahead
    if not horizon > 0:
        raise SimulationError(
            "lookahead mode needs a positive inter-zone latency "
            f"(got {horizon!r}); zero-latency zones cannot be "
            "windowed — use mode='coupled'"
        )
    if horizon == float("inf"):
        raise SimulationError(
            "lookahead mode needs at least two zones to synchronize"
        )
    if horizon > floor:
        raise SimulationError(
            f"lookahead {horizon} exceeds the minimum effective "
            f"inter-zone latency {floor}; the window would outrun "
            "causality"
        )
    return horizon


def check_latency_floor(
    src_zone: str,
    dst_zone: str,
    now: float,
    time: float,
    latency: float,
    label: str = "",
) -> None:
    """The cross-shard causal floor, shared by every engine flavor.

    A cross-zone effect may not land earlier than ``now + effective
    latency`` (modulo the float-round-off slack ``_EPS``).  Raising here —
    in the sharded, the parallel and the sequential reference engines — is
    what keeps "schedules that would break causality" an error instead of a
    silent corruption.
    """
    floor = now + latency
    if time < floor - _EPS:
        raise SimulationError(
            f"cross-shard event {label!r} from {src_zone!r} "
            f"(now {now:.6f}) to {dst_zone!r} at "
            f"{time:.6f} undercuts the zone latency floor "
            f"({floor:.6f}); conservative windows require every "
            "cross-zone effect to pay the network latency"
        )


class _Shard:
    """One zone's private timeline: a clock, a queue, a dispatch counter."""

    __slots__ = ("name", "clock", "queue", "dispatched")

    def __init__(self, name: str, start: float, counter: itertools.count) -> None:
        self.name = name
        self.clock = SimClock(start)
        self.queue = EventQueue(counter)
        self.dispatched = 0


class ShardedSimulationEngine:
    """Drop-in engine partitioned by network zone.

    Implements the :class:`~repro.simulation.engine.SimulationEngine`
    surface (``at`` / ``after`` / ``run`` / ``step`` / ``stop`` / ``now`` /
    ``dispatched_events``); callers route events with the ``shard=`` kwarg
    the single-queue engine accepts and ignores.  Unknown shard names are
    materialized on first use, so callers may pass zone names straight from
    :meth:`NetworkTopology.zone_of` without pre-registering anything.
    """

    is_sharded = True

    def __init__(
        self,
        network: Optional[NetworkTopology] = None,
        zones: Optional[List[str]] = None,
        start: float = 0.0,
        max_events: int = 50_000_000,
        mode: str = "coupled",
        lookahead: Optional[float] = None,
    ) -> None:
        if mode not in ("coupled", "lookahead"):
            raise ValueError(f"unknown mode {mode!r} (coupled or lookahead)")
        self.network = network
        self.mode = mode
        self.max_events = max_events
        self._start = start
        #: Global clock: last dispatched time in coupled mode, the GVT
        #: (minimum over shard clocks) frontier in lookahead mode.
        self.clock = SimClock(start)
        self._counter = itertools.count()
        self._shards: Dict[str, _Shard] = {}
        if zones is None and network is not None:
            zones = network.zones()
        for zone in zones or ():
            self._shard(zone)
        self._shard(CONTROL_SHARD)
        self._dispatched = 0
        self._lifetime_dispatched = 0
        self._stopped = False
        #: Shard currently executing an event (None between dispatches).
        self._executing: Optional[_Shard] = None
        self._latency: Dict[tuple, float] = {}
        self.lookahead: Optional[float] = None
        if mode == "lookahead":
            if network is None:
                raise SimulationError("lookahead mode requires a network topology")
            zone_names = [z for z in self._shards if z != CONTROL_SHARD]
            self._latency = network.zone_latency_matrix(zone_names)
            self.lookahead = lookahead_horizon(self._latency, lookahead)

    # ----------------------------------------------------------------- shards

    def _shard(self, name: str) -> _Shard:
        shard = self._shards.get(name)
        if shard is None:
            # A shard born mid-run starts at the global frontier: every
            # event it will ever receive is scheduled at or after now.
            self._shards[name] = shard = _Shard(
                name, self.clock.now, self._counter
            )
        return shard

    def _latency_between(self, src: str, dst: str) -> float:
        """Causal floor for a cross-shard push (lookahead mode only)."""
        lat = self._latency.get((src, dst))
        if lat is None:
            # Control shard and late-born zones: at least one window.
            return self.lookahead or 0.0
        return lat

    @property
    def shard_names(self) -> List[str]:
        return list(self._shards)

    def shard_now(self, name: str) -> float:
        """A shard's own clock (its zone-local virtual time).

        During dispatch of one of the shard's events this equals
        :attr:`now`; between windows a shard may be ahead of the global
        frontier, which is exactly what zone-local callers (the program
        adapters in :mod:`repro.simulation.parallel`) need to read.
        """
        return self._shard(name).clock.now

    @property
    def shard_dispatch_counts(self) -> Dict[str, int]:
        """Events dispatched per shard (diagnostics / load-balance checks)."""
        return {name: shard.dispatched for name, shard in self._shards.items()}

    # ------------------------------------------------------------- scheduling

    @property
    def now(self) -> float:
        """Virtual time: the executing shard's clock during dispatch, the
        global frontier otherwise."""
        executing = self._executing
        if executing is not None:
            return executing.clock.now
        return self.clock.now

    @property
    def dispatched_events(self) -> int:
        """Events dispatched by the current (or most recent) :meth:`run`."""
        return self._dispatched

    @property
    def lifetime_dispatched(self) -> int:
        return self._lifetime_dispatched

    def at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
        shard: Optional[str] = None,
    ) -> Event:
        """Schedule ``action`` at absolute ``time`` on ``shard``.

        ``shard=None`` routes to the control shard.  While an event is
        executing, a push onto a *different* shard is a cross-timeline
        message: in lookahead mode it must respect the effective network
        latency between the zones (that latency is the entire justification
        for letting the target run ahead), so ``time`` earlier than
        ``now + latency`` raises :class:`SimulationError`.
        """
        target = self._shard(shard if shard is not None else CONTROL_SHARD)
        source = self._executing
        if source is None:
            # Outside dispatch (setup, between runs): only the target's own
            # past is off-limits.
            if time < target.clock.now:
                raise SimulationError(
                    f"cannot schedule event {label!r} at {time:.6f} on shard "
                    f"{target.name!r}, which is before its now "
                    f"({target.clock.now:.6f})"
                )
        elif target is source or self.mode == "coupled":
            # Same timeline — or coupled mode, where all shards advance in
            # global order and the single-queue rule applies verbatim.
            if time < source.clock.now:
                raise SimulationError(
                    f"cannot schedule event {label!r} at {time:.6f}, "
                    f"which is before now ({source.clock.now:.6f})"
                )
        else:
            check_latency_floor(
                source.name,
                target.name,
                source.clock.now,
                time,
                self._latency_between(source.name, target.name),
                label,
            )
        return target.queue.push(time, action, priority=priority, label=label)

    def after(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
        shard: Optional[str] = None,
    ) -> Event:
        """Schedule ``action`` ``delay`` seconds from now on ``shard``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r} for event {label!r}")
        return self.at(
            self.now + delay, action, priority=priority, label=label, shard=shard
        )

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    # --------------------------------------------------------------- dispatch

    def _dispatch_one(self, shard: _Shard) -> None:
        event = shard.queue.pop()
        if event is None:  # pragma: no cover - callers peek first
            return
        shard.clock.advance_to(event.time)
        shard.dispatched += 1
        self._dispatched += 1
        self._lifetime_dispatched += 1
        if self._dispatched > self.max_events:
            raise SimulationError(
                f"dispatched more than {self.max_events} events; "
                "likely a self-rescheduling loop"
            )
        self._executing = shard
        try:
            event.action()
        finally:
            self._executing = None

    def _min_shard(self) -> Optional[_Shard]:
        """Shard holding the globally earliest live event, or None."""
        best = None
        best_key = None
        for shard in self._shards.values():
            key = shard.queue.peek_key()
            if key is not None and (best_key is None or key < best_key):
                best, best_key = shard, key
        return best

    def step(self) -> bool:
        """Dispatch the single globally earliest event (merge order).

        Matches the single-queue engine's ``step`` exactly; in lookahead
        mode it is simply a window of one event, which is always safe.
        """
        shard = self._min_shard()
        if shard is None:
            return False
        time = shard.queue.peek_time()
        if time > self.clock.now:
            self.clock.advance_to(time)
        self._dispatch_one(shard)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run to quiescence, :meth:`stop`, or ``until``.

        Same contract as the single-queue engine: with a horizon the
        global clock lands exactly on ``until`` unless stopped, and
        ``dispatched_events`` counts this run only.
        """
        self._stopped = False
        self._dispatched = 0
        if until is not None and until < self.clock.now:
            raise SimulationError(
                f"cannot run until {until:.6f}, before now ({self.clock.now:.6f})"
            )
        if self.mode == "coupled":
            self._run_coupled(until)
        else:
            self._run_lookahead(until)
        if not self._stopped and until is not None:
            for shard in self._shards.values():
                if shard.clock.now < until:
                    shard.clock.advance_to(until)
            if self.clock.now < until:
                self.clock.advance_to(until)
        else:
            # Quiescence (or stop): land on the single-queue engine's final
            # time — the latest dispatched instant — not the last window's
            # GVT.  Leaving shard clocks behind the frontier would accept
            # at() schedules in the global past that SimulationEngine
            # rejects; at quiescence every queue is drained, so advancing
            # the laggards is safe.  After a stop() only the global clock
            # moves: stopped shards may still hold earlier pending events.
            frontier = max(
                (shard.clock.now for shard in self._shards.values()),
                default=self.clock.now,
            )
            if not self._stopped:
                for shard in self._shards.values():
                    if shard.clock.now < frontier:
                        shard.clock.advance_to(frontier)
            if self.clock.now < frontier:
                self.clock.advance_to(frontier)
        return self.clock.now

    def _run_coupled(self, until: Optional[float]) -> None:
        shards = self._shards
        clock = self.clock
        while not self._stopped:
            best = None
            best_key = None
            for shard in shards.values():
                key = shard.queue.peek_key()
                if key is not None and (best_key is None or key < best_key):
                    best, best_key = shard, key
            if best is None:
                break
            time = best_key[0]
            if until is not None and time > until:
                break
            if time > clock.now:
                clock.advance_to(time)
            self._dispatch_one(best)

    def _run_lookahead(self, until: Optional[float]) -> None:
        lookahead = self.lookahead
        clock = self.clock
        while not self._stopped:
            # GVT: the earliest event anywhere defines the next window.
            gvt = None
            for shard in self._shards.values():
                time = shard.queue.peek_time()
                if time is not None and (gvt is None or time < gvt):
                    gvt = time
            if gvt is None:
                break
            if until is not None and gvt > until:
                break
            if gvt > clock.now:
                clock.advance_to(gvt)
            window_end = gvt + lookahead
            # Each shard independently drains its slice of the window.  The
            # shard list is materialized first because a dispatched event
            # may create a new shard; events landing there this round are
            # all at/after window_end (the push contract), so the new shard
            # joins from the next round.
            for shard in list(self._shards.values()):
                queue = shard.queue
                while not self._stopped:
                    time = queue.peek_time()
                    if (
                        time is None
                        or time >= window_end
                        or (until is not None and time > until)
                    ):
                        break
                    self._dispatch_one(shard)
                if self._stopped:
                    break
