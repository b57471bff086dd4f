"""Zone-sharded discrete-event engine: the sequential shard driver.

The single-queue :class:`~repro.simulation.engine.SimulationEngine` funnels
every event — a completion in the fog, a message between two cloud agents —
through one heap.  This engine partitions the platform by *network zone*
instead.  A shard *is* a :class:`SimulationEngine` — the one shard core:
clock, queue, counters, ``at``/``after``/``step`` — one per zone plus one
``control`` shard for platform-global machinery (the scheduler's dispatch
loop, stop conditions), their queues sharing one sequence counter.  What
this class adds is the *driver*: which shard steps next, what a push from
one shard onto another must honor, and one runaway valve over all of them.
The other two drivers of the same shard core — in-process and forked lanes
behind a window barrier — live in :mod:`repro.simulation.parallel`.

Two execution modes, one scheduling API, one run loop (find the globally
earliest event, then dispatch it — or the window it opens):

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
    proves unobservable.  This mode is the reference the lane drivers'
    equivalence suites compare against.

The round drains each shard event by event rather than through
:meth:`SimulationEngine.drain`: every dispatch has to mark the executing
shard (cross-shard pushes are judged against *its* clock) and count against
the whole engine's ``max_events``, which bounds one :meth:`run` across all
shards exactly.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.infrastructure.network import NetworkTopology
from repro.simulation.clock import SimClock
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.events import Event

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
        #: Global clock: last dispatched time in coupled mode, the GVT
        #: (minimum over shard clocks) frontier in lookahead mode.
        self.clock = SimClock(start)
        self._counter = itertools.count()
        self._shards: Dict[str, SimulationEngine] = {}
        if zones is None and network is not None:
            zones = network.zones()
        for zone in zones or ():
            self.shard(zone)
        self.shard(CONTROL_SHARD)
        self._dispatched = 0
        self._stopped = False
        #: Shard currently executing an event (None between dispatches),
        #: and its name (meaningful only while one is executing).
        self._executing: Optional[SimulationEngine] = None
        self._executing_name = ""
        self._latency: Dict[tuple, float] = {}
        self.lookahead: Optional[float] = None
        if mode == "lookahead":
            if network is None:
                raise SimulationError("lookahead mode requires a network topology")
            zone_names = [z for z in self._shards if z != CONTROL_SHARD]
            self._latency = network.zone_latency_matrix(zone_names)
            self.lookahead = lookahead_horizon(self._latency, lookahead)

    # ----------------------------------------------------------------- shards

    def shard(self, name: str) -> SimulationEngine:
        """The shard core behind ``name``: its zone-local clock and queue.

        During dispatch of one of the shard's events its ``now`` equals
        :attr:`now`; between windows a shard may be ahead of the global
        frontier, which is what a zone-local caller (a :class:`ShardApi`
        over this shard) needs to read.
        """
        shard = self._shards.get(name)
        if shard is None:
            # A shard born mid-run starts at the global frontier: every
            # event it will ever receive is scheduled at or after now.  Its
            # own valve is off — a shard is never run(), so its per-run
            # counter is cumulative; this engine's valve bounds the run.
            self._shards[name] = shard = SimulationEngine(
                self.clock.now, max_events=sys.maxsize, counter=self._counter
            )
        return shard

    @property
    def shard_names(self) -> List[str]:
        return list(self._shards)

    @property
    def shard_dispatch_counts(self) -> Dict[str, int]:
        """Events dispatched per shard (diagnostics / load-balance checks)."""
        return {
            name: shard.lifetime_dispatched for name, shard in self._shards.items()
        }

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
        return sum(shard.lifetime_dispatched for shard in self._shards.values())

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
        name = shard if shard is not None else CONTROL_SHARD
        target = self.shard(name)
        source = self._executing
        if source is None or source is target:
            # Outside dispatch, or the executing shard's own timeline: only
            # the target's past is off-limits — the shard core's own rule.
            return target.at(time, action, priority=priority, label=label)
        now = source.clock.now
        if self.lookahead is None:
            # Coupled: all shards advance in global order, so the
            # single-queue rule applies against the executing clock (the
            # target's own clock may lag it).
            if time < now:
                raise SimulationError(
                    f"cannot schedule event {label!r} at {time:.6f}, "
                    f"which is before now ({now:.6f})"
                )
        else:
            # Control shard and late-born zones are off the matrix: they
            # pay at least one window.
            source_name = self._executing_name
            latency = self._latency.get((source_name, name), self.lookahead)
            check_latency_floor(source_name, name, now, time, latency, label)
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

    def _dispatch_one(self, name: str, shard: SimulationEngine) -> None:
        """Step ``shard`` once (callers peeked: it has a live event)."""
        self._dispatched += 1
        if self._dispatched > self.max_events:
            raise SimulationError(
                f"dispatched more than {self.max_events} events; "
                "likely a self-rescheduling loop"
            )
        self._executing_name = name
        self._executing = shard
        try:
            shard.step()
        finally:
            self._executing = None

    def _min_shard(self) -> Optional[Tuple[float, str, SimulationEngine]]:
        """``(time, name, shard)`` of the globally earliest live event.

        The time is the GVT; None when every queue is drained.
        """
        best = None
        best_key = None
        for item in self._shards.items():
            key = item[1].queue.peek_key()
            if key is not None and (best_key is None or key < best_key):
                best, best_key = item, key
        if best is None:
            return None
        return best_key[0], best[0], best[1]

    def _advance_to(self, time: float) -> None:
        if time > self.clock.now:
            self.clock.advance_to(time)

    def step(self) -> bool:
        """Dispatch the single globally earliest event (merge order).

        Matches the single-queue engine's ``step`` exactly; in lookahead
        mode it is simply a window of one event, which is always safe.
        """
        head = self._min_shard()
        if head is None:
            return False
        time, name, shard = head
        self._advance_to(time)
        self._dispatch_one(name, shard)
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
        shards = self._shards
        while not self._stopped:
            # GVT: the earliest event anywhere is the next dispatch
            # (coupled) or opens the next window (lookahead).
            head = self._min_shard()
            if head is None or (until is not None and head[0] > until):
                break
            gvt, name, shard = head
            self._advance_to(gvt)
            if self.lookahead is None:
                self._dispatch_one(name, shard)
                continue
            window_end = gvt + self.lookahead
            # Each shard independently drains its slice of the window.  The
            # shard list is materialized first because a dispatched event
            # may create a new shard; events landing there this round are
            # all at/after window_end (the push contract), so the new shard
            # joins from the next round.
            for name, shard in list(shards.items()):
                peek_time = shard.queue.peek_time
                while not self._stopped:
                    time = peek_time()
                    if (
                        time is None
                        or time >= window_end
                        or (until is not None and time > until)
                    ):
                        break
                    self._dispatch_one(name, shard)
        # Land the clocks.  With a horizon: exactly on ``until``.  At
        # quiescence: on the single-queue engine's final time — the latest
        # dispatched instant — not the last window's GVT; leaving shard
        # clocks behind the frontier would accept at() schedules in the
        # global past that SimulationEngine rejects, and every queue is
        # drained, so advancing the laggards is safe.  After a stop() only
        # the global clock moves: stopped shards may still hold earlier
        # pending events.
        landing = until
        if landing is None or self._stopped:
            landing = max(shard.clock.now for shard in shards.values())
        if not self._stopped:
            for shard in shards.values():
                if shard.clock.now < landing:
                    shard.clock.advance_to(landing)
        self._advance_to(landing)
        return self.clock.now
