"""Zone shards behind one sequential window driver, and the causality checks.

A simulation here runs one of two ways.  On *one timeline*: a single
:class:`~repro.simulation.engine.SimulationEngine` whose heap orders every
event — the only sound choice when something can react anywhere instantly
(the simulated executor's central scheduler, one message bus over a whole
fleet).  Or as *zone programs*: one :class:`SimulationEngine` per network
zone — own clock, own queue, own sequence counter — whose programs touch
each other only through :meth:`ShardApi.send
<repro.simulation.parallel.ShardApi.send>`, which must pay the effective
inter-zone latency.  That latency is what lets every zone run ahead on its
own: an event in zone A cannot affect zone B sooner than the shortest-path
latency between them, so each round every shard may drain the window
``[GVT, GVT + lookahead)``, GVT being the earliest pending event anywhere
and the lookahead the smallest inter-zone latency.  Every round on every
driver is exactly that window: a message sent inside it lands at or after
its end whatever the traffic, while a wider one would also have to bound
round trips that start at the receiver itself.  Within a shard dispatch
order is the familiar ``(time, priority, sequence)``, a delivered message
after the shard's own events at equal ``(time, priority)``; across shards
inside one window it is shard-major — exactly the reordering the latency
argument proves unobservable.

:class:`ShardedSimulationEngine` is that round run sequentially, a cross-zone
message filed on its destination shard the moment it is sent: the reference
(:func:`~repro.simulation.parallel.run_programs_sharded`) that the lane
drivers of :mod:`repro.simulation.parallel` — the same shards behind a
barrier, in-process or forked — are compared against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.infrastructure.network import NetworkTopology
from repro.simulation.engine import SimulationEngine, SimulationError

#: Slack subtracted from cross-shard latency floors before rejecting a
#: push, so float round-off in ``now + latency`` arithmetic cannot turn a
#: contract-honoring schedule into an error.
_EPS = 1e-9


def lookahead_horizon(latency: Dict[tuple, float]) -> float:
    """Validated conservative window width for a zone latency matrix: the
    minimum effective inter-zone latency, the widest window causality allows.
    """
    horizon = min(
        (lat for (a, b), lat in latency.items() if a != b),
        default=float("inf"),
    )
    if not horizon > 0:
        raise SimulationError(
            "lookahead windows need a positive inter-zone latency "
            f"(got {horizon!r}); zero-latency zones cannot be "
            "windowed — run them on one SimulationEngine"
        )
    if horizon == float("inf"):
        raise SimulationError(
            "lookahead windows need at least two zones to synchronize"
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
    """The cross-shard causal floor, shared by every zone-program driver.

    A cross-zone effect may not land earlier than ``now + effective
    latency`` (modulo the float-round-off slack ``_EPS``).  Raising here is
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
    """One :class:`SimulationEngine` per zone, drained window by window.

    Attributes:
        latency: effective ``{(src zone, dst zone): seconds}`` matrix.
        lookahead: the window width (:func:`lookahead_horizon`).
        now: the frontier every shard clock landed on after the last run.
        dispatched_events: events dispatched by the most recent :meth:`run`.
    """

    def __init__(
        self,
        network: NetworkTopology,
        zones: Optional[List[str]] = None,
        max_events: int = 50_000_000,
    ) -> None:
        zones = network.zones() if zones is None else zones
        self.latency = network.zone_latency_matrix(zones)
        self.lookahead = lookahead_horizon(self.latency)
        self.max_events = max_events
        # A shard is never run(), so its own valve counts its lifetime: it
        # stops a zero-delay loop inside one window; run() checks the total
        # of all shards once per round.
        self._shards = {
            zone: SimulationEngine(max_events=max_events) for zone in zones
        }
        self.now = 0.0
        self.dispatched_events = 0

    def shard(self, name: str) -> SimulationEngine:
        """The zone's shard core: its own clock and queue."""
        return self._shards[name]

    def run(self, until: Optional[float] = None) -> float:
        """Run every shard to quiescence, or to ``until``.

        With a horizon every clock lands exactly on ``until``; at quiescence
        on the latest dispatched instant (the single-queue engine's final
        time, not the last window's GVT — a shard left behind it would accept
        schedules in the global past).
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until:.6f}, before now ({self.now:.6f})"
            )
        shards = list(self._shards.values())
        before = sum(shard.lifetime_dispatched for shard in shards)
        self.dispatched_events = 0
        while True:
            heads = [shard.queue.peek_time() for shard in shards]
            gvt = min((t for t in heads if t is not None), default=None)
            if gvt is None or (until is not None and gvt > until):
                break
            # A message sent inside this round lands at or after its end
            # (the send floor), so shard order within a round is unobservable.
            window_end = gvt + self.lookahead
            for shard in shards:
                shard.drain(window_end, until)
            self.dispatched_events = (
                sum(shard.lifetime_dispatched for shard in shards) - before
            )
            if self.dispatched_events > self.max_events:
                raise SimulationError(
                    f"dispatched more than {self.max_events} events; "
                    "likely a self-rescheduling loop"
                )
        landing = until
        if landing is None:
            landing = max(self.now, *(shard.now for shard in shards))
        for shard in shards:
            if shard.now < landing:
                shard.clock.advance_to(landing)
        self.now = landing
        return landing
