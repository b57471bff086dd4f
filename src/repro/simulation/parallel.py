"""Parallel shard execution: zone programs, lanes, and the window barrier.

One shard core, three drivers.  A zone's shard is always a
:class:`~repro.simulation.engine.SimulationEngine` (clock, queue, counters,
``at``/``after``/``step``/``drain``); what differs is who steps it:

* the sequential :class:`~repro.simulation.sharded.ShardedSimulationEngine`
  (:func:`run_programs_sharded`, the equivalence suites' reference): one OS
  thread, windows drained shard-major, a cross-zone message filed onto the
  destination shard the moment it is sent;
* in-process lanes, and
* forked lanes (:class:`ParallelShardedSimulationEngine`): each *lane* owns
  one or more zone shards outright — their engines and all node-local state
  — drains ``[GVT, GVT + lookahead)`` per barrier round, and cross-zone
  messages are buffered during the window and exchanged only at the barrier,
  as pickled :class:`ChannelMessage` records (over OS pipes when forked).

The execution model is programs-per-zone rather than one global callable: a
``{zone: factory}`` mapping where each ``factory(api)`` receives the one
:class:`ShardApi` — the zone's shard core behind the familiar
``at``/``after``/``now`` surface plus an explicit :meth:`ShardApi.send` for
cross-zone effects.  ``send`` validates once for all three drivers (the
latency floor of :func:`~repro.simulation.sharded.check_latency_floor`:
``time >= now + effective latency - _EPS``, :class:`SimulationError` on
violation) and hands the message to wherever its driver said validated
messages go: the barrier outbox, or straight onto the destination shard.
:func:`run_zone_programs` is the entry point that picks the driver by name;
the zone workloads (``zonal``, ``hybrid_stream``, decomposed ``churn``) all
go through it.

Why a barrier for *every* cross-shard message, even between shards that
happen to share a lane: the exchange point is part of the ordering contract.
Messages are delivered sorted by ``(time, priority, src_index, send_seq)``
at the window boundary regardless of transport, so the fork and inline
transports are byte-identical by construction — the inline mode is not a
degraded fallback but the same coordinator loop over in-process lanes, and
payloads take the identical pickle round-trip either way (a handler always
receives a *copy*, never the sender's object).  Delivery is the one place
the drivers differ in *when* a message enters its queue (at send, at the
barrier), so :meth:`ShardApi.deliver` fixes the tie rule for all of them:
at equal ``(time, priority)`` a zone's own events dispatch first, delivered
messages after them in delivery order.

Determinism boundary: lane placement (which zones share a process) affects
wall-clock only, never results — zone state is never shared and message
exchange is transport-independent.  Worker counts, core counts, and fork
availability therefore cannot change a simulation's outcome.

Only the fork path imports :mod:`multiprocessing` (:func:`_fork_context`, the
first time a run forks lanes): the sequential reference and the inline lanes
run on what this module and the engine already loaded.  The scenario-sweep
driver (:mod:`repro.simulation.sweep`) forks its pool through the same
helper.
"""

from __future__ import annotations

import itertools
import pickle
import sys
import time as _time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.infrastructure.network import NetworkTopology
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.sharded import (
    ShardedSimulationEngine,
    check_latency_floor,
    lookahead_horizon,
)

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: ``factory(api) -> result_fn | None``: builds one zone's program against a
#: :class:`ShardApi` and optionally returns a zero-arg callable evaluated at
#: the end of the run to produce the zone's result.
ProgramFactory = Callable[["ShardApi"], Optional[Callable[[], Any]]]

#: A forked lane's window reply is due within the longer of this floor and
#: ``_DEADLINE_FACTOR`` times the lane's longest window so far; a lane that
#: misses it has hung, and the run fails naming it.
_DEADLINE_FLOOR_S = 60.0
_DEADLINE_FACTOR = 100.0


@dataclass
class ChannelMessage:
    """One cross-shard event crossing a window barrier.

    The payload is pickled *at send time* — not at transport time — so the
    sender cannot mutate it afterwards and the inline and fork transports
    deliver bit-identical bytes.  Ordering at the receiving shard is by
    :attr:`sort_key`; ``send_seq`` is per-sender, so the key is total for
    any batch (no two messages share ``(src_index, send_seq)``).
    """

    time: float
    priority: int
    src_zone: str
    src_index: int
    send_seq: int
    dst_zone: str
    payload_bytes: bytes

    @property
    def sort_key(self) -> Tuple[float, int, int, int]:
        return (self.time, self.priority, self.src_index, self.send_seq)

    def payload(self) -> Any:
        """Unpickle a fresh copy of the payload (receivers own their copy)."""
        return pickle.loads(self.payload_bytes)


class ShardApi:
    """Zone-local facade over one shard core, handed to the zone's factory.

    Implements the :class:`~repro.simulation.engine.SimulationEngine`
    surface a zone-local caller (e.g. :class:`SimulatedExecutor`) needs —
    ``at`` / ``after`` / ``now`` / ``stop`` / ``dispatched_events`` — plus
    the explicit cross-zone channel: :meth:`send` to emit, and
    :meth:`on_message` to receive.  Everything a zone program schedules is
    zone-local by construction.

    ``engine`` is the zone's shard — a lane's own engine, or one shard of a
    sequential :class:`ShardedSimulationEngine`.  ``post`` is where a
    validated message goes; by default the outbox a lane empties at the
    window barrier (:meth:`drain_outbox`).
    """

    def __init__(
        self,
        zone: str,
        zone_index: int,
        zones: Tuple[str, ...],
        latency: Dict[Tuple[str, str], float],
        lookahead: float,
        engine: SimulationEngine,
        post: Optional[Callable[[ChannelMessage], Any]] = None,
    ) -> None:
        self.zone = zone
        self.zone_index = zone_index
        self._zones = frozenset(zones)
        self._latency = latency
        self._lookahead = lookahead
        self.engine = engine
        self._send_seq = itertools.count()
        # Deliveries draw queue sequence numbers from a band above any the
        # shard's own counter reaches: the tie rule of :meth:`deliver`.
        self._delivery_seq = itertools.count(sys.maxsize)
        self._outbox: List[ChannelMessage] = []
        self._post = post if post is not None else self._outbox.append
        self._handler: Optional[Callable[[Any], Any]] = None
        #: ``(now, entry)`` records appended by :meth:`log`; the per-zone
        #: stream the equivalence suites byte-compare.
        self.logs: List[Tuple[float, Any]] = []

    # ------------------------------------------------------- engine surface

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def dispatched_events(self) -> int:
        return self.engine.dispatched_events

    def at(self, time, action, priority=0) -> None:
        """Schedule a zone-local event (same contract as the engine)."""
        self.engine.at(time, action, priority)

    def after(self, delay, action, priority=0) -> None:
        self.engine.after(delay, action, priority)

    def stop(self) -> None:
        """Accepted and ignored (a zone-local executor calls it when its
        graph finishes): runs end at quiescence or the horizon, never by one
        zone halting the others — a global cut would make results depend on
        cross-zone dispatch interleaving, which the lookahead contract
        deliberately leaves unordered."""

    # ------------------------------------------------------------- channel

    def latency_to(self, dst_zone: str) -> float:
        """Effective latency to ``dst_zone`` (the send floor for it)."""
        return self._latency.get((self.zone, dst_zone), self._lookahead)

    def send(
        self,
        dst_zone: str,
        payload: Any,
        delay: Optional[float] = None,
        time: Optional[float] = None,
        priority: int = 0,
        label: str = "",
    ) -> ChannelMessage:
        """Emit a cross-zone message (lanes deliver it at the next barrier).

        Exactly one of ``delay`` / ``time`` picks the delivery instant
        (``delay`` is relative to :attr:`now`); it must pay the inter-zone
        latency floor or this raises :class:`SimulationError`.  The payload
        is pickled here, immediately — mutating it after send cannot affect
        the delivered copy — and one that cannot be pickled is the sender's
        error, raised here with the zones and label that identify it.
        """
        if dst_zone == self.zone:
            raise SimulationError(
                f"zone {self.zone!r} cannot send() to itself; use at()/after() "
                "for same-zone scheduling"
            )
        if dst_zone not in self._zones:
            raise SimulationError(
                f"send() to unknown zone {dst_zone!r} (zones: "
                f"{sorted(self._zones)})"
            )
        if (delay is None) == (time is None):
            raise SimulationError("send() takes exactly one of delay= or time=")
        when = self.now + delay if time is None else time
        check_latency_floor(
            self.zone, dst_zone, self.now, when, self.latency_to(dst_zone), label
        )
        try:
            payload_bytes = pickle.dumps(payload)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise SimulationError(
                f"send() {label!r} from zone {self.zone!r} to {dst_zone!r}: "
                f"payload cannot be pickled ({exc})"
            ) from exc
        message = ChannelMessage(
            time=when,
            priority=priority,
            src_zone=self.zone,
            src_index=self.zone_index,
            send_seq=next(self._send_seq),
            dst_zone=dst_zone,
            payload_bytes=payload_bytes,
        )
        self._post(message)
        return message

    def on_message(self, handler: Callable[[Any], Any]) -> None:
        """Register the zone's (single) cross-zone message handler."""
        self._handler = handler

    def log(self, entry: Any) -> None:
        """Append ``(now, entry)`` to the zone's deterministic log stream."""
        self.logs.append((self.now, entry))

    # ---------------------------------------------------- coordinator hooks

    def drain_outbox(self) -> List[ChannelMessage]:
        outbox = self._outbox[:]
        self._outbox.clear()
        return outbox

    def deliver(self, message: ChannelMessage) -> None:
        """File a message from another zone onto this zone's local queue.

        Pushed directly (not through ``at``): :meth:`send` already checked
        the floor against the sender's clock, so a delivery lands in the
        queue unconditionally and the dispatch-time clock advance is the
        causality check of record.

        The tie rule of every driver: at equal ``(time, priority)`` the
        zone's own events dispatch first and deliveries after them, in
        delivery order.  The reference delivers at send and the lanes at
        the barrier, so a plain push would order a delivery against the
        zone's own events by when its driver happened to file it.
        """
        if self._handler is None:
            raise SimulationError(
                f"zone {self.zone!r} received a message from "
                f"{message.src_zone!r} but registered no on_message handler"
            )
        handler = self._handler
        payload_bytes = message.payload_bytes
        self.engine.queue.push_sequenced(
            message.time,
            lambda: handler(pickle.loads(payload_bytes)),
            message.priority,
            next(self._delivery_seq),
        )


class _InlineLane:
    """A set of zone shards driven in-process; the fork worker wraps one too.

    Each shard is a :class:`ShardApi` over its own :class:`SimulationEngine`,
    built from the coordinating engine's programs and latency table.
    Answers the same ``send_window`` / ``recv_window`` pair as
    :class:`_ProcessLane`, so the coordinator loop has one shape.
    """

    def __init__(self, index: int, zones: List[Tuple[str, int]], engine) -> None:
        self.index = index
        self.zones = [zone for zone, _ in zones]
        self._programs = engine.programs
        self._apis = [
            ShardApi(
                zone,
                zone_index,
                engine.zones,
                engine._latency,
                engine.lookahead,
                SimulationEngine(max_events=engine.max_events),
            )
            for zone, zone_index in zones
        ]
        self._result_fns: Dict[str, Optional[Callable[[], Any]]] = {}
        self._reply: Any = None
        self.cpu_seconds = 0.0

    def _next_times(self) -> Dict[str, Optional[float]]:
        return {api.zone: api.engine.queue.peek_time() for api in self._apis}

    def setup(self) -> Dict[str, Optional[float]]:
        cpu_start = _time.process_time()
        for api in self._apis:
            self._result_fns[api.zone] = self._programs[api.zone](api)
        self.cpu_seconds += _time.process_time() - cpu_start
        return self._next_times()

    def window(self, window_end: float, until: Optional[float], inboxes: dict):
        """One barrier round: deliver the ``{zone: messages}`` inboxes, drain
        to ``window_end``, collect the outboxes."""
        cpu_start = _time.process_time()
        outbox: List[ChannelMessage] = []
        dispatched = 0
        for api in self._apis:
            for message in sorted(inboxes.get(api.zone, ()), key=lambda m: m.sort_key):
                api.deliver(message)
            engine = api.engine
            before = engine.dispatched_events
            engine.drain(window_end, until)
            dispatched += engine.dispatched_events - before
            outbox.extend(api.drain_outbox())
        next_times = self._next_times()
        self.cpu_seconds += _time.process_time() - cpu_start
        return next_times, outbox, dispatched

    def send_window(self, window_end, until, inboxes) -> None:
        self._reply = self.window(window_end, until, inboxes)

    def recv_window(self):
        return self._reply

    def finalize(self, until: Optional[float]) -> Dict[str, Dict[str, Any]]:
        cpu_start = _time.process_time()
        results = {}
        for api in self._apis:
            engine = api.engine
            if until is not None and engine.now < until:
                engine.clock.advance_to(until)
            result_fn = self._result_fns[api.zone]
            results[api.zone] = {
                "result": result_fn() if result_fn is not None else None,
                "logs": list(api.logs),
                "now": engine.now,
                "dispatched": engine.dispatched_events,
            }
        self.cpu_seconds += _time.process_time() - cpu_start
        return results


def _peak_rss_kb() -> float:
    """This process's peak resident set size in KB (0.0 where unavailable):
    a forked lane's or sweep worker's own, or the driver's when it ran the
    work inline."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _fork_context():
    """The fork context, or None where unsupported (then the work runs inline).

    Fork (not spawn) keeps worker startup at milliseconds and — because
    children inherit the parent's loaded modules — lets lane programs and
    sweep runners be module-level callables of any loaded module.  Only a
    run that forks imports :mod:`multiprocessing`.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _lane_worker(lane: _InlineLane, conn) -> None:
    """Fork-lane main loop: commands in, replies out, one pipe.

    The lane object (zones, program factories, latency table) is inherited
    through fork — factories are never pickled.  Only the messages on the
    pipe are, which is exactly the :class:`ChannelMessage` channel the
    protocol defines.
    """
    try:
        conn.send(("ready", lane.setup()))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "window":
                _, window_end, until, inboxes = command
                conn.send(("ok",) + lane.window(window_end, until, inboxes))
            elif op == "finalize":
                results = lane.finalize(command[1])
                conn.send(("result", results, lane.cpu_seconds, _peak_rss_kb()))
                return
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown lane command {op!r}")
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        try:
            conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass


class _ProcessLane:
    """Parent-side handle for a forked lane: same interface as _InlineLane."""

    def __init__(self, lane: _InlineLane, context) -> None:
        self.index = lane.index
        self.zones = lane.zones  # names only; the shards live in the child
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_lane_worker, args=(lane, child_conn), daemon=True
        )
        self._process.start()
        child_conn.close()
        self.cpu_seconds = 0.0
        self.peak_rss_kb = 0.0
        self._windows = 0
        self._window_end = 0.0
        self._sent_at = 0.0
        self._longest_window_s = 0.0

    def _pipe(self, call, *args):
        """One pipe operation; a worker that died is an attributed error."""
        try:
            return call(*args)
        except (EOFError, OSError) as exc:
            self._process.join(timeout=5)
            raise SimulationError(
                f"lane {self.index} worker (zones {', '.join(self.zones)}) "
                f"died mid-run, exit code {self._process.exitcode}"
            ) from exc

    def _recv(self, expected: str):
        reply = self._pipe(self._conn.recv)
        if reply[0] == "error":
            _, name, message, trace = reply
            if name == "SimulationError":
                # Preserve the original message verbatim so callers (and
                # tests) match on it exactly as in the sequential engines.
                raise SimulationError(message)
            raise SimulationError(
                f"lane {self.index} worker failed: {name}: {message}\n{trace}"
            )
        if reply[0] != expected:  # pragma: no cover - protocol misuse
            raise SimulationError(f"lane {self.index}: expected {expected!r} reply")
        return reply

    def setup(self) -> Dict[str, Optional[float]]:
        return self._recv("ready")[1]

    def send_window(self, window_end, until, inboxes) -> None:
        self._windows += 1
        self._window_end = window_end
        self._sent_at = _time.perf_counter()
        self._pipe(self._conn.send, ("window", window_end, until, inboxes))

    def recv_window(self):
        timeout = max(_DEADLINE_FLOOR_S, _DEADLINE_FACTOR * self._longest_window_s)
        left = self._sent_at + timeout - _time.perf_counter()
        if not self._pipe(self._conn.poll, max(0.0, left)):
            raise SimulationError(
                f"lane {self.index} worker (zones {', '.join(self.zones)}) hung in "
                f"window {self._windows} (ending at t={self._window_end:g}): "
                f"no reply within {timeout:.1f} s"
            )
        reply = self._recv("ok")
        elapsed = _time.perf_counter() - self._sent_at
        self._longest_window_s = max(self._longest_window_s, elapsed)
        return reply[1:]

    def finalize(self, until: Optional[float]) -> Dict[str, Dict[str, Any]]:
        self._pipe(self._conn.send, ("finalize", until))
        _, results, self.cpu_seconds, self.peak_rss_kb = self._recv("result")
        self._process.join(timeout=30)
        self._conn.close()
        return results

    def terminate(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)


class ParallelShardedSimulationEngine:
    """Conservative-PDES engine running zone shards on parallel OS lanes.

    One-shot: construct with a network and ``{zone: factory}`` programs,
    call :meth:`run`, read :attr:`results` / :attr:`logs` / :attr:`stats`.
    The window protocol is the one :class:`ShardedSimulationEngine` proved
    sequentially — GVT from the global minimum next-event time (pending
    barrier messages included), every lane drains ``[GVT, GVT + lookahead)``
    independently, cross-shard pushes exchanged only at the barrier.

    ``workers`` bounds the lane count (``min(workers, zones)``); zones are
    assigned round-robin by index.  Transport is forked processes where the
    platform has fork and ``workers > 1``; otherwise — including inside
    daemonic pool workers, which may not fork children — the identical
    coordinator loop runs the lanes in-process.  Results never depend on
    the transport or the lane count (see module docstring).
    """

    def __init__(
        self,
        network: NetworkTopology,
        programs: Dict[str, ProgramFactory],
        workers: int = 2,
        max_events: int = 50_000_000,
    ) -> None:
        if not programs:
            raise SimulationError("parallel engine needs at least one zone program")
        self.programs = dict(programs)
        self.zones: Tuple[str, ...] = tuple(self.programs)
        self.workers = max(1, int(workers))
        self.max_events = max_events
        self._latency = network.zone_latency_matrix(list(self.zones))
        self.lookahead = lookahead_horizon(self._latency)
        self.results: Dict[str, Any] = {}
        self.logs: Dict[str, List[Tuple[float, Any]]] = {}
        self.shard_clocks: Dict[str, float] = {}
        self.shard_dispatch_counts: Dict[str, int] = {}
        self.dispatched_events = 0
        self.stats: Dict[str, Any] = {}
        self.now = 0.0
        self._ran = False

    # ------------------------------------------------------------------ run

    def _plan_lanes(self) -> List[List[Tuple[str, int]]]:
        lanes = max(1, min(self.workers, len(self.zones)))
        plan: List[List[Tuple[str, int]]] = [[] for _ in range(lanes)]
        for index, zone in enumerate(self.zones):
            plan[index % lanes].append((zone, index))
        return plan

    def _lane_context(self):
        """The fork context to put lanes on, or None to run them inline."""
        if self.workers <= 1 or len(self.zones) <= 1:
            return None
        context = _fork_context()
        # Daemonic pool workers (the sweep driver's children) may not fork
        # grandchildren; the same coordinator runs the lanes inline there.
        if context is None or context.current_process().daemon:
            return None
        return context

    def run(self, until: Optional[float] = None) -> float:
        """Execute the programs to quiescence (or ``until``); one-shot.

        Every round is grant, exchange, route: the window ``[GVT, GVT +
        lookahead)`` is granted to every lane, the lanes deliver their
        inboxes and drain it, and their outboxes are routed to the
        destination zones' inboxes for the next barrier.  Land finalizes.
        """
        if self._ran:
            raise SimulationError("ParallelShardedSimulationEngine is one-shot")
        self._ran = True
        wall_start = _time.perf_counter()
        cpu_start = _time.process_time()
        context = self._lane_context()
        fork = context is not None
        lanes: List[Any] = [
            _InlineLane(index, zones, self)
            for index, zones in enumerate(self._plan_lanes())
        ]
        if fork:
            lanes = [_ProcessLane(lane, context) for lane in lanes]
        windows = messages = 0
        try:
            heads: Dict[str, Optional[float]] = {}
            for lane in lanes:
                heads.update(lane.setup())
            pending: Dict[str, List[ChannelMessage]] = {}
            while (window_end := self._grant(heads, pending, until)) is not None:
                windows += 1
                replies = self._exchange(lanes, pending, window_end, until)
                messages += self._route(replies, heads, pending)
            self._land(lanes, until)
        except BaseException:
            if fork:
                for lane in lanes:
                    lane.terminate()
            raise
        total_cpu = _time.process_time() - cpu_start
        lane_cpu = [lane.cpu_seconds for lane in lanes]
        self.stats = {
            "mode": "fork" if fork else "inline",
            "workers": len(lanes),
            "zones": len(self.zones),
            "windows": windows,
            # Every window is one lookahead wide; kept for its readers.
            "widened_windows": 0,
            "messages": messages,
            "dispatched_events": self.dispatched_events,
            "wall_seconds": _time.perf_counter() - wall_start,
            "lane_cpu_seconds": lane_cpu,
            "max_lane_cpu_seconds": max(lane_cpu, default=0.0),
            # Barrier and routing overhead only: inline, the parent's own
            # process time includes the lane work, so take it out.
            "coordinator_cpu_seconds": (
                total_cpu if fork else max(0.0, total_cpu - sum(lane_cpu))
            ),
            "peak_rss_kb_per_lane": [
                lane.peak_rss_kb if fork else _peak_rss_kb() for lane in lanes
            ],
        }
        return self.now

    def _grant(self, heads, pending, until) -> Optional[float]:
        """The next window's end, or None when the run is over.

        GVT is the earliest dispatchable instant anywhere — a shard's next
        event or a message waiting at the barrier — as in
        :meth:`ShardedSimulationEngine.run`, whose queues hold both.
        """
        times = [time for time in heads.values() if time is not None]
        times.extend(message.time for inbox in pending.values() for message in inbox)
        if not times:
            return None
        gvt = min(times)
        if until is not None and gvt > until:
            return None
        return gvt + self.lookahead

    @staticmethod
    def _exchange(lanes, pending, window_end, until) -> list:
        """Hand every lane its inboxes and the window; gather the replies.

        Broadcast first, then gather: forked lanes drain their window
        concurrently — this is the parallel section (an inline lane drains
        inside ``send_window``).
        """
        for lane in lanes:
            inboxes = {z: pending.pop(z) for z in lane.zones if z in pending}
            lane.send_window(window_end, until, inboxes)
        return [lane.recv_window() for lane in lanes]

    def _route(self, replies, heads, pending) -> int:
        """File the lanes' outboxes for the next barrier; returns the count.

        ``heads`` takes each shard's next event time, ``pending`` each
        message under its destination zone until the next exchange.
        """
        routed = 0
        for lane_heads, outbox, dispatched in replies:
            heads.update(lane_heads)
            self.dispatched_events += dispatched
            for message in outbox:
                pending.setdefault(message.dst_zone, []).append(message)
            routed += len(outbox)
        if self.dispatched_events > self.max_events:
            raise SimulationError(
                f"dispatched more than {self.max_events} events; "
                "likely a self-rescheduling loop"
            )
        return routed

    def _land(self, lanes: List[Any], until: Optional[float]) -> None:
        """Finalize every lane: clocks to ``until``, results and logs in."""
        for lane in lanes:
            for zone, info in lane.finalize(until).items():
                self.results[zone] = info["result"]
                self.logs[zone] = info["logs"]
                self.shard_clocks[zone] = info["now"]
                self.shard_dispatch_counts[zone] = info["dispatched"]
        self.dispatched_events = sum(self.shard_dispatch_counts.values())
        # With a horizon every clock landed on ``until`` (finalize advances
        # it, a drain never passes it); at quiescence on the latest event.
        self.now = max(self.shard_clocks.values())


# ---------------------------------------------------------------------------
# Sequential reference, and the one place a driver is chosen by name
# ---------------------------------------------------------------------------


def run_programs_sharded(
    network: NetworkTopology,
    programs: Dict[str, ProgramFactory],
    until: Optional[float] = None,
) -> Dict[str, Any]:
    """Run ``{zone: factory}`` programs on the sequential lookahead engine.

    The reference run for the parallel engine's equivalence suites: the same
    :class:`ShardApi` over each shard of a :class:`ShardedSimulationEngine`,
    same floor checks, same pickle round-trip, same result shape — one OS
    thread, windows drained shard-major.  The only difference is *when* a
    cross-zone message enters the destination queue: immediately at send
    instead of at a window barrier.  Per-zone streams are equivalent by the
    sharded engine's own proof, which is what the equivalence suites assert.
    """
    zones = tuple(programs)
    engine = ShardedSimulationEngine(network, list(zones))
    apis: Dict[str, ShardApi] = {}

    def post(message: ChannelMessage) -> None:
        apis[message.dst_zone].deliver(message)

    for index, zone in enumerate(zones):
        shard = engine.shard(zone)
        apis[zone] = ShardApi(
            zone, index, zones, engine.latency, engine.lookahead, shard, post
        )
    result_fns = {zone: programs[zone](apis[zone]) for zone in zones}
    now = engine.run(until=until)
    return {
        "results": {
            zone: (fn() if fn is not None else None)
            for zone, fn in result_fns.items()
        },
        "logs": {zone: list(apis[zone].logs) for zone in zones},
        "now": now,
        "dispatched_events": engine.dispatched_events,
        "shard_dispatch_counts": {
            zone: engine.shard(zone).lifetime_dispatched for zone in zones
        },
    }


def run_zone_programs(
    network: NetworkTopology,
    programs: Dict[str, ProgramFactory],
    engine: str = "parallel",
    workers: int = 2,
) -> Tuple[Dict[str, Any], int, Dict[str, Any]]:
    """Run the programs on the named driver: ``(per_zone, events, stats)``.

    * ``single``: the parallel coordinator with one in-process lane (the
      window protocol, sequentially);
    * ``sharded``: the sequential lookahead reference
      (:func:`run_programs_sharded`);
    * ``parallel``: forked lanes, ``workers`` wide.

    ``per_zone`` holds the zone results in zone-name order and ``events``
    the dispatch total — both seed-determined and identical on all three;
    ``stats`` the non-deterministic execution metrics (empty for
    ``sharded``).
    """
    stats: Dict[str, Any] = {}
    if engine == "sharded":
        out = run_programs_sharded(network, programs)
        per_zone, dispatched = out["results"], out["dispatched_events"]
    elif engine in ("single", "parallel"):
        sim = ParallelShardedSimulationEngine(
            network, programs, workers=1 if engine == "single" else workers
        )
        sim.run()
        per_zone, dispatched, stats = sim.results, sim.dispatched_events, sim.stats
    else:
        raise ValueError(f"unknown engine {engine!r} (single, sharded, parallel)")
    return {zone: per_zone[zone] for zone in sorted(per_zone)}, dispatched, stats
