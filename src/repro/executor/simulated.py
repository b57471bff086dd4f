"""Discrete-event execution backend.

Runs a profiled :class:`TaskGraph` (built with :class:`SimWorkflowBuilder` or
the workload generators) against a :class:`Platform` in virtual time.  This
is the substitute substrate for the paper's physical testbeds (DESIGN.md §2):
it reproduces queueing, constraint packing, data movement, elasticity and
failures — the effects behind claims C1–C3 and C5–C7 — without the hardware.

Model choices (kept deliberately simple and documented):

* input fetches for a task happen in parallel, so the stage-in time is the
  *max* over missing inputs of their point-to-point transfer time;
* a task's compute time is ``profile.duration_s / node.speed_factor``;
* gang tasks (``nodes > 1``) hold their full allocation for the whole run;
* outputs are born on the node that ran the task (gang: on its head node)
  and registered with the data-location service for locality scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.intelligence.predictor import DurationPredictor

from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node
from repro.scheduling.capacity import NodeCapacity
from repro.scheduling.locations import DataLocationService, TransferPlanner
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.scheduler import BlockedDemandFrontier, TaskScheduler
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event


#: Runs a task may start before a node failure fails it for good.
_MAX_ATTEMPTS = 3


class SimulatedExecutionError(RuntimeError):
    """Raised when the simulation ends with unrunnable tasks."""


@dataclass
class SimulationReport:
    """Outcome of one simulated execution."""

    makespan: float
    tasks_done: int
    tasks_failed: int
    tasks_cancelled: int
    bytes_transferred: float
    remote_transfers: int
    energy_joules: float
    resubmissions: int
    per_node_busy_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"makespan={self.makespan:.1f}s tasks={self.tasks_done} "
            f"failed={self.tasks_failed} moved={self.bytes_transferred / 1e9:.2f}GB "
            f"energy={self.energy_joules / 3.6e6:.3f}kWh "
            f"resubmissions={self.resubmissions}"
        )


class _BlockedRun:
    """Blocked-task bookkeeping of one dispatch pass, shared by the prefix
    walk and the ready scan so the two behave as one walk of the queue."""

    __slots__ = ("frontier", "demands", "live", "failures")

    def __init__(self) -> None:
        # Demands that failed for lack of capacity this pass.  Capacity only
        # shrinks while a pass allocates, so a demand needing at least as
        # much as one that already failed cannot fit before the pass ends:
        # skipping it is exact, one comparison instead of a ledger probe.
        self.frontier = BlockedDemandFrontier()
        # The certified head run, as (cores, memory_mb, gpus, task_id): every
        # task passed over so far, each proven unplaceable at this pass's
        # grow tick.  Placed, failed and cancelled tasks leave the queue, so
        # the survivors stay contiguous from its head; the run becomes the
        # next pass's prefix snapshot.
        self.demands: List[tuple] = []
        # False once a task stayed queued *without* such a proof (a policy
        # decline): the run cannot extend past it.
        self.live = True
        # Consecutive unplaced tasks, counted against dispatch_window.
        self.failures = 0


def _free_maxima(states: List[NodeCapacity]) -> Tuple[int, int, int]:
    """Component-wise maxima of free (cores, memory_mb, gpus) over ``states``:
    a demand above them on any axis fits none of the nodes (-1s if empty)."""
    cores = mem = gpus = -1
    for state in states:
        if state.free_cores > cores:
            cores = state.free_cores
        if state.free_memory_mb > mem:
            mem = state.free_memory_mb
        if state.free_gpus > gpus:
            gpus = state.free_gpus
    return cores, mem, gpus


class SimulatedExecutor:
    """Event-driven executor over a profiled task graph."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        policy: Optional[SchedulingPolicy] = None,
        engine: Optional[SimulationEngine] = None,
        locations: Optional[DataLocationService] = None,
        initial_data: Optional[Dict[str, float]] = None,
        initial_data_nodes: Optional[Dict[str, str]] = None,
        dispatch_window: int = 64,
        predictor: Optional["DurationPredictor"] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.engine = engine if engine is not None else SimulationEngine()
        self.locations = locations if locations is not None else DataLocationService()
        self.scheduler = TaskScheduler(platform, policy)
        # Stop scanning the ready queue after this many consecutive failed
        # placements: bounds dispatch cost at O(placed + window) per event
        # instead of O(ready), which is what makes 100-node x 10^4-task
        # simulations (E1) tractable.  Large enough that realistic
        # heterogeneous mixes don't suffer head-of-line blocking.
        self.dispatch_window = dispatch_window
        # Optional intelligent-runtime hook: completed tasks feed an online
        # duration model that prediction-driven policies consult (§VI-C).
        self.predictor = predictor
        self.resubmissions = 0
        # Streaming campaigns add tasks while the engine runs: with
        # ``hold_open`` set, a momentarily finished graph (all lowered
        # window tasks done, next window not yet closed) does not stop the
        # engine — the run ends when the event queue itself drains (or the
        # caller stops it).
        self.hold_open = False
        # Completion hooks (the dataflow plane's result path): called with
        # the finished TaskInstance after mark_done, before the finished
        # check — so a hook may submit follow-on tasks in the same breath.
        self._done_callbacks: List[Callable[[TaskInstance], None]] = []
        self._completion_events: Dict[int, Event] = {}
        # Blocked-prefix snapshot: the head of the ready queue is typically a
        # stable run of tasks the last pass proved unplaceable.  It is kept
        # as (cores, memory_mb, gpus, task_id) tuples with the ledger grow
        # tick of the proof, so the next pass replays it against only the
        # nodes grown since (see _walk_blocked_prefix).  Valid only while
        # graph.ready_epoch is unchanged: insertions are tail-only, so an
        # unchanged epoch (no removals) pins the prefix in place.
        self._prefix_demands: List[tuple] = []
        self._prefix_seq = 0
        self._prefix_epoch = -1
        self._busy_seconds: Dict[str, float] = {}
        self._dispatch_scheduled = False
        # Latest terminal (done/failed) task time so far: engine time is
        # monotonic, so this IS the makespan — run() never rescans the graph.
        self._makespan = 0.0
        self._planner = TransferPlanner(self.locations, platform.network)
        # Initial data (input files): place on the declared node, or spread
        # round-robin across alive nodes when unspecified.
        if initial_data:
            nodes = [n.name for n in platform.alive_nodes]
            placements = initial_data_nodes or {}
            for index, (name, size) in enumerate(initial_data.items()):
                node = placements.get(name, nodes[index % len(nodes)])
                self.locations.publish(name, node, size_bytes=size)
        # New nodes (elasticity) should trigger a dispatch attempt.
        platform.on_node_join(lambda node: self._request_dispatch())

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None) -> SimulationReport:
        """Execute the whole graph; returns the report at completion."""
        self.prime()
        self.engine.run(until=until)
        return self.report()

    def prime(self) -> None:
        """Schedule the first dispatch pass without driving the engine.

        For caller-driven engines (the lane shards of
        :class:`~repro.simulation.parallel.ParallelShardedSimulationEngine`,
        which drain windows under a coordinator instead of owning a run
        loop): ``prime()`` during program setup, then :meth:`report` once
        the coordinator declares the run over.
        """
        self._request_dispatch()

    def report(self) -> SimulationReport:
        """Build the completion report (the engine must have run first)."""
        if not self.graph.finished:
            stuck = [
                t.label
                for t in self.graph.tasks
                if t.state in (TaskState.PENDING, TaskState.READY)
            ]
            raise SimulatedExecutionError(
                f"simulation drained with {len(stuck)} unrunnable tasks "
                f"(first few: {stuck[:5]}); check constraints vs platform"
            )
        makespan = self._makespan
        return SimulationReport(
            makespan=makespan,
            tasks_done=self.graph.completed_count,
            tasks_failed=self.graph.failed_count,
            tasks_cancelled=self.graph.cancelled_count,
            bytes_transferred=self.platform.network.total_bytes_moved,
            remote_transfers=self.platform.network.remote_transfer_count,
            energy_joules=self.platform.energy.total_energy_joules(makespan),
            resubmissions=self.resubmissions,
            per_node_busy_seconds=dict(self._busy_seconds),
        )

    # ---------------------------------------------------- dynamic submission

    def on_task_done(self, callback: Callable[[TaskInstance], None]) -> None:
        """Register a completion hook (called after every mark_done)."""
        self._done_callbacks.append(callback)

    def submit_tasks(
        self, batch: Iterable[Tuple[TaskInstance, Iterable[int]]]
    ) -> int:
        """Add tasks mid-run through the batched path: one dispatch kick.

        The simulated analogue of the runtime's ``submit_many``: however
        many tasks one virtual instant lowers (every window closing at this
        tick), the graph grows in one append pass and the scheduler is
        kicked once — ``_request_dispatch`` already coalesces per
        timestamp, so the per-batch scheduling overhead is a single event.
        """
        count = self.graph.add_tasks(batch)
        if count:
            self._request_dispatch()
        return count

    # ------------------------------------------------------------- dispatch

    def _request_dispatch(self) -> None:
        # Coalesce dispatch requests into one event per timestamp.
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.engine.after(0.0, self._dispatch, priority=10, label="dispatch")

    def _dispatch(self) -> None:
        """One pass: walk the blocked prefix, scan the ready queue behind it,
        refute what provably cannot fit, place the rest."""
        self._dispatch_scheduled = False
        graph = self.graph
        ledger = self.scheduler.ledger
        if ledger.total_free_cores <= 0:
            # Nothing can be placed and no proof would change: the snapshot
            # stays exactly as it was.
            return
        # No growth happens mid-pass (completions are separate events), so
        # every proof this pass makes holds at this tick.
        seq = ledger.grow_seq
        run = _BlockedRun()
        resume_after = None
        if (
            self._prefix_demands
            and graph.ready_epoch == self._prefix_epoch
            and not self.locations.has_lost_data
        ):
            resume_after = self._walk_blocked_prefix(run)
        if run.failures < self.dispatch_window:
            self._scan_ready(run, resume_after)
        # The epoch is read *after* this pass's own removals (placements,
        # lost-input failures): removed tasks are not in the run, so an
        # unchanged counter next pass means the run itself is untouched.
        self._prefix_demands = run.demands
        self._prefix_seq = seq
        self._prefix_epoch = graph.ready_epoch

    def _walk_blocked_prefix(self, run: _BlockedRun) -> Optional[int]:
        """Replay the last pass's certified head run off its snapshot.

        Every member was proven unplaceable at tick ``_prefix_seq``, and a
        node not journalled since has only shrunk.  So a member whose demand
        exceeds, on any axis, the free maxima of the nodes grown since is
        refuted by three integer compares — no instance fetch, no queue
        yield.  Only a plausible member is probed against the grown nodes
        and, if one fits, placed through the scheduler; the maxima are then
        refreshed so later members are judged against what remains.  The
        walk is order-identical to scanning the queue, so placements and
        the consecutive-failure window behave exactly as if it had been.
        Returns the last member still queued: the scan resumes behind it.
        """
        scheduler = self.scheduler
        ledger = scheduler.ledger
        try_place = scheduler.try_place
        get_task = self.graph.task
        window = self.dispatch_window
        grown = ledger.grown_since(self._prefix_seq)
        max_cores, max_mem, max_gpus = _free_maxima(grown)
        frontier_add = run.frontier.add
        keep = run.demands.append
        live = True
        failures = 0
        resume_after = None
        for demand in self._prefix_demands:
            cores, memory_mb, gpus, task_id = demand
            if cores <= max_cores and memory_mb <= max_mem and gpus <= max_gpus:
                instance = get_task(task_id)
                req = instance.requirements
                if any(state.fits_now(req) for state in grown):
                    nodes = try_place(instance)
                    if nodes is not None:
                        failures = 0
                        self._start_task(instance, nodes)
                        if ledger.total_free_cores <= 0:
                            break
                        max_cores, max_mem, max_gpus = _free_maxima(grown)
                        continue
                    if scheduler.last_failure_was_capacity:
                        frontier_add(req)
                    else:
                        live = False  # declined, not refuted: caps the run
            if live:
                keep(demand)
            resume_after = task_id
            failures += 1
            if failures >= window:
                break
        run.live = live
        run.failures = failures
        return resume_after

    def _scan_ready(self, run: _BlockedRun, resume_after: Optional[int]) -> None:
        """Scan the ready queue (behind the walked prefix) and place what fits.

        A demand the frontier covers is refuted without a ledger probe; the
        rest go through the scheduler.  Tasks left behind for lack of
        capacity extend the certified run while it is still contiguous.
        """
        scheduler = self.scheduler
        ledger = scheduler.ledger
        try_place = scheduler.try_place
        window = self.dispatch_window
        covers = run.frontier.covers
        frontier_add = run.frontier.add
        keep = run.demands.append
        live = run.live
        failures = run.failures
        # Lost data can only be *recovered* mid-pass (stage-in publishes
        # copies; nothing evicts), so the check hoists out of the loop —
        # failure-free runs never pay the per-task input scan.
        check_lost = self.locations.has_lost_data
        is_lost = self.locations.is_lost
        free_cores = ledger.total_free_cores
        for instance in self.graph.iter_ready(resume_after):
            if free_cores <= 0:
                break
            if check_lost:
                lost = [d for d in instance.reads if is_lost(d)]
                if lost:
                    self._fail_lost_inputs(instance, lost)
                    continue
            req = instance.requirements
            if not covers(req):
                nodes = try_place(instance)
                if nodes is not None:
                    failures = 0
                    self._start_task(instance, nodes)
                    free_cores = ledger.total_free_cores
                    continue
                if scheduler.last_failure_was_capacity:
                    frontier_add(req)
                else:
                    # Declined but not refuted (the policy may accept
                    # later): it stays queued without a proof, so the
                    # certified run cannot extend past it.
                    live = False
            if live:
                keep((req.cores, req.memory_mb, req.gpus, instance.task_id))
            failures += 1
            if failures >= window:
                break

    def _fail_lost_inputs(self, instance: TaskInstance, lost: List[str]) -> None:
        now = self.engine.now
        self.graph.mark_failed(
            instance.task_id,
            RuntimeError(f"inputs {lost[:3]} lost and not persisted"),
            now=now,
        )
        self._makespan = now
        if self.graph.finished and not self.hold_open:
            self.engine.stop()

    def _start_task(self, instance: TaskInstance, nodes: List[str]) -> None:
        head = nodes[0]
        now = self.engine.now
        self.graph.mark_running(instance.task_id, head, now=now)
        instance.assigned_nodes = tuple(nodes)
        stage_in = self._stage_in_time(instance, head)
        node = self.platform.node(head)
        compute = (instance.profile.duration_s if instance.profile else 0.0) / node.speed_factor
        total = stage_in + compute
        event = self.engine.after(
            total,
            lambda tid=instance.task_id: self._complete_task(tid),
            label=f"finish-{instance.label}",
        )
        self._completion_events[instance.task_id] = event

    def _stage_in_time(self, instance: TaskInstance, node_name: str) -> float:
        """Coalesced parallel-fetch model.

        Fetches come from each datum's cheapest source, but same-link
        transfers for this task are batched into one latency charge plus a
        summed bandwidth term, with distinct links fetching in parallel —
        so the stage-in time is the max over links of the coalesced
        transfer time.  Byte totals and source choices match the
        per-holder pricing exactly.
        """
        if not instance.reads:
            return 0.0
        worst, moves = self._planner.stage_in_plan(instance.reads, node_name)
        if not moves:
            return 0.0
        now = self.engine.now
        publish = self.locations.publish
        record_transfer = self.platform.network.record_transfer
        for datum_id, src, size, duration in moves:
            record_transfer(src, node_name, size, now, duration, datum_id)
            # The fetched copy now also lives on the destination node.
            publish(datum_id, node_name, size)
        return worst

    def _complete_task(self, task_id: int) -> None:
        instance = self.graph.task(task_id)
        if instance.state is not TaskState.RUNNING:
            return  # stale completion after a failure-triggered requeue
        now = self.engine.now
        self._completion_events.pop(task_id, None)
        # Energy + utilization accounting over the full occupancy window.
        start = instance.start_time if instance.start_time is not None else now
        for node_name in instance.assigned_nodes:
            self.platform.energy.record_busy(
                node_name, start, now, instance.requirements.cores
            )
            self._busy_seconds[node_name] = self._busy_seconds.get(node_name, 0.0) + (
                now - start
            )
        # Outputs are born on the head node.
        head = instance.assigned_nodes[0]
        if instance.profile is not None:
            for datum_id, size in instance.profile.output_sizes.items():
                self.locations.publish(datum_id, head, size_bytes=size)
        if self.predictor is not None and instance.profile is not None:
            self.predictor.observe(
                instance.label,
                instance.profile.duration_s,
                size=instance.profile.input_bytes or None,
            )
        self.scheduler.release(instance)
        self.graph.mark_done(task_id, now=now)
        self._makespan = now
        # Completion hooks run before the finished check: a hook may lower
        # follow-on tasks (the dataflow plane's batch stages), un-finishing
        # the graph in the same event.
        for callback in self._done_callbacks:
            callback(instance)
        if self.graph.finished:
            # Stop the engine even if periodic controllers (elasticity
            # policies) still have ticks queued: the workflow is done —
            # unless a streaming campaign holds the run open for windows
            # that have not closed yet.
            if not self.hold_open:
                self.engine.stop()
        else:
            self._request_dispatch()

    # -------------------------------------------------------------- failures

    def fail_node_at(self, time: float, node_name: str) -> None:
        """Inject a node failure at virtual ``time`` (call before run())."""
        self.engine.at(
            time,
            lambda: self._fail_node(node_name),
            priority=-10,  # failures preempt completions at the same instant
            label=f"fail-{node_name}",
        )

    def _fail_node(self, node_name: str) -> None:
        if not self.platform.has_node(node_name):
            return
        now = self.engine.now
        # Collect tasks running on the failed node before mutating anything:
        # the capacity ledger already knows exactly which tasks hold an
        # allocation there, so there is no need to scan the whole graph.
        ledger = self.scheduler.ledger
        if ledger.has_node(node_name):
            victim_ids = sorted(ledger.state(node_name).running_task_ids)
        else:
            victim_ids = []
        victims = [
            t
            for t in (self.graph.task(tid) for tid in victim_ids)
            if t.state is TaskState.RUNNING
        ]
        self.platform.fail_node(node_name, at=now)
        self.locations.evict_node(node_name)
        for instance in victims:
            event = self._completion_events.pop(instance.task_id, None)
            if event is not None:
                event.cancel()
            # The (now gone) ledger entry was removed with the node; release
            # co-allocated capacity on surviving gang nodes.
            self.scheduler.release(instance)
            if not self._inputs_recoverable(instance):
                reason = f"node {node_name} failed"
            elif instance.attempts < _MAX_ATTEMPTS:
                self.graph.requeue(instance.task_id)
                self.resubmissions += 1
                continue
            else:
                reason = (
                    f"node {node_name} failed and task exceeded {_MAX_ATTEMPTS} attempts"
                )
            self.graph.mark_failed(instance.task_id, RuntimeError(reason), now=now)
            self._makespan = now
        # Ready tasks whose inputs were lost with the node can never
        # execute: fail them now so the run ends with an explicit verdict
        # instead of a drained-but-unfinished simulation.  (Pending readers
        # of lost data are cancelled when their ancestor fails, or fail
        # here once they become ready.)  The ready queue is snapshotted
        # because mark_failed unlinks entries; pending tasks — the bulk of
        # a large graph — are never touched.
        if self.locations.has_lost_data:
            for instance in list(self.graph.iter_ready()):
                if any(self.locations.is_lost(d) for d in instance.reads):
                    self.graph.mark_failed(
                        instance.task_id,
                        RuntimeError(
                            f"inputs lost with node {node_name} and no "
                            "persistent copy exists"
                        ),
                        now=now,
                    )
                    self._makespan = now
        if self.graph.finished:
            if not self.hold_open:
                self.engine.stop()
        else:
            self._request_dispatch()

    def _inputs_recoverable(self, instance: TaskInstance) -> bool:
        """Every input still has a copy on an alive node (or in a store)."""
        for datum_id in instance.reads:
            if self.locations.is_lost(datum_id):
                return False
            holders = self.locations.get_locations(datum_id)
            alive = {
                h
                for h in holders
                if self._holder_alive(h)
            }
            if holders and not alive:
                return False
        return True

    def _holder_alive(self, holder: str) -> bool:
        """A holder is alive if it is an alive platform node, or an external
        store location (e.g. a persistent backend) not modeled as a node."""
        if self.platform.has_node(holder):
            return self.platform.node(holder).alive
        return True
