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

Every application task that settles — completes, fails, is cancelled by a
failure or is admitted already CANCELLED — is appended to ``executor.log``
(:class:`~repro.telemetry.RunLog`) at that instant; the report's per-node
busy time, the Gantt chart, the Paraver exports and the zone digests are
read from it, not from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.intelligence.predictor import DurationPredictor

from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node
from repro.scheduling.locations import DataLocationService, TransferPlanner
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.scheduler import PlacementPass, TaskScheduler
from repro.simulation.engine import SimulationEngine
from repro.telemetry import RunLog


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
        self._placement = PlacementPass(graph, self.scheduler, dispatch_window)
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
        self.log = RunLog()
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

    @property
    def dispatch_window(self) -> int:
        """Consecutive unplaced tasks after which a pass stops."""
        return self._placement.window

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
        # A location service handed in may already have lost data.
        self._fail_lost_readers(self.graph.iter_ready())
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
            per_node_busy_seconds=self.log.busy_seconds(),
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
        batch = list(batch)
        count = self.graph.add_tasks(batch)
        for instance, _ in batch:
            # Born CANCELLED: it depends on a failed or cancelled task.
            if instance.state is TaskState.CANCELLED:
                self.log.append(instance)
        if count:
            self._fail_lost_readers(instance for instance, _ in batch)
            self._request_dispatch()
        return count

    # ------------------------------------------------------------- dispatch

    def _request_dispatch(self) -> None:
        # Coalesce dispatch requests into one event per timestamp.
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.engine.after(0.0, self._dispatch, priority=10)

    def _dispatch(self) -> None:
        """One placement pass (the engine callback traces charge to)."""
        self._dispatch_scheduled = False
        self._placement.run(self._start_task)

    def _start_task(self, instance: TaskInstance, nodes: List[str]) -> None:
        head = nodes[0]
        now = self.engine.now
        self.graph.mark_running(instance.task_id, head, now=now)
        instance.assigned_nodes = tuple(nodes)
        stage_in = self._stage_in_time(instance, head)
        node = self.platform.node(head)
        compute = (instance.profile.duration_s if instance.profile else 0.0) / node.speed_factor
        self.engine.after(
            stage_in + compute,
            partial(self._complete_task, instance.task_id, instance.attempts),
        )

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

    def _complete_task(self, task_id: int, attempt: int) -> None:
        instance = self.graph.task(task_id)
        if instance.state is not TaskState.RUNNING or instance.attempts != attempt:
            return  # stale: a node failure requeued the attempt it ends
        now = self.engine.now
        # Energy accounting over the full occupancy window.
        start = instance.start_time if instance.start_time is not None else now
        for node_name in instance.assigned_nodes:
            self.platform.energy.record_busy(
                node_name, start, now, instance.requirements.cores
            )
        # Outputs are born on the head node.
        head = instance.assigned_nodes[0]
        if instance.profile is not None:
            for datum_id, size in zip(instance.writes, instance.profile.output_sizes):
                self.locations.publish(datum_id, head, size_bytes=size)
        if self.predictor is not None and instance.profile is not None:
            self.predictor.observe(
                instance.label,
                instance.profile.duration_s,
                size=instance.profile.input_bytes or None,
            )
        self.scheduler.release(instance)
        newly_ready = self.graph.mark_done(task_id, now=now)
        self.log.append(instance)
        self._fail_lost_readers(newly_ready)
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
            # The (now gone) ledger entry was removed with the node; release
            # co-allocated capacity on surviving gang nodes.
            self.scheduler.release(instance)
            # evict_node has taken the failed node out of every holder
            # tuple: an input with no holder left is lost for good.
            if any(self.locations.is_lost(d) for d in instance.reads):
                reason = f"node {node_name} failed"
            elif instance.attempts < _MAX_ATTEMPTS:
                self.graph.requeue(instance.task_id)
                self.resubmissions += 1
                continue
            else:
                reason = (
                    f"node {node_name} failed and task exceeded {_MAX_ATTEMPTS} attempts"
                )
            self._fail(instance, reason, now)
        # Pending tasks — the bulk of a large graph — are never touched:
        # a pending reader of lost data is failed once it becomes ready.
        self._fail_lost_readers(self.graph.iter_ready())
        if self.graph.finished:
            if not self.hold_open:
                self.engine.stop()
        else:
            self._request_dispatch()

    def _fail_lost_readers(self, instances: Iterable[TaskInstance]) -> None:
        """Fail every READY task in ``instances`` that reads lost data.

        Such a task can never run.  Called wherever data is lost (a node
        failure; a location service handed to :meth:`prime`) and wherever
        a task becomes ready (completions, :meth:`submit_tasks`), so the
        ready queue never holds one and the placement pass never looks.
        The failure time is the instant the rule is applied.  O(1) on a
        run without lost data.
        """
        locations = self.locations
        if not locations.has_lost_data:
            return
        now = self.engine.now
        for instance in instances:
            lost = [d for d in instance.reads if locations.is_lost(d)]
            if lost and instance.state is TaskState.READY:
                self._fail(instance, f"inputs {lost[:3]} lost and not persisted", now)

    def _fail(self, instance: TaskInstance, reason: str, now: float) -> None:
        """Fail ``instance`` and log it with the descendants it cancels."""
        cancelled = self.graph.mark_failed(
            instance.task_id, RuntimeError(reason), now=now
        )
        log = self.log
        log.append(instance)
        for task_id in cancelled:
            log.append(self.graph.task(task_id))
        self._makespan = now
