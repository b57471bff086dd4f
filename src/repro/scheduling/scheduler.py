"""The Task Scheduler component (Fig. 6): placement + capacity bookkeeping.

Receives ready tasks from the Access Processor, filters nodes by the task's
(possibly dynamically-evaluated) resource constraints, asks the configured
policy to rank the survivors, and keeps the capacity ledger consistent as
tasks start and finish.  Gang tasks (``nodes > 1`` — the MPI simulations of
NMMB-Monarch) are co-allocated across several nodes atomically.
:class:`PlacementPass` is the one dispatch loop both executors place through.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.constraints import ResolvedRequirements
from repro.core.exceptions import ConstraintUnsatisfiableError
from repro.core.graph import TaskGraph, TaskInstance
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node
from repro.scheduling.capacity import CapacityLedger, NodeCapacity
from repro.scheduling.policies import FifoPolicy, SchedulingPolicy


class BlockedDemandFrontier:
    """Demands that failed for lack of capacity within one dispatch pass.

    Capacity only shrinks while a pass allocates (completions are separate
    events), and ``fits_now`` is monotone in the demand, so once a demand
    has found no capacity, any demand that needs component-wise at least as
    much (``demands_no_more_than``) must fail too — skipping it is exact.
    The frontier keeps only the minimal failed demands (an antichain): on a
    homogeneous-cores workload varying in memory, that collapses to a
    single entry, making the skip test one comparison instead of a ledger
    walk per blocked task.

    :class:`PlacementPass` builds a fresh one per pass, on its first refusal.
    """

    __slots__ = ("_exact", "_minimal")

    def __init__(self) -> None:
        self._exact: set = set()
        self._minimal: List[ResolvedRequirements] = []

    def covers(self, req: ResolvedRequirements) -> bool:
        """True if ``req`` is known-unplaceable for the rest of the pass."""
        if req in self._exact:
            return True
        for failed in self._minimal:
            if failed.demands_no_more_than(req):
                return True
        return False

    def add(self, req: ResolvedRequirements) -> None:
        """Record a demand the ledger just failed for lack of capacity."""
        if req in self._exact:
            return
        self._exact.add(req)
        # Keep the antichain minimal: drop entries the new demand subsumes.
        self._minimal = [
            failed
            for failed in self._minimal
            if not req.demands_no_more_than(failed)
        ]
        self._minimal.append(req)


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


class PlacementPass:
    """The dispatch loop of an executor over ``(graph, scheduler)``.

    :meth:`run` walks the ready queue in order, places what fits through
    the scheduler and hands each placement to the caller's ``start``.  Both
    executors call it with capacity unable to grow mid-pass (completions
    are separate events; the real runtime holds its lock), so a demand that
    found no capacity refutes every demand needing at least as much for the
    rest of the pass (:class:`BlockedDemandFrontier`).  Every queued task
    is one the caller would run: an executor fails a task that never can
    (it reads lost data) before it waits in the queue, not here, so the
    pass has one path in every regime.
    """

    __slots__ = ("graph", "scheduler", "window", "prefix", "prefix_seq", "prefix_epoch")

    def __init__(self, graph: TaskGraph, scheduler: TaskScheduler, window: int = 64) -> None:
        if window < 1:
            raise ValueError(f"dispatch window must be at least 1, got {window}")
        self.graph = graph
        self.scheduler = scheduler
        # Stop after this many consecutive unplaced tasks: bounds a pass at
        # O(placed + window) instead of O(ready), which is what makes
        # 100-node x 10^4-task simulations (E1) and million-task submission
        # loops tractable.  Large enough that realistic heterogeneous mixes
        # don't suffer head-of-line blocking.
        self.window = window
        # Blocked-prefix snapshot: the head of the ready queue is typically a
        # stable run of tasks the last pass proved unplaceable.  It is kept
        # as (cores, memory_mb, gpus, task_id) tuples with the ledger grow
        # tick of the proof, so the next pass replays it against only the
        # nodes grown since.  Valid only while graph.ready_epoch is
        # unchanged: insertions are tail-only, so an unchanged epoch (no
        # removals) pins the prefix in place.
        self.prefix: List[tuple] = []
        self.prefix_seq = 0
        self.prefix_epoch = -1

    def run(self, start: Callable[[TaskInstance, List[str]], None]) -> None:
        """One pass: replay the blocked prefix, scan the ready queue behind
        it, refute what provably cannot fit, ``start`` the rest."""
        graph = self.graph
        scheduler = self.scheduler
        ledger = scheduler.ledger
        free_cores = ledger.total_free_cores
        if free_cores <= 0:
            # Nothing can be placed and no proof would change: the snapshot
            # stays exactly as it was.
            return
        try_place = scheduler.try_place
        window = self.window
        seq = ledger.grow_seq
        # Built on the first refusal: most passes place what they probe.
        frontier = None
        # The certified head run: every task passed over so far, each proven
        # unplaceable at tick ``seq``.  Placed and failed tasks leave the
        # queue, so the survivors stay contiguous from its head; the run
        # becomes the next pass's prefix.  ``live`` turns False once a task
        # stays queued without such a proof (a policy decline).
        demands: List[tuple] = []
        live = True
        failures = 0
        resume_after = None
        if self.prefix and graph.ready_epoch == self.prefix_epoch:
            # Every member was proven unplaceable at ``prefix_seq``, and a
            # node not journalled since has only shrunk: a member above the
            # free maxima of the grown nodes on any axis is refuted by three
            # compares, with no instance fetch.  The walk is order-identical
            # to scanning the queue; the scan resumes behind its last member
            # still queued.
            grown = ledger.grown_since(self.prefix_seq)
            max_cores, max_mem, max_gpus = _free_maxima(grown)
            for demand in self.prefix:
                cores, memory_mb, gpus, task_id = demand
                if cores <= max_cores and memory_mb <= max_mem and gpus <= max_gpus:
                    instance = graph.task(task_id)
                    req = instance.requirements
                    if any(state.fits_now(req) for state in grown):
                        nodes = try_place(instance)
                        if nodes is not None:
                            failures = 0
                            start(instance, nodes)
                            free_cores = ledger.total_free_cores
                            if free_cores <= 0:
                                break
                            max_cores, max_mem, max_gpus = _free_maxima(grown)
                            continue
                        if scheduler.last_failure_was_capacity:
                            if frontier is None:
                                frontier = BlockedDemandFrontier()
                            frontier.add(req)
                        else:
                            live = False
                if live:
                    demands.append(demand)
                resume_after = task_id
                failures += 1
                if failures >= window:
                    break
        if failures < window:
            for instance in graph.iter_ready(resume_after):
                if free_cores <= 0:
                    break
                req = instance.requirements
                if frontier is None or not frontier.covers(req):
                    nodes = try_place(instance)
                    if nodes is not None:
                        failures = 0
                        start(instance, nodes)
                        free_cores = ledger.total_free_cores
                        continue
                    if scheduler.last_failure_was_capacity:
                        if frontier is None:
                            frontier = BlockedDemandFrontier()
                        frontier.add(req)
                    else:
                        # Declined but not refuted (the policy may accept
                        # later): the certified run cannot extend past it.
                        live = False
                if live:
                    demands.append((req.cores, req.memory_mb, req.gpus, instance.task_id))
                failures += 1
                if failures >= window:
                    break
        # The epoch is read *after* this pass's own placements: placed tasks
        # are not in the run, so an unchanged counter next pass means the
        # run itself is untouched.
        self.prefix = demands
        self.prefix_seq = seq
        self.prefix_epoch = graph.ready_epoch


class TaskScheduler:
    """Places task instances onto platform nodes under a pluggable policy."""

    def __init__(
        self,
        platform: Platform,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        self.platform = platform
        self.policy = policy if policy is not None else FifoPolicy()
        self.ledger = CapacityLedger(platform.alive_nodes)
        # True when the last failed try_place found *no* node with enough
        # free capacity (as opposed to a policy declining a viable node).
        # Capacity can only shrink while a dispatch pass allocates, so the
        # executor may skip identical demands for the rest of the pass.
        self.last_failure_was_capacity = False
        # Indexed selection shortcut, resolved once: a policy exposing
        # ``select_indexed`` picks straight off the ledger's indexes and
        # never sees (or pays for) a materialized candidate list.  Such a
        # policy must return None only when nothing fits.
        self._select_indexed = getattr(self.policy, "select_indexed", None)
        platform.on_node_join(self._on_node_join)
        platform.on_node_leave(self._on_node_leave)

    # --------------------------------------------------------------- events

    def _on_node_join(self, node: Node) -> None:
        if not self.ledger.has_node(node.name):
            self.ledger.add_node(node)

    def _on_node_leave(self, node: Node) -> None:
        if self.ledger.has_node(node.name):
            self.ledger.remove_node(node.name)

    # ------------------------------------------------------------ placement

    def check_satisfiable(self, req: ResolvedRequirements) -> None:
        """Raise if no current node could ever host the demand."""
        if not self.ledger.any_ever_fits(req):
            raise ConstraintUnsatisfiableError(
                f"no node satisfies cores={req.cores} memory_mb={req.memory_mb} "
                f"gpus={req.gpus} software={sorted(req.software)}"
            )

    def try_place(self, task: TaskInstance) -> Optional[List[str]]:
        """Attempt to place ``task`` now.

        On success the required resources are allocated and the list of node
        names (length ``req.nodes``) is returned; on failure returns None and
        nothing is allocated.
        """
        req = task.requirements
        self.last_failure_was_capacity = False
        if req.nodes == 1:
            select_indexed = self._select_indexed
            if select_indexed is not None:
                chosen = select_indexed(task, self.ledger)
                if chosen is None:
                    self.last_failure_was_capacity = True
                    return None
                chosen.allocate(task.task_id, req)
                return [chosen.node.name]
            candidates = self.ledger.candidates(req)
            if not candidates:
                self.last_failure_was_capacity = True
                return None
            chosen = self.policy.select(task, candidates)
            if chosen is None:
                return None
            chosen.allocate(task.task_id, req)
            return [chosen.node.name]
        return self._try_place_gang(task, req)

    def _try_place_gang(
        self, task: TaskInstance, req: ResolvedRequirements
    ) -> Optional[List[str]]:
        candidates = self.ledger.candidates(req)
        if len(candidates) < req.nodes:
            self.last_failure_was_capacity = True
            return None
        # Rank with the policy by repeatedly asking it for its best pick.
        chosen: List[NodeCapacity] = []
        pool = list(candidates)
        for _ in range(req.nodes):
            pick = self.policy.select(task, pool)
            if pick is None:
                break
            chosen.append(pick)
            pool.remove(pick)
        if len(chosen) < req.nodes:
            return None
        for state in chosen:
            state.allocate(task.task_id, req)
        return [state.node.name for state in chosen]

    def release(self, task: TaskInstance) -> None:
        """Free the resources a placed task held (on completion or failure)."""
        task_id = task.task_id
        nodes = task.assigned_nodes or (
            (task.assigned_node,) if task.assigned_node else ()
        )
        states = self.ledger._states
        for name in nodes:
            # A node that left took its allocations with it; a gang member
            # already released (failure path) holds nothing either.
            state = states.get(name)
            if state is not None and task_id in state.running_task_ids:
                state.release(task_id, task.requirements)

    # -------------------------------------------------------------- queries

    def idle_nodes(self) -> List[str]:
        return self.ledger.idle_nodes()

    @property
    def total_free_cores(self) -> int:
        return self.ledger.total_free_cores
