"""The Task Scheduler component (Fig. 6): placement + capacity bookkeeping.

Receives ready tasks from the Access Processor, filters nodes by the task's
(possibly dynamically-evaluated) resource constraints, asks the configured
policy to rank the survivors, and keeps the capacity ledger consistent as
tasks start and finish.  Gang tasks (``nodes > 1`` — the MPI simulations of
NMMB-Monarch) are co-allocated across several nodes atomically.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.constraints import ResolvedRequirements
from repro.core.exceptions import ConstraintUnsatisfiableError
from repro.core.graph import TaskInstance
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

    Shared by the simulated executor's ``_dispatch`` and the thread-pool
    executor's ``kick_locked``; build a fresh frontier per pass.
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
