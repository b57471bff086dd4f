"""Placement policies.

A policy chooses, among the nodes where a task currently fits, which one it
should run on.  Policies are pure ranking functions over
:class:`NodeCapacity` states plus optional context (data locations, network,
expected durations), so they are shared verbatim by the real thread-pool
executor and the discrete-event simulator.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from repro.core.graph import TaskInstance
from repro.infrastructure.network import NetworkTopology
from repro.scheduling.capacity import NodeCapacity
from repro.scheduling.locations import DataLocationService, TransferPlanner


class SchedulingPolicy(Protocol):
    """Interface every placement policy implements."""

    name: str

    def select(
        self,
        task: TaskInstance,
        candidates: List[NodeCapacity],
    ) -> Optional[NodeCapacity]:
        """Pick a node for ``task`` among ``candidates`` (all fit now).

        Returns None to decline placement (a policy may prefer waiting).
        """
        ...


class FifoPolicy:
    """First fit, in node registration order — the paper's baseline engine."""

    name = "fifo"

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        return candidates[0] if candidates else None


class LoadBalancingPolicy:
    """Most-free-cores first: spreads work, maximizes immediate parallelism."""

    name = "load-balancing"

    def select_indexed(self, task: TaskInstance, ledger) -> Optional[NodeCapacity]:
        """Indexed fast path: read the winner off the ledger's tie-ordered
        cores buckets instead of ranking a materialized candidate list.
        Same choice as :meth:`select` over ``ledger.candidates(req)`` by
        construction (pinned by the placement-equivalence suite); returns
        None only when no node fits — this policy never declines a viable
        node."""
        return ledger.best_balanced(task.requirements)

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        if not candidates:
            return None
        # Ties on free cores go to the smaller node (same thing as fewer
        # busy cores), full ties to the earliest candidate.
        return max(candidates, key=lambda s: (s.free_cores, -s.node.cores))


class LocalityPolicy:
    """Minimize bytes moved: prefer the node already holding the inputs.

    Implements the paper's SRI-driven locality scheduling (claim C4).  Ties
    are broken toward more free cores so the policy degrades into load
    balancing for input-less tasks.
    """

    name = "locality"

    def __init__(self, locations: DataLocationService) -> None:
        self.locations = locations

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        if not candidates:
            return None
        input_ids = task.reads
        if not input_ids:
            return max(candidates, key=lambda s: s.free_cores)
        local_bytes = self.locations.local_bytes_map(input_ids).get

        def score(state: NodeCapacity) -> tuple:
            return (local_bytes(state.node.name, 0.0), state.free_cores)

        return max(candidates, key=score)


class EnergyAwarePolicy:
    """Energy-first placement: pack already-on nodes, prefer efficient ones.

    Ranks candidates by (already busy, low marginal watts, fewer free cores)
    so that work consolidates onto few, efficient nodes and the rest can
    be powered off / scaled in.  Used by experiment E9.
    """

    name = "energy"

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        if not candidates:
            return None

        def score(state: NodeCapacity) -> tuple:
            marginal_watts = state.node.power.busy_watts_per_core * task.requirements.cores
            # Placing on an idle node additionally "costs" its idle draw.
            if state.idle:
                marginal_watts += state.node.power.idle_watts
            return (marginal_watts, state.free_cores)

        return min(candidates, key=score)


class EarliestFinishTimePolicy:
    """Pick the node that finishes the task soonest (HEFT-style greedy).

    Uses the simulation profile (duration / input sizes) plus the network
    model: finish = transfer_time(missing inputs) + duration / speed_factor.
    Only meaningful for simulated tasks; a task without a profile counts as
    one second of work.

    The finish-time skeleton: a subclass changes the two estimates
    (:meth:`_duration`, :meth:`_transfer`) and inherits the ranking — the
    best-speed memory, the lone-candidate shortcut, the single pass and the
    decline check (:class:`repro.intelligence.PredictedFinishTimePolicy`).
    """

    name = "earliest-finish-time"

    def __init__(
        self,
        locations: DataLocationService,
        network: NetworkTopology,
        decline_slowdown_factor: Optional[float] = None,
    ) -> None:
        self.locations = locations
        self.network = network
        # When set, the policy *declines* placements whose estimated finish
        # exceeds ``factor x (duration / best speed ever offered)`` — i.e.
        # it prefers waiting for a fast node over occupying a slow one.
        # Non-work-conserving, so use only on platforms where fast nodes
        # reliably free up; the best speed is remembered across calls, which
        # keeps all-slow platforms work-conserving (no starvation).
        self.decline_slowdown_factor = decline_slowdown_factor
        self._best_speed_seen = 0.0
        self.planner = TransferPlanner(locations, network)

    def _duration(self, task: TaskInstance) -> float:
        """Compute seconds of ``task`` on a unit-speed node: the profile's."""
        profile = task.profile
        return profile.duration_s if profile else 1.0

    @staticmethod
    def _transfer(read_seconds) -> float:
        """Stage-in seconds from the per-read fetch seconds: their sum."""
        transfer = 0.0
        # Not sum(): Python 3.12+ compensates float sums, and an
        # estimate must not depend on the interpreter.
        for seconds in read_seconds:
            transfer += seconds
        return transfer

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        if not candidates:
            return None
        best_speed = self._best_speed_seen
        for state in candidates:
            speed = state.node.speed_factor
            if speed > best_speed:
                best_speed = speed
        self._best_speed_seen = best_speed
        if len(candidates) == 1 and self.decline_slowdown_factor is None:
            # Nothing to rank and nothing to decline: a saturated platform
            # offers exactly the slot that just freed, so this is the
            # common call — no estimate is worth making for it.
            return candidates[0]
        # Single pass: each candidate's finish time is estimated exactly
        # once per call (one batch pricing of its missing inputs), and the
        # winner's estimate is reused for the decline check below.
        base = self._duration(task)
        transfer_of = self._transfer
        reads = task.reads
        read_seconds = self.planner.read_seconds
        best = None
        best_key = None
        best_finish = 0.0
        for state in candidates:
            node = state.node
            transfer = transfer_of(read_seconds(reads, node.name))
            finish = transfer + base / node.speed_factor
            key = (finish, -state.free_cores)
            if best is None or key < best_key:
                best = state
                best_key = key
                best_finish = finish
        if self.decline_slowdown_factor is not None and best_speed > 0:
            reference = base / best_speed
            if best_finish > self.decline_slowdown_factor * reference:
                return None  # waiting for a faster node beats occupying this one
        return best
