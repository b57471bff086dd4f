"""A scheduling policy driven by *learned* duration estimates.

The simulator's :class:`~repro.scheduling.policies.EarliestFinishTimePolicy`
uses oracle profiles; this variant asks a :class:`DurationPredictor`
instead, so placements improve as observations accumulate — the paper's
intelligent-runtime loop closed end to end, and the thing the ablation
bench (bench_intelligence) measures against oracle and FIFO.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.graph import TaskInstance
from repro.infrastructure.network import NetworkTopology
from repro.intelligence.predictor import DurationPredictor
from repro.scheduling.capacity import NodeCapacity
from repro.scheduling.locations import DataLocationService, TransferPlanner


class PredictedFinishTimePolicy:
    """Greedy earliest-finish-time under learned durations."""

    name = "predicted-finish-time"

    def __init__(
        self,
        predictor: DurationPredictor,
        locations: DataLocationService,
        network: NetworkTopology,
        decline_slowdown_factor: Optional[float] = None,
    ) -> None:
        self.predictor = predictor
        self.locations = locations
        self.network = network
        # See EarliestFinishTimePolicy: when set, prefer waiting for a fast
        # node over occupying one slower than factor x the best seen.
        self.decline_slowdown_factor = decline_slowdown_factor
        self._best_speed_seen = 0.0
        self.planner = TransferPlanner(locations, network)

    def select(
        self, task: TaskInstance, candidates: List[NodeCapacity]
    ) -> Optional[NodeCapacity]:
        if not candidates:
            return None
        best_speed = self._best_speed_seen = max(
            self._best_speed_seen, max(s.node.speed_factor for s in candidates)
        )
        if len(candidates) == 1 and self.decline_slowdown_factor is None:
            # Nothing to rank, nothing to decline (see EarliestFinishTimePolicy).
            return candidates[0]
        # The learned duration depends on the task alone: predict once, then
        # a single pass prices each candidate (inputs fetch in parallel, so
        # the transfer term is the slowest best-source fetch) and keeps the
        # winner's estimate for the decline check.
        size_hint = sum(self.locations.size_of(d) for d in task.reads) or None
        predicted = self.predictor.predict(task.label, size=size_hint)
        read_seconds = self.planner.read_seconds
        reads = task.reads
        best = None
        best_key = None
        best_finish = 0.0
        for state in candidates:
            node = state.node
            transfer = max(read_seconds(reads, node.name), default=0.0)
            finish = transfer + predicted / node.speed_factor
            key = (finish, -state.free_cores)
            if best is None or key < best_key:
                best = state
                best_key = key
                best_finish = finish
        if self.decline_slowdown_factor is not None and best_speed > 0:
            if best_finish > self.decline_slowdown_factor * (predicted / best_speed):
                return None
        return best
