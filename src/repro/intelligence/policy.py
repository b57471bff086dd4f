"""A scheduling policy driven by *learned* duration estimates.

The simulator's :class:`~repro.scheduling.policies.EarliestFinishTimePolicy`
uses oracle profiles; this variant asks a :class:`DurationPredictor`
instead, so placements improve as observations accumulate — the paper's
intelligent-runtime loop closed end to end, and the thing the ablation
bench (bench_intelligence) measures against oracle and FIFO.
"""

from __future__ import annotations

from typing import Optional

from repro.core.graph import TaskInstance
from repro.infrastructure.network import NetworkTopology
from repro.intelligence.predictor import DurationPredictor
from repro.scheduling.locations import DataLocationService
from repro.scheduling.policies import EarliestFinishTimePolicy


class PredictedFinishTimePolicy(EarliestFinishTimePolicy):
    """Greedy earliest-finish-time under learned durations.

    The ranking is :class:`EarliestFinishTimePolicy`'s; the two estimates
    differ: the duration is the predictor's (it depends on the task alone,
    so one prediction per call), and inputs are priced as fetched in
    parallel — the transfer term is the slowest fetch, not the sum.
    """

    name = "predicted-finish-time"

    def __init__(
        self,
        predictor: DurationPredictor,
        locations: DataLocationService,
        network: NetworkTopology,
        decline_slowdown_factor: Optional[float] = None,
    ) -> None:
        super().__init__(locations, network, decline_slowdown_factor)
        self.predictor = predictor

    def _duration(self, task: TaskInstance) -> float:
        size_hint = sum(self.locations.size_of(d) for d in task.reads) or None
        return self.predictor.predict(task.label, size=size_hint)

    @staticmethod
    def _transfer(read_seconds) -> float:
        return max(read_seconds, default=0.0)
