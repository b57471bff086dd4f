"""Online duration prediction from past executions.

Per task type the predictor keeps a running count and mean and, when
observations carry an input-size feature, a streaming simple linear
regression ``duration ~ a + b * size``.  Predictions prefer
the regression once it has enough support and explanatory power, falling
back to the running mean, then to a global default — so schedulers always
get *some* estimate, and estimates sharpen as the workflow executes (exactly
the "learning from previous executions" loop of §VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class TaskTypeStats:
    """Streaming statistics for one task type."""

    count: int = 0
    mean: float = 0.0
    # Streaming regression accumulators over (size, duration).
    sum_x: float = 0.0
    sum_y: float = 0.0
    sum_xx: float = 0.0
    sum_xy: float = 0.0
    sized_count: int = 0

    def observe(self, duration: float, size: Optional[float] = None) -> None:
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.count += 1
        self.mean += (duration - self.mean) / self.count
        if size is not None and size >= 0:
            self.sized_count += 1
            self.sum_x += size
            self.sum_y += duration
            self.sum_xx += size * size
            self.sum_xy += size * duration

    def regression(self) -> Optional[tuple]:
        """(intercept, slope) of duration ~ size, or None if unsupported."""
        n = self.sized_count
        if n < 3:
            return None
        denom = n * self.sum_xx - self.sum_x * self.sum_x
        if abs(denom) < 1e-12:
            return None  # all sizes identical: slope undefined
        slope = (n * self.sum_xy - self.sum_x * self.sum_y) / denom
        intercept = (self.sum_y - slope * self.sum_x) / n
        return intercept, slope


class DurationPredictor:
    """Task-duration oracle learned online from completions."""

    def __init__(self, default_duration_s: float = 10.0) -> None:
        if default_duration_s <= 0:
            raise ValueError("default_duration_s must be positive")
        self.default_duration_s = default_duration_s
        self._stats: Dict[str, TaskTypeStats] = {}

    @staticmethod
    def type_of(label: str) -> str:
        """Task type = label up to the ``#<id>`` suffix / first ``/``-group."""
        base = label.split("#", 1)[0]
        return base.split("/", 1)[0]

    def stats(self, task_type: str) -> TaskTypeStats:
        return self._stats.setdefault(task_type, TaskTypeStats())

    def observe(self, label: str, duration: float, size: Optional[float] = None) -> None:
        """Record a completed execution of a task with this label."""
        self.stats(self.type_of(label)).observe(duration, size=size)

    def predict(self, label: str, size: Optional[float] = None) -> float:
        """Best available duration estimate for a task of this label."""
        stats = self._stats.get(self.type_of(label))
        if stats is None or stats.count == 0:
            return self.default_duration_s
        if size is not None:
            fitted = stats.regression()
            if fitted is not None:
                intercept, slope = fitted
                estimate = intercept + slope * size
                if estimate > 0:
                    return estimate
        return stats.mean
