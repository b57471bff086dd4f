"""Workflow modelling: analytic structure metrics for task graphs.

The paper (§VI-C): "We also aim at doing theoretical research in workflow
modelling and in the definition of data-computing metrics. Once we have some
workflow modelling methodologies defined, this will be used to give feedback
on the solutions designed and in subsequent stages to drive runtime
decisions."

This module is that feedback loop's first stage: closed-form structure
metrics over a profiled DAG — total work, critical path (depth), average
parallelism, width profile, and the classic work/depth speedup bound

    T_p >= max(T_1 / p, T_inf)

which the E1 scaling bench can be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.graph import TaskGraph, TaskInstance


def _duration(instance: TaskInstance) -> float:
    if instance.profile is not None:
        return instance.profile.duration_s
    if instance.duration is not None:
        return instance.duration
    return 0.0


@dataclass(frozen=True)
class WorkflowModel:
    """Analytic structure summary of one task graph."""

    task_count: int
    total_work_s: float          # T_1: serial execution time
    critical_path_s: float       # T_inf: minimum possible makespan
    average_parallelism: float   # T_1 / T_inf
    max_width: int               # widest antichain by level
    level_widths: List[int]      # tasks per dependency level

    def speedup_bound(self, cores: int) -> float:
        """Brent's bound on achievable speedup with ``cores`` workers."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        if self.total_work_s == 0:
            return float(cores)
        lower_bound_makespan = max(self.total_work_s / cores, self.critical_path_s)
        return self.total_work_s / lower_bound_makespan

    def makespan_lower_bound(self, cores: int) -> float:
        """T_p >= max(T_1/p, T_inf): no schedule can beat this."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        return max(self.total_work_s / cores, self.critical_path_s)


def analyze_graph(graph: TaskGraph) -> WorkflowModel:
    """Compute the :class:`WorkflowModel` of a (profiled) task graph."""
    total_work = sum(_duration(t) for t in graph.tasks)
    critical_path = graph.critical_path_length(_duration)

    # Level = longest hop-distance from any source; width = tasks per level.
    # A forgotten predecessor counts as level -1, as it adds nothing to the
    # critical path: the held graph starts where it was let go.
    level: Dict[int, int] = {}
    widths: Dict[int, int] = {}
    for instance in graph.tasks:  # insertion order is topological
        preds = graph.predecessors(instance.task_id)
        depth = max((level.get(p, -1) for p in preds), default=-1) + 1
        level[instance.task_id] = depth
        widths[depth] = widths.get(depth, 0) + 1
    level_widths = [widths[i] for i in sorted(widths)] if widths else []

    task_count = graph.task_count

    return WorkflowModel(
        task_count=task_count,
        total_work_s=total_work,
        critical_path_s=critical_path,
        average_parallelism=(
            total_work / critical_path if critical_path > 0 else float(task_count or 0)
        ),
        max_width=max(level_widths, default=0),
        level_widths=level_widths,
    )
