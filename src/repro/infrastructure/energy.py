"""Energy accounting over simulated schedules.

The paper (§IV, §VI-C) wants runtimes that optimize "both in terms of
performance and energy".  The accountant integrates each node's linear power
model over its busy/idle intervals, which is enough to *rank* scheduling
policies by energy (experiment E9) even though absolute joules are synthetic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.infrastructure.resources import Node, PowerProfile


class EnergyAccountant:
    """Tracks per-node busy core-seconds and integrates power over time.

    Usage: call :meth:`record_busy` for every executed task (the simulated
    executor does this), then :meth:`total_energy_joules` with the schedule
    makespan.  Idle power is charged for the whole horizon on powered-on
    nodes; busy power is charged per core-second of task execution.

    Only the per-node *aggregate* core-seconds are kept — every consumer
    (energy integration, utilization tracing) reads the sum, so storing an
    interval object per task would cost O(tasks) memory and allocator time
    for information nothing reads back.  Likewise a node's ``PowerProfile``
    is the only part of it the accountant reads, so that is what it keeps:
    a node that left the platform is not held alive by its energy record.
    """

    def __init__(self) -> None:
        self._busy_core_seconds: Dict[str, float] = {}
        self._power: Dict[str, PowerProfile] = {}
        # Nodes powered off (released by elasticity) stop accruing idle
        # power.  A node that is on has its start in ``_on_since``; its past
        # on-intervals are one flat ``(start, end, start, end, ...)`` tuple.
        self._on_since: Dict[str, float] = {}
        self._was_on: Dict[str, Tuple[float, ...]] = {}

    def register_node(self, node: Node, on_since: float = 0.0) -> None:
        """Start charging idle power for ``node`` from ``on_since`` (a node
        that is already on stays on since its earlier start)."""
        self._power[node.name] = node.power
        self._on_since.setdefault(node.name, on_since)

    def power_off(self, node_name: str, at: float) -> None:
        """Stop charging idle power for a node at virtual time ``at``."""
        start = self._on_since.pop(node_name, None)
        if start is not None:
            self._was_on[node_name] = self._was_on.get(node_name, ()) + (start, at)

    def record_busy(self, node_name: str, start: float, end: float, cores: int) -> None:
        """Record that ``cores`` cores on ``node_name`` were busy in [start, end)."""
        if end < start:
            raise ValueError(f"busy interval ends before it starts: {start} .. {end}")
        busy = self._busy_core_seconds
        busy[node_name] = busy.get(node_name, 0.0) + (end - start) * cores

    def busy_core_seconds(self, node_name: str) -> float:
        return self._busy_core_seconds.get(node_name, 0.0)

    def node_energy_joules(self, node_name: str, horizon: float) -> float:
        """Energy consumed by one node over [0, horizon]."""
        power = self._power.get(node_name)
        if power is None:
            return 0.0
        on_seconds = 0.0
        past = self._was_on.get(node_name, ())
        for start, end in zip(past[::2], past[1::2]):
            stop = min(end, horizon)
            if stop > start:
                on_seconds += stop - start
        start = self._on_since.get(node_name)
        if start is not None and horizon > start:
            on_seconds += horizon - start
        idle_energy = power.idle_watts * on_seconds
        busy_energy = power.busy_watts_per_core * self.busy_core_seconds(node_name)
        return idle_energy + busy_energy

    def total_energy_joules(self, horizon: float) -> float:
        """Total platform energy over [0, horizon] in joules."""
        return sum(self.node_energy_joules(name, horizon) for name in self._power)
