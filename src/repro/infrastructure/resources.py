"""Node and processor descriptions for the computing continuum.

A :class:`Node` is the unit the scheduler places tasks on.  Nodes span the
whole continuum of the paper's §III: sensors and edge devices, fog devices
(smartphones/tablets with batteries), cloud VMs, and HPC compute nodes.  The
differences that matter to the runtime are captured as plain attributes:
core/memory/GPU capacity, relative speed, installed software, power profile
and (for battery devices) remaining energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional


class NodeKind(enum.Enum):
    """Where in the continuum a node lives (Fig. 5 layers)."""

    EDGE = "edge"
    FOG = "fog"
    CLOUD = "cloud"
    HPC = "hpc"


@dataclass(frozen=True)
class GpuSpec:
    """An accelerator attached to a node."""

    model: str = "generic-gpu"
    memory_mb: int = 16_000


@dataclass(frozen=True)
class PowerProfile:
    """Simple linear power model for a node.

    ``power = idle_watts + busy_watts_per_core * busy_cores`` — coarse, but
    sufficient to rank scheduling policies by energy (claim C7).
    """

    idle_watts: float = 100.0
    busy_watts_per_core: float = 10.0

    def power(self, busy_cores: int) -> float:
        """Instantaneous power draw with ``busy_cores`` cores active."""
        if busy_cores < 0:
            raise ValueError(f"busy_cores must be >= 0, got {busy_cores}")
        return self.idle_watts + self.busy_watts_per_core * busy_cores


@dataclass
class Node:
    """A schedulable resource in the continuum.

    Attributes:
        name: unique identifier within a platform.
        kind: continuum layer (edge/fog/cloud/HPC).
        cores: number of CPU cores.
        memory_mb: RAM available for tasks.
        gpus: attached accelerators.
        speed_factor: relative compute speed; a task's base duration is
            divided by this (an HPC core at 1.0, a phone core at ~0.25).
        software: installed software names, matched against task constraints.
        power: linear power model used by the energy accountant.
        battery_joules: remaining battery for fog/edge devices, or None for
            mains-powered nodes.  The failure injector can drain it.
        failed: set when a failure is injected; failed nodes accept no tasks.
    """

    name: str
    kind: NodeKind = NodeKind.CLOUD
    cores: int = 4
    memory_mb: int = 16_000
    gpus: tuple = ()
    speed_factor: float = 1.0
    # One shared empty set: ``frozenset()`` builds a new object per call.
    software: FrozenSet[str] = frozenset()
    power: PowerProfile = field(default_factory=PowerProfile)
    battery_joules: Optional[float] = None
    failed: bool = False

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"node {self.name!r} must have > 0 cores")
        if self.memory_mb <= 0:
            raise ValueError(f"node {self.name!r} must have > 0 memory")
        if self.speed_factor <= 0:
            raise ValueError(f"node {self.name!r} must have > 0 speed_factor")
        if isinstance(self.software, (list, set, tuple)):
            self.software = frozenset(self.software)

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)

    @property
    def alive(self) -> bool:
        """A node is alive unless failed or battery-dead."""
        if self.failed:
            return False
        if self.battery_joules is not None and self.battery_joules <= 0:
            return False
        return True

    def fail(self) -> None:
        """Mark the node as failed (used by the failure injector)."""
        self.failed = True

    def recover(self) -> None:
        """Bring a failed node back (not used by battery-dead nodes)."""
        self.failed = False

    def __repr__(self) -> str:
        return (
            f"Node({self.name!r}, {self.kind.value}, cores={self.cores}, "
            f"mem={self.memory_mb}MB, gpus={self.gpu_count}, "
            f"speed={self.speed_factor})"
        )
