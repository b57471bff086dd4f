"""Offloading policies: where an agent sends each ready task.

"the framework can be used to instantiate applications on smart devices on
the fog layer and to offload part of the computation to the cloud
(fog-to-cloud) or use the fog devices as workers for a cloud application"
(§VI-B).  A policy sees the orchestrator's view — its own queue depth and
the peer agents it knows — and picks an executor agent per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Protocol

from repro.core.graph import TaskInstance

if TYPE_CHECKING:
    from repro.agents.agent import Agent


@dataclass
class PeerInfo:
    """What an orchestrator knows about a peer agent."""

    name: str
    cores: int
    speed_factor: float
    kind: str  # "edge" | "fog" | "cloud" | "hpc"
    outstanding: int  # tasks this orchestrator has sent there and not heard back


class OffloadingPolicy(Protocol):
    """Chooses the executing agent for one ready task."""

    name: str

    def choose(
        self,
        task: TaskInstance,
        local: PeerInfo,
        peers: List[PeerInfo],
    ) -> str:
        """Return the chosen agent name (may be ``local.name``)."""
        ...


class NeverOffload:
    """Fog-only baseline: everything runs on the orchestrating agent."""

    name = "never-offload"

    def choose(self, task: TaskInstance, local: PeerInfo, peers: List[PeerInfo]) -> str:
        return local.name


class AlwaysOffload:
    """Ship every task to the least-loaded remote peer (cloud-first)."""

    name = "always-offload"

    def choose(self, task: TaskInstance, local: PeerInfo, peers: List[PeerInfo]) -> str:
        if not peers:
            return local.name
        clouds = [p for p in peers if p.kind == "cloud"]
        pool = clouds if clouds else peers
        return min(pool, key=lambda p: p.outstanding / max(1, p.cores)).name


class LoadThresholdOffload:
    """Offload only once the local device saturates (fog-to-cloud, E6).

    Keeps tasks local while the local backlog per core stays under
    ``threshold``; beyond it, ships work to the least-loaded peer, preferring
    cloud agents (they are faster but behind a WAN).
    """

    name = "load-threshold"

    def __init__(self, threshold: float = 2.0, prefer_cloud: bool = True) -> None:
        self.threshold = threshold
        self.prefer_cloud = prefer_cloud

    def choose(self, task: TaskInstance, local: PeerInfo, peers: List[PeerInfo]) -> str:
        local_pressure = local.outstanding / max(1, local.cores)
        if local_pressure < self.threshold or not peers:
            return local.name

        def load(p: PeerInfo) -> float:
            return p.outstanding / max(1, p.cores)

        if self.prefer_cloud:
            clouds = [p for p in peers if p.kind == "cloud"]
            if clouds:
                best_cloud = min(clouds, key=load)
                if load(best_cloud) < local_pressure:
                    return best_cloud.name
        best = min(peers, key=load)
        return best.name if load(best) < local_pressure else local.name
