"""A SLURM-like batch job manager with allocation elasticity (claim C6).

Models what the COMPSs runtime sees of SLURM: you submit a job asking for N
nodes, wait in a FIFO queue until N nodes are free, and — the elasticity
feature the paper highlights — a *running* job can request extra nodes, which
are granted when available and joined to the job's allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.infrastructure.platform import Platform
from repro.simulation.engine import SimulationEngine


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass
class SlurmJob:
    """A batch job: a request for nodes plus lifecycle bookkeeping."""

    job_id: int
    requested_nodes: int
    state: JobState = JobState.PENDING
    allocated: List[str] = field(default_factory=list)
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    on_start: Optional[Callable[["SlurmJob"], None]] = None
    on_grow: Optional[Callable[["SlurmJob", List[str]], None]] = None
    # Pending grow requests (node counts) in FIFO order.
    grow_requests: List[int] = field(default_factory=list)

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


class SlurmManager:
    """FIFO batch scheduler over a platform's nodes.

    Nodes managed by the SlurmManager are handed to jobs exclusively; a job's
    COMPSs runtime then schedules tasks only on its allocation.
    """

    def __init__(self, platform: Platform, engine: SimulationEngine) -> None:
        self.platform = platform
        self.engine = engine
        self._free: List[str] = [n.name for n in platform.alive_nodes]
        # Nodes only move between ``_free`` and a job's allocation.
        self._total_nodes = len(self._free)
        self._queue: List[SlurmJob] = []
        self._jobs: Dict[int, SlurmJob] = {}
        self._next_id = 1

    @property
    def free_node_count(self) -> int:
        return len(self._free)

    def job(self, job_id: int) -> SlurmJob:
        return self._jobs[job_id]

    def submit(
        self,
        requested_nodes: int,
        on_start: Optional[Callable[[SlurmJob], None]] = None,
        on_grow: Optional[Callable[[SlurmJob, List[str]], None]] = None,
    ) -> SlurmJob:
        """Enqueue a job; ``on_start`` fires (in virtual time) at allocation."""
        if requested_nodes <= 0:
            raise ValueError(f"requested_nodes must be > 0, got {requested_nodes}")
        if requested_nodes > self._total_nodes:
            raise ValueError(
                f"job wants {requested_nodes} nodes but the cluster only has "
                f"{self._total_nodes}"
            )
        job = SlurmJob(
            job_id=self._next_id,
            requested_nodes=requested_nodes,
            submit_time=self.engine.now,
            on_start=on_start,
            on_grow=on_grow,
        )
        self._next_id += 1
        self._jobs[job.job_id] = job
        self._queue.append(job)
        # Try to place immediately (still via the event loop for determinism).
        self.engine.after(0.0, self._drain_queue)
        return job

    def request_grow(self, job_id: int, extra_nodes: int) -> None:
        """A running job asks for more nodes (COMPSs SLURM elasticity)."""
        job = self._jobs[job_id]
        if job.state is not JobState.RUNNING:
            raise ValueError(f"job {job_id} is not running")
        if extra_nodes <= 0:
            raise ValueError(f"extra_nodes must be > 0, got {extra_nodes}")
        job.grow_requests.append(extra_nodes)
        self.engine.after(0.0, self._drain_queue)

    def release(self, job_id: int) -> None:
        """Job finished: return its allocation to the free pool."""
        job = self._jobs[job_id]
        if job.state is not JobState.RUNNING:
            raise ValueError(f"job {job_id} is not running")
        job.state = JobState.COMPLETED
        job.end_time = self.engine.now
        self._free.extend(job.allocated)
        job.allocated = []
        self.engine.after(0.0, self._drain_queue)

    # ------------------------------------------------------------------ internals

    def _drain_queue(self) -> None:
        # Strict FIFO: the head job blocks later jobs (no backfill), which is
        # the conservative model and keeps results easy to reason about.
        while self._queue and self._queue[0].requested_nodes <= len(self._free):
            job = self._queue.pop(0)
            job.allocated = [self._free.pop(0) for _ in range(job.requested_nodes)]
            job.state = JobState.RUNNING
            job.start_time = self.engine.now
            if job.on_start is not None:
                job.on_start(job)
        # Grow requests are honoured only when no queued job is waiting, so
        # elasticity cannot starve the FIFO queue.
        if not self._queue:
            for job in self._jobs.values():
                if job.state is not JobState.RUNNING:
                    continue
                while job.grow_requests and job.grow_requests[0] <= len(self._free):
                    count = job.grow_requests.pop(0)
                    new_nodes = [self._free.pop(0) for _ in range(count)]
                    job.allocated.extend(new_nodes)
                    if job.on_grow is not None:
                        job.on_grow(job, new_nodes)
