"""Generic synthetic DAG generators for tests and micro-benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.executor.workflow_builder import SimWorkflowBuilder
from repro.simulation.random import DeterministicRandom


@dataclass(frozen=True)
class SyntheticConfig:
    """``tasks`` tasks of ``duration`` seconds each: the whole description of
    an :func:`embarrassingly_parallel` or :func:`task_chain` workload."""

    tasks: int = 100
    duration: float = 10.0


def build_ep(cfg: SyntheticConfig) -> SimWorkflowBuilder:
    """The ``ep`` workload of the front doors (:mod:`repro.workloads.table`)."""
    return embarrassingly_parallel(cfg.tasks, duration=cfg.duration)


def build_chain(cfg: SyntheticConfig) -> SimWorkflowBuilder:
    """The ``chain`` workload of the front doors (:mod:`repro.workloads.table`)."""
    return task_chain(cfg.tasks, duration=cfg.duration)


def embarrassingly_parallel(
    num_tasks: int,
    duration: float = 10.0,
    cores: int = 1,
    memory_mb: int = 0,
    output_bytes: float = 0.0,
) -> SimWorkflowBuilder:
    """``num_tasks`` fully independent tasks (the §V "embarrassingly parallel"
    pattern)."""
    builder = SimWorkflowBuilder()
    for i in range(num_tasks):
        outputs = {f"out/{i}": output_bytes} if output_bytes else None
        builder.add_task(
            f"ep/{i}", duration=duration, cores=cores, memory_mb=memory_mb, outputs=outputs
        )
    return builder


def task_chain(length: int, duration: float = 10.0, datum_bytes: float = 1e6) -> SimWorkflowBuilder:
    """A strictly sequential chain — zero exploitable parallelism."""
    builder = SimWorkflowBuilder()
    previous: Optional[str] = None
    for i in range(length):
        inputs = [previous] if previous else []
        builder.add_task(
            f"chain/{i}",
            duration=duration,
            inputs=inputs,
            outputs={f"link/{i}": datum_bytes},
        )
        previous = f"link/{i}"
    return builder


def fork_join_dag(
    width: int,
    duration: float = 10.0,
    datum_bytes: float = 1e6,
) -> SimWorkflowBuilder:
    """source -> ``width`` branches -> sink (the §V fork/join pattern)."""
    builder = SimWorkflowBuilder()
    builder.add_task("source", duration=duration, outputs={"seed": datum_bytes})
    branch_outputs: List[str] = []
    for i in range(width):
        builder.add_task(
            f"branch/{i}",
            duration=duration,
            inputs=["seed"],
            outputs={f"branch-out/{i}": datum_bytes},
        )
        branch_outputs.append(f"branch-out/{i}")
    builder.add_task("sink", duration=duration, inputs=branch_outputs)
    return builder


def layered_random_dag(
    layers: Sequence[int],
    seed: int = 0,
    duration_median: float = 10.0,
    duration_sigma: float = 0.5,
    fan_in: int = 3,
    datum_bytes: float = 1e6,
    memory_mb: int = 0,
) -> SimWorkflowBuilder:
    """A layered random DAG: each task reads ``min(fan_in, previous width)``
    distinct outputs of the previous layer, drawn in O(fan_in) whatever the
    width.  Deterministic for a given seed."""
    if not layers:
        raise ValueError("layers must be non-empty")
    if fan_in < 0:
        raise ValueError(f"fan_in must be >= 0, got {fan_in!r}")
    rng = DeterministicRandom(seed=seed, name="layered-dag")
    builder = SimWorkflowBuilder()
    previous_outputs: List[str] = []
    for layer_index, width in enumerate(layers):
        current_outputs: List[str] = []
        count = min(fan_in, len(previous_outputs))
        for i in range(width):
            inputs = rng.sample(previous_outputs, count)
            name = f"L{layer_index}/t{i}"
            builder.add_task(
                name,
                duration=rng.lognormal(duration_median, duration_sigma),
                inputs=inputs,
                outputs={name: datum_bytes},
                memory_mb=memory_mb,
            )
            current_outputs.append(name)
        previous_outputs = current_outputs
    return builder
