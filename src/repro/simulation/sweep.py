"""Multiprocess scenario-sweep driver for independent simulation runs.

Experiment campaigns (E1's scaling sweeps, the scheduler ablation, seed
sensitivity studies) are embarrassingly parallel: every scenario is an
independent simulation with its own seed.  The engine-level sharding in
:mod:`repro.simulation.sharded` parallelizes *within* one run; this module
is the run-level layer above it — it fans a list of scenario dicts across
worker processes and folds the per-run results into one merged document.

Determinism is the load-bearing property:

* every scenario's seed is *derived*, never drawn — the sweep's base seed
  is forked through :meth:`DeterministicRandom.fork` keyed by the
  scenario's canonical identity, so the seed depends only on (base seed,
  scenario content), not on list position, worker count, or which process
  happened to run it (CRC32 derivation is process-stable by design);
* the merged document contains only deterministic fields (scenario, key,
  seed, the runner's result) in scenario order — wall-clock and CPU timing
  live in a separate, explicitly non-deterministic stats block — so the
  same scenarios at any ``workers=N`` serialize to byte-identical JSON
  (asserted in ``tests/test_sweep_driver.py``).

Workers are forked (Linux); platforms without the ``fork`` start method,
and ``workers <= 1``, fall back to inline execution — same results, same
merged bytes, just sequential.  Runners must be module-level callables
``runner(scenario, seed) -> dict`` so child processes can resolve them by
reference.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.simulation.parallel import _fork_context, _peak_rss_kb
from repro.simulation.random import DeterministicRandom

#: Fork namespace separating sweep seeds from every other consumer of the
#: base seed (workload generators fork their own names off the same root).
_SWEEP_STREAM = "sweep"

Runner = Callable[[Dict[str, Any], int], Dict[str, Any]]


def scenario_key(scenario: Dict[str, Any]) -> str:
    """Canonical identity of a scenario.

    An explicit ``key`` field wins; otherwise the canonical JSON of the
    scenario (sorted keys, no whitespace) — two dicts with the same items
    in any insertion order are the same scenario and get the same seed.
    """
    explicit = scenario.get("key")
    if explicit is not None:
        return str(explicit)
    return json.dumps(scenario, sort_keys=True, separators=(",", ":"))


def scenario_keys(scenarios: Sequence[Dict[str, Any]]) -> List[str]:
    """Every scenario's key; a ``ValueError`` if two share one (they would
    silently share a seed)."""
    keys = [scenario_key(s) for s in scenarios]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate scenario keys: {dupes[:3]}")
    return keys


def derive_seed(base_seed: int, key: str) -> int:
    """Per-scenario seed: the base seed forked through the sweep stream."""
    return DeterministicRandom(seed=base_seed, name="sweep-root").fork(
        f"{_SWEEP_STREAM}:{key}"
    ).seed


@dataclass
class SweepStats:
    """Non-deterministic execution metrics for one sweep invocation.

    Kept strictly outside the merged document: everything here varies with
    machine load, worker count, and scheduling, and must never leak into
    the bytes the determinism guarantee covers.
    """

    workers: int
    cpus: int
    wall_seconds: float
    total_events: int
    total_cpu_seconds: float
    #: CPU seconds scoped by the runners to their simulation loops (equals
    #: ``total_cpu_seconds`` when runners report no scoped measurement).
    total_sim_cpu_seconds: float = 0.0
    per_run: List[Dict[str, float]] = field(default_factory=list)

    @property
    def events_per_sec_wall(self) -> float:
        """Aggregate throughput against sweep wall time (honest on any box)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_events / self.wall_seconds

    @property
    def events_per_sec_per_cpu(self) -> float:
        """Mean per-process throughput on a CPU-seconds basis."""
        cpu = self.total_sim_cpu_seconds or self.total_cpu_seconds
        if cpu <= 0:
            return 0.0
        return self.total_events / cpu

    @property
    def max_peak_rss_kb(self) -> float:
        """Largest per-worker peak RSS observed across the sweep's runs.

        With forked workers each run reports its own process's high-water
        mark, so this is the per-lane memory bill a parallel fleet pays —
        the figure benchmark documents record next to throughput.
        """
        return max(
            (float(run.get("peak_rss_kb", 0.0)) for run in self.per_run),
            default=0.0,
        )

    def total(self, key: str) -> float:
        """A per-run counter summed across the fleet.

        Runners report counters through the ``_stats`` channel — a
        streaming scenario's ``stream_events`` / ``stream_dropped`` /
        ``stream_spilled`` / ``windows_closed``; runs that do not report
        ``key`` contribute zero.
        """
        return sum(float(run.get(key, 0.0)) for run in self.per_run)

    def aggregate_events_per_sec(self, basis: str = "cpu") -> float:
        """Aggregate events/sec of the sweep fleet.

        ``basis="wall"`` divides total events by sweep wall time — the
        throughput actually observed, which tops out at one worker's rate
        times the *physical* core count.  ``basis="cpu"`` is the per-run
        CPU-seconds rate times the concurrency the sweep was asked for
        (bounded by the number of runs): the rate the same fleet sustains
        when each worker owns a core.  Both are reported in benchmark
        documents with the basis spelled out.
        """
        if basis == "wall":
            return self.events_per_sec_wall
        if basis == "cpu":
            concurrency = max(1, min(self.workers, len(self.per_run)))
            return self.events_per_sec_per_cpu * concurrency
        raise ValueError(f"unknown basis {basis!r} (wall or cpu)")


@dataclass
class SweepResult:
    """Merged sweep outcome: deterministic document + timing stats."""

    merged: Dict[str, Any]
    stats: SweepStats

    def merged_json(self) -> str:
        """Canonical serialization of the deterministic document.

        Byte-identical across worker counts, processes, and platforms for
        the same (scenarios, runner, base_seed).
        """
        return json.dumps(self.merged, sort_keys=True, indent=2) + "\n"

    def write_merged(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.merged_json())


def _execute_one(
    task: Tuple[int, Dict[str, Any], str, int, Runner]
) -> Tuple[int, Dict[str, Any], Dict[str, float]]:
    """Run one scenario (in a worker or inline) and time it both ways."""
    index, scenario, key, seed, runner = task
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    result = runner(scenario, seed)
    timing = {
        "wall_seconds": time.perf_counter() - wall_start,
        "cpu_seconds": time.process_time() - cpu_start,
        "events": float(result.get("events", 0) or 0),
        "peak_rss_kb": _peak_rss_kb(),
    }
    # Reserved channel for runner-measured timing: the ``_stats`` dict is
    # stripped here so it can never leak into the deterministic merged
    # document, and folded into this run's stats entry.  A runner that
    # scopes ``cpu_seconds`` to its simulation loop proper (excluding
    # scenario construction) makes the cpu-basis throughput a statement
    # about the engine rather than about workload build cost; the outer
    # measurements above are always recorded alongside it.
    runner_stats = result.pop("_stats", None)
    if runner_stats:
        timing["sim_cpu_seconds"] = float(
            runner_stats.get("cpu_seconds", timing["cpu_seconds"])
        )
        for stat_key, value in runner_stats.items():
            timing.setdefault(stat_key, value)
    else:
        timing["sim_cpu_seconds"] = timing["cpu_seconds"]
    return index, result, timing


def run_sweep(
    scenarios: Sequence[Dict[str, Any]],
    runner: Runner,
    workers: int = 1,
    base_seed: int = 42,
    fresh_process: bool = False,
) -> SweepResult:
    """Run every scenario through ``runner`` and merge the results.

    Args:
        scenarios: parameter dicts; an optional ``key`` field names the
            scenario (otherwise its canonical JSON does).  Duplicate keys
            are rejected — they would silently share a seed.
        runner: module-level ``callable(scenario, seed) -> dict``.  The
            returned dict must itself be deterministic (no timestamps, no
            wall-clock measurements); an optional ``events`` field feeds
            the throughput stats, and an optional ``_stats`` sub-dict of
            runner-scoped timing is stripped into the stats block before
            merging (see :func:`_execute_one`).
        workers: worker processes to fan across.  ``<= 1`` (or platforms
            without fork) runs inline in this process.
        base_seed: root of the per-scenario seed derivation.
        fresh_process: run every scenario in a brand-new fork of this
            process (``maxtasksperchild=1``), even at ``workers=1``.  Long
            benchmark campaigns want this: each run then starts from the
            identical warmed parent image instead of inheriting the
            previous run's allocator fragmentation, which otherwise skews
            per-run timing by 2-3x late in a sweep.  Results are unchanged
            either way — this only affects the timing stats.

    Returns a :class:`SweepResult` whose ``merged`` document lists runs in
    scenario order regardless of completion order.
    """
    keys = scenario_keys(scenarios)
    tasks = [
        (index, dict(scenario), key, derive_seed(base_seed, key), runner)
        for index, (scenario, key) in enumerate(zip(scenarios, keys))
    ]
    context = _fork_context() if (workers > 1 or fresh_process) else None
    wall_start = time.perf_counter()
    outcomes: List[Optional[Tuple[int, Dict[str, Any], Dict[str, float]]]]
    if context is None or not tasks:
        outcomes = [_execute_one(task) for task in tasks]
        effective_workers = 1
    else:
        effective_workers = max(1, min(workers, len(tasks)))
        with context.Pool(
            processes=effective_workers,
            maxtasksperchild=1 if fresh_process else None,
        ) as pool:
            # unordered: results are re-seated by index below, so the merge
            # order cannot depend on completion order.
            outcomes = list(pool.imap_unordered(_execute_one, tasks))
    wall_seconds = time.perf_counter() - wall_start
    outcomes.sort(key=lambda item: item[0])
    runs = []
    per_run_stats = []
    total_events = 0
    total_cpu = 0.0
    total_sim_cpu = 0.0
    for (index, result, timing), key, task in zip(outcomes, keys, tasks):
        runs.append(
            {
                "key": key,
                "seed": task[3],
                "scenario": task[1],
                "result": result,
            }
        )
        per_run_stats.append(dict(timing, key=key))
        total_events += int(timing["events"])
        total_cpu += timing["cpu_seconds"]
        total_sim_cpu += timing["sim_cpu_seconds"]
    merged = {
        "base_seed": base_seed,
        "runs": runs,
    }
    stats = SweepStats(
        workers=effective_workers,
        cpus=os.cpu_count() or 1,
        wall_seconds=wall_seconds,
        total_events=total_events,
        total_cpu_seconds=total_cpu,
        total_sim_cpu_seconds=total_sim_cpu,
        per_run=per_run_stats,
    )
    return SweepResult(merged=merged, stats=stats)
