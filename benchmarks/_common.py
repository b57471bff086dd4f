"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md §3
(the per-experiment index maps them to the paper's claims).  Benchmarks
print paper-style result rows and *assert the claimed shape* — who wins and
by roughly what factor — so `pytest benchmarks/ --benchmark-only` doubles as
a reproduction check.

``REPRO_BENCH_SCALE`` selects the workload magnitude:

* ``smoke``   — minimal sizes for CI (runtime-scaling sweep stops at 25k
  tasks, other benches unchanged);
* ``default`` — E1/E2 at ~5k tasks; the runtime-scaling sweep
  (``bench_runtime_scaling.py``) still exercises 10k/50k/200k tasks;
* ``large``   — E1/E2 at ~20k tasks (closer to the paper's magnitude) and
  the runtime-scaling sweep extended past 200k to 500k tasks.
"""

from __future__ import annotations

import json
import os
import platform
import resource
from typing import Callable, Iterable, List, Sequence


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


def guidance_chunks() -> int:
    """chunks/chromosome for GUIDANCE-derived benches (22 chromosomes)."""
    return 224 if bench_scale() == "large" else 56


def runtime_scaling_targets() -> List[int]:
    """Task-count sweep for the runtime-overhead scaling bench (E1b).

    The default sweep ends at 200k tasks — the regime where the pre-PR-2
    O(tasks)-per-event bookkeeping was intractable; ``large`` pushes to
    500k, ``smoke`` keeps CI fast.
    """
    scale = bench_scale()
    if scale == "smoke":
        # Both points sit on the flat part of the curve: below ~10k tasks
        # per-event rates are inflated by small-working-set effects and the
        # flatness assertion would compare incomparable regimes.
        return [10_000, 25_000]
    if scale == "large":
        return [10_000, 50_000, 200_000, 500_000]
    return [10_000, 50_000, 200_000]


def host_facts() -> dict:
    """The host a figure was measured on, stamped beside it in a JSON artifact."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def rss_mb() -> float:
    """The resident set now (Linux), else the peak so far."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def merge_results(path: str, updates: dict) -> None:
    """Fold ``updates`` into the JSON artifact at ``path`` without clobbering
    keys other tests of the module wrote (each test may run alone)."""
    results = {}
    try:
        with open(path) as fh:
            results = json.load(fh)
    except (OSError, ValueError):
        pass
    results.update(updates)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print one paper-style results table (visible under pytest -s)."""
    print(f"\n=== {title}")
    widths = [max(len(str(h)), 12) for h in header]
    print("  " + "  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print(
            "  "
            + "  ".join(
                (f"{v:.2f}" if isinstance(v, float) else str(v)).rjust(w)
                for v, w in zip(row, widths)
            )
        )


def run_once(benchmark, fn: Callable):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    These experiments are deterministic simulations — repeated rounds only
    repeat identical arithmetic — so one round keeps the suite fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
