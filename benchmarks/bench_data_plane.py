"""E2b — data-plane hot-path throughput (claim C4).

Paper: the storage interface (Hecuba's dict-as-table mapping, dataClay's
in-store method execution) is what lets the runtime "exploit the locality
of the data" and "minimize the number of data transfers" (§VI-A1).  Those
claims only hold at scale if the data plane's *own* per-operation cost is
O(1) amortized: a `put`/`get`/`call` that re-pickles values for size
accounting or re-walks the consistent-hash ring per key turns a
million-object campaign into quadratic bookkeeping before any byte moves.

This bench pins the property down with a mixed ActiveObject/StorageDict
workload at 25k / 100k objects (``REPRO_BENCH_SCALE=large`` extends to
250k): bulk `StorageDict.update`, a full read-back, a `split()` plus
per-partition read (the Hecuba data-local iteration pattern), and an
ActiveObject population with in-store calls and fetches.  Results are
written to ``BENCH_data_plane.json`` at the repo root, alongside the
pre-PR baseline, so future PRs can track the data-plane trajectory.

The cyclic GC is frozen around the timed section for the same reason as
``bench_runtime_scaling.py``: full collections scan the live object
population and would charge the data plane an O(heap) tax that says
nothing about its algorithms.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

from _common import bench_scale, print_table, run_once

from repro.storage import ActiveObject, ActiveObjectStore, KeyValueCluster, StorageDict

STORAGE_NODES = 16
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_data_plane.json"
)

#: Pre-PR-5 baseline, measured at commit 3f30579 on the same workload
#: (single-core Linux host, Python 3.11).  The pre-PR data plane re-walked
#: the ring per key, re-pickled stored state per in-store call, and kept
#: StorageDict membership in a list (O(n) per probe), so the 100k point
#: degraded superlinearly.  Kept verbatim so the committed JSON always
#: records both sides of the before/after comparison.
PRE_PR_BASELINE = {
    "commit": "3f30579",
    "points": [
        {"objects": 25_000, "ops": 80_000, "seconds": 206.005, "ops_per_sec": 388.3},
        {"objects": 100_000, "ops": 320_000, "seconds": 4615.360, "ops_per_sec": 69.3},
    ],
}


class Counter(ActiveObject):
    """Small stateful object: a payload plus a running total."""

    def __init__(self, payload):
        super().__init__()
        self.values = list(payload)
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total

    def head(self):
        return self.values[0]


def data_plane_targets() -> list:
    scale = bench_scale()
    if scale == "large":
        return [25_000, 100_000, 250_000]
    return [25_000, 100_000]


def run_point(n_objects: int) -> dict:
    """One mixed-workload point; returns an ops/sec record.

    80% of the objects are StorageDict cells (written via the batched
    ``update`` path, read back individually, then read again partition by
    partition after a ``split()``), 20% are ActiveObjects (stored, two
    in-store calls each, one fetch each).
    """
    n_cells = (n_objects * 4) // 5
    n_active = n_objects - n_cells
    node_names = [f"dn-{i}" for i in range(STORAGE_NODES)]
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.freeze()
        start = time.perf_counter()
        ops = 0

        cluster = KeyValueCluster(node_names, replication=2)
        table = StorageDict(cluster, "bench")
        table.update({f"cell-{i}": (i, i * 3) for i in range(n_cells)})
        ops += n_cells
        for key in table.keys():
            table[key]
        ops += n_cells
        partitions = table.split()
        for _node, keys in partitions.items():
            for key in keys:
                table[key]
        ops += n_cells

        store = ActiveObjectStore(node_names, replication=2)
        counters = []
        for i in range(n_active):
            counter = Counter(range(32))
            counter.make_persistent(store)
            counters.append(counter)
        ops += n_active
        for round_no in (1, 2):
            for counter in counters:
                counter.remote("add", round_no)
            ops += n_active
        for counter in counters:
            store.fetch(counter.getID())
        ops += n_active

        seconds = time.perf_counter() - start
        gc.unfreeze()
    finally:
        if gc_was_enabled and not gc.isenabled():
            gc.enable()
    return {
        "objects": n_objects,
        "ops": ops,
        "seconds": seconds,
        "ops_per_sec": ops / seconds if seconds > 0 else float("inf"),
        "dict_cells": n_cells,
        "active_objects": n_active,
        "kv_bytes_written": cluster.bytes_written,
        "kv_bytes_read": cluster.bytes_read,
        "in_store_bytes_moved": store.bytes_moved_calls,
        "fetch_bytes_moved": store.bytes_moved_fetch,
    }


def run_sweep() -> list:
    run_point(2_000)  # warmup: allocator freelists, method caches
    return [run_point(target) for target in data_plane_targets()]


def _baseline_for(n_objects: int) -> dict:
    for point in PRE_PR_BASELINE["points"]:
        if point["objects"] == n_objects:
            return point
    return {}


def _write_results(points: list) -> None:
    results = {
        "experiment": "data_plane",
        "scale": bench_scale(),
        "pre_pr_baseline": PRE_PR_BASELINE,
        "points": points,
        "speedup_vs_baseline": {
            str(p["objects"]): (
                p["ops_per_sec"] / _baseline_for(p["objects"])["ops_per_sec"]
            )
            for p in points
            if _baseline_for(p["objects"])
        },
    }
    with open(RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")


def test_data_plane_scaling(benchmark):
    points = run_once(benchmark, run_sweep)
    print_table(
        "E2b: data-plane mixed-workload throughput (expected shape: flat ops/sec)",
        ["objects", "ops", "seconds", "ops/s", "baseline_ops/s", "speedup"],
        [
            (
                p["objects"],
                p["ops"],
                p["seconds"],
                p["ops_per_sec"],
                _baseline_for(p["objects"]).get("ops_per_sec", 0.0),
                p["ops_per_sec"]
                / max(1.0, _baseline_for(p["objects"]).get("ops_per_sec", 0.0)),
            )
            for p in points
        ],
    )
    sys.stdout.flush()
    _write_results(points)

    # The headline shape: per-op cost stays constant as the population
    # grows — the largest point's rate within 2x of the smallest point's.
    smallest, largest = points[0], points[-1]
    assert largest["ops_per_sec"] * 2.0 >= smallest["ops_per_sec"], (
        f"superlinear data-plane cost: {smallest['objects']} objects ran at "
        f"{smallest['ops_per_sec']:.0f} ops/s but {largest['objects']} objects "
        f"ran at {largest['ops_per_sec']:.0f} ops/s"
    )
    # The acceptance bar: >= 3x the recorded pre-PR rate at every point with
    # a baseline measurement (the 100k point is the one ISSUE 5 names).
    for p in points:
        baseline = _baseline_for(p["objects"])
        if baseline:
            assert p["ops_per_sec"] >= 3.0 * baseline["ops_per_sec"], (
                f"data-plane speedup below 3x at {p['objects']} objects: "
                f"{p['ops_per_sec']:.0f} ops/s vs baseline "
                f"{baseline['ops_per_sec']:.0f} ops/s"
            )


#: Absolute ops/sec floor for the 100k-object point (CI smoke guard).
#: The point runs at ~400k ops/s locally (~250k before PR 21); the pre-PR-5
#: data plane managed ~69.  The floor sits far below the optimized rate so
#: it only trips on order-of-magnitude regressions, not on slow CI runners.
DATA_PLANE_OPS_PER_SEC_FLOOR = 40_000.0


def test_data_plane_throughput_floor(benchmark):
    """The 100k-object point must clear an absolute ops/sec floor.

    The scaling assertion above is relative (largest vs smallest point), so
    a uniform data-plane slowdown would pass it.  This pins an absolute
    rate on the 100k point, where ring re-walks, per-op re-pickling, or
    O(n) membership probes show up directly — mirroring the placement
    throughput floor in ``bench_runtime_scaling.py``.
    """

    def run_floor_point() -> dict:
        run_point(2_000)  # warmup (allocator freelists, method caches)
        return run_point(100_000)

    point = run_once(benchmark, run_floor_point)
    print_table(
        "E2b data-plane throughput floor (100k objects, 16 storage nodes)",
        ["objects", "ops", "seconds", "ops/s", "floor"],
        [
            (
                point["objects"],
                point["ops"],
                point["seconds"],
                point["ops_per_sec"],
                DATA_PLANE_OPS_PER_SEC_FLOOR,
            )
        ],
    )
    sys.stdout.flush()
    assert point["ops_per_sec"] >= DATA_PLANE_OPS_PER_SEC_FLOOR, (
        f"data-plane throughput regressed: {point['ops_per_sec']:.0f} ops/s "
        f"on the 100k-object point, floor is {DATA_PLANE_OPS_PER_SEC_FLOOR:.0f}"
    )
