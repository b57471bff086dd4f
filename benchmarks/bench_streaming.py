"""E14/E14b — streaming results out vs offline batch, and the dataflow plane.

Paper: "edge devices like sensors or scientific instruments ... will stream
continuous flows of data and similarly the scientists expect results to be
streamed out for monitoring, steering and visualization of the scientific
results to enable interactivity."

Two experiments share this module, both :class:`OperatorGraph` programs
lowered by the :class:`DataflowPlane` into the task runtime:

* **E14 (latency)** — a sensor campaign of growing length at E14's cost
  model (0.05 s per element).  The streaming side is one
  ``tumbling_window(WINDOW_S)``: per-window results are published during
  the run.  The fragmented baseline is the same graph with one window as
  long as the campaign — a window that closes once, at the end, *is*
  collect-then-compute.  Streaming's result latency is flat
  (window-bounded) while batch latency grows linearly with campaign length.
* **E14b (production rate)** — the plane at 100k -> 1M stream events per
  campaign, asserting *flat per-event cost* (<= 1.3x spread, each point
  the median of five interleaved runs), an absolute events/sec floor, and
  watermark-bounded memory.  Results land in ``BENCH_streaming.json`` at
  the repo root.
"""

import gc
import os
import time

from _common import bench_scale, merge_results, print_table, run_once

from repro.core.graph import TaskGraph
from repro.executor.simulated import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import CreditValve, DataflowPlane, OperatorGraph, SensorSource

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_streaming.json"
)

CAMPAIGNS = [60.0, 300.0, 1800.0]
WINDOW_S = 5.0

#: Throughput campaign: events per sensor-second, sensors, emission batch.
RATE_HZ = 250.0
SENSORS = 4
EMIT_BATCH = 50

#: Flat-cost acceptance: largest/smallest per-event cost across campaigns.
SPREAD_CEILING = 1.3

#: Rounds of the sweep: each round runs every campaign point once, and a
#: point is its run of median per-event cost.  The 100k-event point lasts
#: ~0.06 s, so a stall or a slow phase of a shared box in one run (or in
#: back-to-back runs of one point) would otherwise decide the spread gate.
REPEATS = 5

#: Absolute ingest floor (events/sec of engine-run wall time) for every
#: campaign point — set ~5x under the local measurement so shared CI
#: runners pass with headroom while a hot-path regression still fails.
EVENTS_PER_SEC_FLOOR = 200_000.0

#: Memory acceptance: retained + buffered high-water must not scale with
#: campaign length (both are bounded by the in-flight window span).
MEMORY_SPREAD_CEILING = 2.0


def throughput_targets():
    if bench_scale() == "smoke":
        return [20_000, 100_000]
    return [100_000, 1_000_000]


# ---------------------------------------------------------------------------
# The operator pipeline both experiments run, and E14b's throughput sweep
# ---------------------------------------------------------------------------


def _build_plane(engine, window_s=WINDOW_S, duration_fn=None, credits=None):
    """One-zone operator pipeline on a fog platform: chain -> window."""
    platform = make_fog_platform(num_edge=0, num_fog=1, num_cloud=1)
    locations = DataLocationService()
    executor = SimulatedExecutor(
        TaskGraph(),
        platform,
        policy=LoadBalancingPolicy(),
        engine=engine,
        locations=locations,
    )
    operators = OperatorGraph("bench-flow")
    chains = []
    valves = []
    for s in range(SENSORS):
        valve = CreditValve(credits, policy="spill") if credits else None
        valves.append(valve)
        chains.append(
            operators.source(f"sensor-{s}", valve=valve)
            .map(f"scale-{s}", lambda v: v * 100.0)
            .filter(f"qc-{s}", lambda v: v > 0.0)
        )
    operators.tumbling_window(
        "agg",
        chains,
        window_s,
        compute_fn=lambda values: sum(values) / len(values),
        duration_fn=duration_fn,
        bytes_per_element=64.0,
    )
    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    return plane, operators, valves


def run_plane_campaign(events_target: int):
    """Run one plane campaign sized to ``events_target`` stream events.

    Campaign length scales with the target while per-window element counts
    stay constant (same sensors, same rate), so per-event cost across
    campaign sizes compares like with like.
    """
    duration = events_target / (SENSORS * RATE_HZ)
    engine = SimulationEngine()
    plane, operators, valves = _build_plane(engine)
    sensors = [
        SensorSource(
            engine,
            source.stream,
            name=source.name,
            period_s=1.0 / RATE_HZ,
            until=duration,
            seed=7 + i,
            batch=EMIT_BATCH,
            valve=valve,
        )
        for i, (source, valve) in enumerate(zip(operators.sources, valves))
    ]
    for sensor in sensors:
        sensor.start()
    plane.start()
    plane.close_sources_at(duration + WINDOW_S)
    wall_start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - wall_start
    stats = plane.stats()
    events = stats["elements_ingested"]
    assert events >= events_target  # campaign actually reached the target
    assert sum(s.produced for s in sensors) == events  # nothing lost
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
        "us_per_event": wall / events * 1e6,
        "windows_closed": stats["windows_closed"],
        "tasks_lowered": stats["tasks_lowered"],
        "engine_events": engine.dispatched_events,
        "retained_high_water": stats["retained_high_water"],
        "buffered_high_water": stats["buffered_high_water"],
        "mean_latency_s": plane.mean_latency("agg"),
    }


def _merge_results(updates: dict) -> None:
    merge_results(RESULTS_PATH, {"experiment": "streaming", **updates})


def run_throughput_suite():
    # Warm-up run (discarded): first-touch allocation and import costs
    # would otherwise inflate the smallest campaign's per-event price.
    run_plane_campaign(10_000)
    targets = throughput_targets()
    runs = {target: [] for target in targets}
    for _ in range(REPEATS):
        for target in targets:
            gc.collect()
            gc.disable()
            try:
                runs[target].append(run_plane_campaign(target))
            finally:
                gc.enable()
    return [
        sorted(runs[target], key=lambda run: run["us_per_event"])[REPEATS // 2]
        for target in targets
    ]


def test_dataflow_plane_flat_per_event_cost(benchmark):
    points = run_once(benchmark, run_throughput_suite)
    rows = [
        (
            f"{p['events']:,}",
            p["us_per_event"],
            p["events_per_sec"],
            p["engine_events"],
            p["windows_closed"],
            p["retained_high_water"],
        )
        for p in points
    ]
    print_table(
        "Dataflow plane: per-event cost across campaign sizes",
        ["events", "us/event", "events/s", "engine_events", "windows", "retained_hw"],
        rows,
    )
    costs = [p["us_per_event"] for p in points]
    spread = max(costs) / min(costs)
    # Flat per-event cost: scaling the campaign 100k -> 1M must not change
    # the per-event price (no O(history) rescans, no unbounded buffers).
    assert spread <= SPREAD_CEILING, f"per-event cost spread {spread:.2f}"
    # Absolute production-rate floor (CI smoke gate).
    for p in points:
        assert p["events_per_sec"] >= EVENTS_PER_SEC_FLOOR, (
            f"{p['events_per_sec']:,.0f} events/s under floor "
            f"{EVENTS_PER_SEC_FLOOR:,.0f}"
        )
    # Memory is watermark-bounded: retained/buffered high-water must not
    # scale with campaign length (satellite: RSS-flat streams).
    for key in ("retained_high_water", "buffered_high_water"):
        values = [p[key] for p in points]
        assert max(values) / max(1, min(values)) <= MEMORY_SPREAD_CEILING, (
            f"{key} grew with campaign length: {values}"
        )
    # Batched ingestion collapses the event queue: one engine event per
    # emitted batch plus the window closes and their tasks, nowhere near
    # one per element.
    for p in points:
        assert p["engine_events"] / p["events"] < 2.0 / EMIT_BATCH
    _merge_results(
        {
            "scale": bench_scale(),
            "throughput": {
                "rate_hz": RATE_HZ,
                "sensors": SENSORS,
                "emit_batch": EMIT_BATCH,
                "window_s": WINDOW_S,
                "spread": spread,
                "spread_ceiling": SPREAD_CEILING,
                "events_per_sec_floor": EVENTS_PER_SEC_FLOOR,
                "campaigns": points,
            },
        }
    )


# ---------------------------------------------------------------------------
# E14: result freshness — streaming windows vs one campaign-long window
# ---------------------------------------------------------------------------


def run_latency_campaign(campaign_s: float, window_s: float):
    """One E14 campaign on the plane: 1 element/s aggregate across the
    sensors, windows of ``window_s``, 0.05 s of compute per element."""
    engine = SimulationEngine()
    plane, operators, _valves = _build_plane(
        engine, window_s=window_s, duration_fn=lambda count: 0.05 * max(1, count)
    )
    for i, source in enumerate(operators.sources):
        SensorSource(
            engine,
            source.stream,
            name=source.name,
            period_s=float(SENSORS),
            until=campaign_s,
            seed=7 + i,
        ).start(at=float(i))
    plane.start()
    plane.close_sources_at(campaign_s + window_s)
    engine.run()
    return plane


def run_all():
    """``{campaign: (streaming plane, batch plane)}``; the batch window ends
    just past the campaign's last reading, so it closes exactly once."""
    return {
        c: (run_latency_campaign(c, WINDOW_S), run_latency_campaign(c, c + 1e-6))
        for c in CAMPAIGNS
    }


def test_streaming_latency_flat_batch_latency_grows(benchmark):
    results = run_once(benchmark, run_all)
    points = {}
    for campaign, (streaming, batch) in results.items():
        (batch_result,) = batch.results_of("agg")
        points[campaign] = {
            "stream_mean_latency_s": streaming.mean_latency("agg"),
            "stream_max_latency_s": streaming.max_latency("agg"),
            "batch_latency_s": batch_result.worst_element_latency,
            "events": streaming.elements_ingested,
            "windows": streaming.windows_closed,
        }
        # Both sides process every element.
        assert batch_result.element_count == batch.elements_ingested
        assert streaming.elements_ingested == batch.elements_ingested == sum(
            r.element_count for r in streaming.results_of("agg")
        )
    print_table(
        "E14: result freshness — streaming windows vs end-of-campaign batch",
        ["campaign", "stream_mean_s", "stream_max_s", "batch_latency_s", "elements", "windows"],
        [(f"{campaign:.0f}s", *point.values()) for campaign, point in points.items()],
    )
    stream_max = [p["stream_max_latency_s"] for p in points.values()]
    batch_latency = [p["batch_latency_s"] for p in points.values()]
    # Streaming latency is window-bounded and flat across campaign lengths:
    # lowering windows through the full task runtime (placement, locality,
    # content keys) keeps interactivity...
    assert all(latency <= WINDOW_S for latency in stream_max)
    assert max(stream_max) - min(stream_max) < 1.0
    # ...batch latency grows with the campaign.
    assert batch_latency == sorted(batch_latency)
    assert batch_latency[-1] > 100 * max(stream_max)
    _merge_results(
        {
            "e14_latency": {
                f"{campaign:.0f}": point for campaign, point in points.items()
            }
        }
    )
