"""Hybrid stream campaign: operator dataflows lowered into zone executors.

The long-running workload the dataflow plane exists for (§I, §III —
sensors stream in, scientists want results streamed out, and the same
runtime runs the batch stages).  Each zone runs:

* ``sensors_per_zone`` edge sensors emitting in batches through per-sensor
  credit valves (drop or spill on starvation);
* an operator graph — per-sensor calibrate/QC chains fanning into a
  tumbling aggregation window, a keyed join across the first two sensors,
  and a batch recalibration stage every ``batch_every`` windows whose
  output *feeds back* into the QC threshold (streams feed batch, batch
  feeds streams);
* a :class:`~repro.streams.dataflow.DataflowPlane` lowering every window
  close into the zone's :class:`SimulatedExecutor` — window tasks ride
  the same placement/locality/content-key machinery as any batch DAG;
* a cross-zone digest ring paying the WAN latency, so the campaign
  exercises the sharded/parallel engines' window protocol.

The same ``{zone: factory}`` programs run on all three engines with
byte-identical results (asserted through per-zone outcome CRCs).
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.graph import TaskGraph
from repro.simulation.random import DeterministicRandom
from repro.streams import CreditValve, DataflowPlane, OperatorGraph, SensorSource
from repro.workloads.zonal import (
    make_zonal_network,
    run_campaign,
    start_ring_report,
    zone_executor,
    zone_programs,
)
from repro.workloads.zones import zone_name


@dataclass(frozen=True)
class HybridStreamConfig:
    """One hybrid campaign: per-zone dataflows + cross-zone digest ring."""

    zones: int = 2
    sensors_per_zone: int = 4
    #: Nominal readings per second per sensor.
    rate_hz: float = 10.0
    #: Readings published per engine event (the flat-cost lever).
    batch: int = 16
    window_s: float = 5.0
    duration_s: float = 120.0
    #: Credits per sensor valve (elements in flight before the policy bites).
    credits: int = 4096
    overflow: str = "spill"
    #: Window results per batch recalibration task.
    batch_every: int = 6
    nodes_per_zone: int = 2
    cores_per_node: int = 4
    inter_zone_latency_s: float = 0.25
    digest_interval_s: float = 20.0
    jitter: float = 0.1
    bytes_per_element: float = 64.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.overflow not in ("drop", "spill"):
            raise ValueError(f"unknown overflow policy {self.overflow!r} (drop, spill)")


#: Inter-zone topology: the zonal one (a gateway per zone, WAN default links).
make_hybrid_stream_network = make_zonal_network


def _hybrid_zone_program(cfg: HybridStreamConfig, index: int, api):
    """One zone's program: sensors + operator graph + plane + digest ring."""
    zone = zone_name(index)
    graph = TaskGraph()
    executor = zone_executor(api, cfg, index, graph)
    operators = OperatorGraph(f"{zone}-flow")
    # Batch->stream feedback cell: the recalibration stage retunes the
    # QC threshold mid-campaign (deterministic, so engines agree).
    qc_threshold = [95.0]
    sensors = []
    chains = []
    zone_rng = DeterministicRandom(cfg.seed, "hybrid").fork(f"zone:{index}")
    for s in range(cfg.sensors_per_zone):
        valve = CreditValve(cfg.credits, policy=cfg.overflow)
        src = operators.source(f"sensor-{s}", valve=valve)
        chain = src.map(f"calib-{s}", lambda v: v * 100.0).filter(
            f"qc-{s}", lambda v: v >= qc_threshold[0]
        )
        chains.append(chain)
        sensors.append(
            SensorSource(
                api,
                src.stream,
                name=f"{zone}-sensor-{s}",
                period_s=1.0 / cfg.rate_hz,
                jitter=cfg.jitter,
                until=cfg.duration_s,
                seed=zone_rng.fork(f"sensor:{s}").seed,
                batch=cfg.batch,
                valve=valve,
            )
        )
    window = operators.tumbling_window(
        "agg",
        chains,
        cfg.window_s,
        compute_fn=lambda values: sum(values) / len(values),
        bytes_per_element=cfg.bytes_per_element,
    )
    if cfg.sensors_per_zone >= 2:
        operators.keyed_join(
            "pair",
            chains[0],
            chains[1],
            cfg.window_s,
            key_fn=lambda v: int(v) & 3,
            join_fn=lambda key, left, right: (key, len(left), len(right)),
            bytes_per_element=cfg.bytes_per_element,
        )
    recal = window.batch_every(
        "recal",
        cfg.batch_every,
        fn=lambda results: sum(r.element_count for r in results),
    )
    recal.output.subscribe(
        lambda el: qc_threshold.__setitem__(
            0, 95.0 + (el.value.value % 7) * 0.1
        )
    )
    plane = DataflowPlane(operators, executor, ingest_node=f"{zone}-n0")
    for sensor in sensors:
        sensor.start()
    plane.start()
    # Sources close one window past the horizon so the final window's
    # close event (scheduled at setup, same-timestamp but earlier
    # sequence) still finds live streams when they coincide.
    plane.close_sources_at(cfg.duration_s + cfg.window_s)
    start_ring_report(
        api,
        cfg,
        index,
        cfg.digest_interval_s,
        ("peer-digest", "stream-digest"),
        lambda: {
            "crc": zlib.crc32(
                pickle.dumps((zone, plane.windows_closed, plane.elements_ingested))
            )
        },
        lambda: api.now + cfg.digest_interval_s <= cfg.duration_s + 1e-9,
    )

    def result() -> Dict[str, Any]:
        report = executor.report()
        task_records = sorted(
            executor.log.rows("label", "state", "start", "end", "nodes", "cache_key")
        )
        window_records = [
            (r.window_start, r.window_end, r.completed_at, repr(r.value))
            for r in plane.results_of("agg")
        ]
        digest = zlib.crc32(pickle.dumps((task_records, window_records)))
        stats = plane.stats()
        return {
            "zone": zone,
            "produced": sum(s.produced for s in sensors),
            "emitted": sum(s.emitted for s in sensors),
            "stream_events": stats["elements_ingested"],
            "dropped": stats["dropped"],
            "spilled": stats["spilled"],
            "windows_closed": stats["windows_closed"],
            "tasks_lowered": stats["tasks_lowered"],
            "batch_tasks": stats["batch_tasks"],
            "late_elements": stats["late_elements"],
            "buffered_high_water": stats["buffered_high_water"],
            "retained_high_water": stats["retained_high_water"],
            "mean_latency_s": plane.mean_latency("agg"),
            "max_latency_s": plane.max_latency("agg"),
            "tasks_done": report.tasks_done,
            "makespan_s": report.makespan,
            "events": api.dispatched_events,
            "outcome_crc32": digest,
        }

    return result


def make_hybrid_stream_programs(cfg: HybridStreamConfig) -> Dict[str, Any]:
    """``{zone: factory}`` programs for the sharded/parallel engines."""
    return zone_programs(cfg, _hybrid_zone_program)


def run_hybrid_stream(
    cfg: HybridStreamConfig, engine: str = "single", workers: int = 2
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the campaign on the chosen engine; returns (result, stats).

    Same programs on ``single`` (one inline lane), ``sharded`` (sequential
    lookahead reference), or ``parallel`` (forked lanes) — byte-identical
    deterministic results on all three.
    """
    ordered, dispatched, stats = run_campaign(
        cfg, make_hybrid_stream_programs(cfg), engine, workers
    )
    zones = list(ordered.values())
    result = {
        "workload": "hybrid_stream",
        "zones": cfg.zones,
        "sensors": cfg.zones * cfg.sensors_per_zone,
        "rate_hz": cfg.rate_hz,
        "batch": cfg.batch,
        "window_s": cfg.window_s,
        "duration_s": cfg.duration_s,
        "credits": cfg.credits,
        "overflow": cfg.overflow,
        "produced": sum(z["produced"] for z in zones),
        "stream_events": sum(z["stream_events"] for z in zones),
        "stream_dropped": sum(z["dropped"] for z in zones),
        "stream_spilled": sum(z["spilled"] for z in zones),
        "windows_closed": sum(z["windows_closed"] for z in zones),
        "tasks_lowered": sum(z["tasks_lowered"] for z in zones),
        "batch_tasks": sum(z["batch_tasks"] for z in zones),
        "tasks_done": sum(z["tasks_done"] for z in zones),
        "mean_latency_s": sum(z["mean_latency_s"] for z in zones) / len(zones),
        "max_latency_s": max(z["max_latency_s"] for z in zones),
        "retained_high_water": max(z["retained_high_water"] for z in zones),
        "events": dispatched,
        "per_zone": ordered,
    }
    return result, stats
