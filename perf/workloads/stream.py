"""Sensor campaign through the dataflow plane: the streams layer alone.

Four sensors at 250 Hz, emission batch 50, map -> filter -> 5 s tumbling
window.  ``streams.*`` does the work (per-element ingest, bucketing, window
close, watermark pruning); executor, graph and scheduler only see the few
hundred window tasks, so a placement change must not move this workload and
a telemetry budget is judged here.
"""

from repro.core.graph import TaskGraph
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import CreditValve, DataflowPlane, OperatorGraph, SensorSource

SENSORS = 4
RATE_HZ = 250.0
EMIT_BATCH = 50
WINDOW_S = 5.0
#: Credits per source: three windows' worth, so the valve's admit/grant path
#: runs on every batch but never starves (a spilled element would be a
#: failed operation).
CREDITS = int(3 * WINDOW_S * RATE_HZ)


def _scale(value):
    return value * 100.0


def _positive(value):
    return value > 0.0


def _mean(values):
    return sum(values) / len(values)


def setup(seed, size):
    return {
        "seed": seed,
        "duration": size["elements"] / (SENSORS * RATE_HZ),
        "platform": make_fog_platform(num_edge=0, num_fog=1, num_cloud=1),
    }


def run(state, phase):
    duration = state["duration"]
    with phase("construct"):
        engine = SimulationEngine()
        executor = SimulatedExecutor(
            TaskGraph(),
            state["platform"],
            policy=LoadBalancingPolicy(),
            engine=engine,
            locations=DataLocationService(),
        )
        operators = OperatorGraph("perf-flow")
        valves = [CreditValve(CREDITS, policy="spill") for _ in range(SENSORS)]
        chains = [
            operators.source(f"sensor-{s}", valve=valves[s])
            .map(f"scale-{s}", _scale)
            .filter(f"qc-{s}", _positive)
            for s in range(SENSORS)
        ]
        operators.tumbling_window(
            "agg", chains, WINDOW_S, compute_fn=_mean, bytes_per_element=64.0
        )
        plane = DataflowPlane(operators, executor, ingest_node="fog-0")
        sensors = [
            SensorSource(
                engine,
                source.stream,
                name=source.name,
                period_s=1.0 / RATE_HZ,
                until=duration,
                seed=state["seed"] * 1000 + index,
                batch=EMIT_BATCH,
                valve=valves[index],
            )
            for index, source in enumerate(operators.sources)
        ]
        for sensor in sensors:
            sensor.start()
        plane.start()
        plane.close_sources_at(duration + WINDOW_S)
    with phase("run"):
        engine.run()
    return {"engine": engine, "executor": executor, "plane": plane, "sensors": sensors}


def check(state, out, seconds):
    plane, executor = out["plane"], out["executor"]
    stats = plane.stats()
    produced = sum(sensor.produced for sensor in out["sensors"])
    ingested = stats["elements_ingested"]
    results = plane.results_of("agg")
    windowed = sum(result.element_count for result in results)
    tasks_bad = sum(1 for t in executor.graph.tasks if t.state.name != "DONE")
    # Every reading is positive, so nothing is filtered: each one must be
    # ingested and must reach exactly one window result.
    lost = max(produced - ingested, produced - windowed, 0)
    lost += stats["dropped"] + stats["spilled"]
    events = out["engine"].dispatched_events
    return {
        "ops": ingested,
        "attempted": produced,
        "failed": lost + tasks_bad,
        "events": events,
        "digest": {
            "produced": produced,
            "windows": stats["windows_closed"],
            "lowered": stats["tasks_lowered"],
            "events": events,
            "values": [(r.window_start, r.element_count, r.value) for r in results],
            "mean_latency": plane.mean_latency("agg"),
            "max_latency": plane.max_latency("agg"),
        },
        "layers": {
            "streams.dataflow.windows_closed": stats["windows_closed"],
            "streams.dataflow.tasks_lowered": stats["tasks_lowered"],
            "streams.dataflow.retained_high_water": stats["retained_high_water"],
            "streams.dataflow.buffered_high_water": stats["buffered_high_water"],
            "streams.dataflow.engine_events_per_element": events / max(1, ingested),
        },
    }
