"""Streaming sensors across the continuum (§I/§III).

Run:  python examples/sensor_streaming.py

Three jittery edge sensors stream readings into one tumbling window of an
operator graph, which the dataflow plane lowers into the task runtime — one
task per window, placed like any other task; per-window anomaly summaries
stream out while the campaign runs, and a live monitor prints them as they
appear — the "results streamed out for monitoring ... to enable
interactivity" the paper motivates.  The same graph with one window as long
as the campaign is the fragmented collect-then-compute alternative, and
shows what it costs in result freshness.
"""

from repro.core.graph import TaskGraph
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import DataflowPlane, OperatorGraph, SensorSource

CAMPAIGN_S = 120.0
WINDOW_S = 10.0


def anomaly_summary(values):
    mean = sum(values) / len(values)
    spikes = sum(1 for v in values if v > 1.5)
    return {"mean": round(mean, 3), "spikes": spikes, "n": len(values)}


def reading(seq, rng):
    base = 1.0 + 0.1 * (rng.random() - 0.5)
    # Occasional spikes (a misbehaving instrument).
    return base + (1.0 if rng.random() < 0.05 else 0.0)


def campaign(window_s, monitor=None):
    """Run the campaign with windows of ``window_s``; returns its results."""
    engine = SimulationEngine()
    executor = SimulatedExecutor(
        TaskGraph(),
        make_fog_platform(num_edge=3, num_fog=1, num_cloud=1),
        policy=LoadBalancingPolicy(),
        engine=engine,
        locations=DataLocationService(),
    )
    operators = OperatorGraph("campaign")
    sources = [operators.source(f"edge-{index}") for index in range(3)]
    for index, source in enumerate(sources):
        SensorSource(
            engine, source.stream, name=f"edge-{index}", period_s=1.0,
            jitter=0.2, until=CAMPAIGN_S, seed=index, reading_fn=reading,
        ).start(at=index * 0.1)
    window = operators.tumbling_window(
        "summary", sources, window_s, compute_fn=anomaly_summary,
        duration_fn=lambda count: 0.05 * count,
    )
    if monitor is not None:
        window.output.subscribe(monitor)
    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    plane.start()
    plane.close_sources_at(CAMPAIGN_S + window_s)
    engine.run()
    return plane.results_of("summary")


def main():
    # The "scientist's monitor": prints results the moment they stream out.
    print(f"Live monitor (window={WINDOW_S:.0f}s, campaign={CAMPAIGN_S:.0f}s):")
    results = campaign(
        WINDOW_S,
        monitor=lambda element: print(
            f"  t={element.timestamp:7.2f}s  window result: {element.value.value}"
        ),
    )
    freshness = sum(r.latency for r in results) / len(results)
    print(f"\nStreaming: {len(results)} window results, "
          f"mean freshness {freshness:.2f}s")

    # The fragmented alternative: one window that ends just past the last
    # reading, so it closes once — after the whole campaign.
    (batch,) = campaign(CAMPAIGN_S + 1e-6)
    print(
        f"Batch    : one result, oldest data {batch.worst_element_latency:.0f}s "
        f"stale ({batch.value})"
    )


if __name__ == "__main__":
    main()
