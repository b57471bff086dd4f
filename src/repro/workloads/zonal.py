"""Multi-zone E1-style workload decomposed into per-zone programs.

The classic E1 workloads (GUIDANCE on one cluster) have a *central*
scheduler: any completion anywhere can trigger a dispatch anywhere, so the
true lookahead between zones is zero and they run on one single-queue
timeline.  The continuum deployments the paper targets (§V, fog-to-
cloud) are shaped differently: each zone runs its own workload on its own
resources and zones interact only over the WAN — which is exactly the
decomposition the conservative-lookahead engines exploit.

This module builds that shape: ``zones`` independent E1-style layered DAGs,
each executed by its own :class:`SimulatedExecutor` on a zone-local cluster,
with a ring of cross-zone progress reports paying the inter-zone latency.
The same ``{zone: factory}`` programs run on any of the three engines
(:func:`run_zonal`), and because each zone's stream is deterministic and
zone-local, all three produce byte-identical results.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from repro.executor.simulated import SimulatedExecutor
from repro.infrastructure.cluster import make_hpc_cluster
from repro.infrastructure.network import Link, NetworkTopology
from repro.scheduling.locations import DataLocationService
from repro.scheduling.policies import LoadBalancingPolicy
from repro.simulation.parallel import run_zone_programs
from repro.simulation.random import DeterministicRandom
from repro.workloads.synthetic import layered_random_dag
from repro.workloads.zones import zone_name


@dataclass(frozen=True)
class ZonalConfig:
    """One multi-zone campaign: ``zones`` independent zone-local DAG runs."""

    zones: int = 4
    nodes_per_zone: int = 8
    cores_per_node: int = 8
    tasks_per_zone: int = 2400
    duration_median_s: float = 2.0
    duration_sigma: float = 0.5
    #: WAN latency between zones — the conservative lookahead horizon.
    #: Larger latency = wider windows = fewer barriers; at 1.0 s the 4-zone
    #: default point runs ~160 windows with ~30 events per zone-window,
    #: which keeps barrier overhead well under the lane compute.
    inter_zone_latency_s: float = 1.0
    #: Ring progress-report period (zone i pings zone i+1).
    progress_interval_s: float = 25.0
    datum_bytes: float = 1e5
    seed: int = 42


def make_zonal_network(cfg) -> NetworkTopology:
    """The inter-zone topology: one gateway per zone, WAN default links.

    Zone-local traffic never touches this network — each zone program owns
    its own cluster platform — so one placed node per zone is enough to
    define the zones and their latency structure.  Serves every
    zone-program campaign: ``cfg`` is any config with ``zones`` and
    ``inter_zone_latency_s``.
    """
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=1e-4, bandwidth_bps=10e9 / 8),
        default_link=Link(latency_s=cfg.inter_zone_latency_s, bandwidth_bps=1e9 / 8),
    )
    for index in range(cfg.zones):
        network.add_node(f"{zone_name(index)}-gw", zone_name(index))
    return network


def zone_executor(api, cfg, index: int, graph):
    """A :class:`SimulatedExecutor` for ``graph`` on zone ``index``'s own
    cluster (``cfg.nodes_per_zone`` x ``cfg.cores_per_node``), driven by the
    zone's ``api``."""
    platform = make_hpc_cluster(
        cfg.nodes_per_zone, cores_per_node=cfg.cores_per_node, name=zone_name(index)
    )
    return SimulatedExecutor(
        graph,
        platform,
        policy=LoadBalancingPolicy(),
        engine=api,
        locations=DataLocationService(),
    )


def start_ring_report(api, cfg, index: int, interval_s, labels, fields, keep_going):
    """The cross-zone ring every zone program carries: every ``interval_s``
    zone ``index`` sends ``{"zone": its name, **fields()}`` to zone ``index +
    1``, paying ``cfg.inter_zone_latency_s``, and logs what its predecessor
    sent as ``(tag, *payload values)``.  ``labels`` is ``(tag, send
    label)``; ``keep_going()`` is asked after each send — a zone that stops
    answering yes goes quiet, which is what lets the run quiesce."""
    zone = zone_name(index)
    peer = zone_name((index + 1) % cfg.zones)
    tag, send_label = labels
    api.on_message(lambda payload: api.log((tag, *payload.values())))

    def ping() -> None:
        payload = {"zone": zone, **fields()}
        api.send(peer, payload, delay=cfg.inter_zone_latency_s, label=send_label)
        if keep_going():
            api.after(interval_s, ping)

    if cfg.zones > 1:
        api.after(interval_s, ping)


def zone_programs(cfg, program) -> Dict[str, Any]:
    """``{zone: factory}`` for every zone of ``cfg``, ``factory(api)`` being
    ``program(cfg, index, api)``: a partial of a module-level function over
    plain config, so fork lanes inherit it cheaply and nothing but channel
    messages is pickled."""
    return {zone_name(i): partial(program, cfg, i) for i in range(cfg.zones)}


def run_campaign(cfg, programs: Dict[str, Any], engine: str, workers: int):
    """``run_zone_programs`` of ``{zone: factory}`` programs over ``cfg``'s
    zonal network: ``(per_zone, events, stats)``."""
    return run_zone_programs(make_zonal_network(cfg), programs, engine, workers)


def _layers(cfg: ZonalConfig) -> List[int]:
    """Split the zone's task budget into cluster-width layers."""
    width = max(1, cfg.nodes_per_zone * cfg.cores_per_node)
    layers: List[int] = []
    remaining = cfg.tasks_per_zone
    while remaining > 0:
        take = min(width, remaining)
        layers.append(take)
        remaining -= take
    return layers


def _zone_program(cfg: ZonalConfig, index: int, api):
    """One zone's program: local DAG + executor + ring progress reports."""
    zone = zone_name(index)
    seed = DeterministicRandom(cfg.seed, "zonal").fork(f"zone:{index}").seed
    builder = layered_random_dag(
        _layers(cfg),
        seed=seed,
        duration_median=cfg.duration_median_s,
        duration_sigma=cfg.duration_sigma,
        datum_bytes=cfg.datum_bytes,
    )
    executor = zone_executor(api, cfg, index, builder.graph)
    start_ring_report(
        api,
        cfg,
        index,
        cfg.progress_interval_s,
        ("peer-progress", "progress"),
        lambda: {"done": executor.graph.completed_count},
        # Reschedule only while the local workload is live.
        lambda: not executor.graph.finished,
    )
    executor.prime()

    def result() -> Dict[str, Any]:
        report = executor.report()
        rows = executor.log.rows("label", "state", "start", "end", "nodes")
        digest = zlib.crc32(pickle.dumps(sorted(rows)))
        return {
            "zone": zone,
            "tasks_done": report.tasks_done,
            "tasks_failed": report.tasks_failed,
            "makespan_s": report.makespan,
            "bytes_transferred": report.bytes_transferred,
            "events": api.dispatched_events,
            "outcome_crc32": digest,
        }

    return result


def make_zone_programs(cfg: ZonalConfig) -> Dict[str, Any]:
    """``{zone: factory}`` programs for the parallel/sharded engines."""
    return zone_programs(cfg, _zone_program)


def run_zonal(
    cfg: ZonalConfig, engine: str = "parallel", workers: int = 2
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the campaign on the chosen engine; returns (result, stats).

    ``engine`` names the driver (``single``, ``sharded`` or ``parallel``,
    see :func:`repro.simulation.parallel.run_zone_programs`) — same
    programs, byte-identical deterministic results on all three.
    ``result`` carries only seed-determined fields; ``stats`` carries the
    non-deterministic execution metrics (empty for ``sharded``).
    """
    ordered, dispatched, stats = run_campaign(
        cfg, make_zone_programs(cfg), engine, workers
    )
    result = {
        "workload": "zonal",
        "zones": cfg.zones,
        "tasks_done": sum(z["tasks_done"] for z in ordered.values()),
        "tasks_failed": sum(z["tasks_failed"] for z in ordered.values()),
        "makespan_s": max(z["makespan_s"] for z in ordered.values()),
        "bytes_transferred": sum(z["bytes_transferred"] for z in ordered.values()),
        "events": dispatched,
        "per_zone": ordered,
    }
    return result, stats
