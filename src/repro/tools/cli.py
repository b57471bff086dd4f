"""The ``repro`` command-line interface.

Usage (also via ``python -m repro``)::

    python -m repro info
    python -m repro simulate --workload guidance --nodes 16 --policy locality
    python -m repro simulate --workload nmmb --days 4 --nodes 6
    python -m repro analyze --workload guidance --chunks 8
    python -m repro run-text path/to/workflow.txt --nodes 4
    python -m repro sweep --scenarios scenarios.json --workers 4 --out merged.json

``simulate`` executes a generated workload on a simulated cluster and prints
the report; ``analyze`` prints the workflow-model metrics (work, depth,
parallelism, speedup bounds); ``run-text`` executes a textual workflow
description (see :mod:`repro.frontends.text`); ``sweep`` fans a JSON list of
scenario dicts across worker processes (:mod:`repro.simulation.sweep`) and
writes the deterministic merged document — byte-identical for any worker
count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Any, List, Mapping, Optional

from repro import __version__
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.metrics.model import analyze_graph
from repro.scheduling import (
    DataLocationService,
    EnergyAwarePolicy,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
)
from repro.workloads import (
    ChurnConfig,
    GuidanceConfig,
    HybridStreamConfig,
    NmmbConfig,
    ZonalConfig,
    build_guidance_workflow,
    build_nmmb_workflow,
    embarrassingly_parallel,
    run_churn,
    run_churn_fleet,
    run_hybrid_stream,
    run_zonal,
    task_chain,
)

WORKLOADS = ("guidance", "nmmb", "ep", "chain", "churn", "hybrid_stream")
POLICIES = ("fifo", "load-balancing", "locality", "energy")
ENGINES = ("single", "sharded", "parallel")


def _require_one_timeline(workload: str, engine: str) -> None:
    """Static-graph workloads run on one ``SimulationEngine`` only.

    Their central scheduler reacts to any completion instantly, so the true
    inter-zone lookahead is zero and there is no window to run zone shards
    under; ``sharded`` and ``parallel`` name drivers of zone programs.
    """
    if engine != "single":
        raise SystemExit(
            f"--engine {engine} needs a zone-decomposed workload ({workload}'s "
            "central scheduler has zero inter-zone lookahead): 'zonal' in a "
            "sweep, 'hybrid_stream' or 'churn'"
        )


#: Declared options of the static-graph workloads, ``{workload: {option:
#: (type, default)}}`` — the flags of ``simulate``/``analyze``/``timeline``
#: and the keys of a sweep scenario are the same names, read by the one
#: :func:`_build_workload`.
GRAPH_OPTIONS = {
    "guidance": {"chromosomes": (int, 8), "chunks": (int, 8)},
    "nmmb": {"days": (int, 2)},
    "ep": {"tasks": (int, 100), "duration": (float, 10.0)},
    "chain": {"tasks": (int, 100), "duration": (float, 10.0)},
}


def _build_workload(name: str, source: Mapping[str, Any], seed: Optional[int] = None):
    """``(graph, initial_data)`` of a static-graph workload.

    ``source`` is ``vars(args)`` or a scenario dict; undeclared keys are
    ignored, missing ones take the declared default.  ``seed`` (the sweep's
    derived seed) replaces the workload's own where it has one.
    """
    if name == "churn":
        raise SystemExit(
            "churn is a live agent-plane workload (no static graph); "
            "it only works with 'repro simulate --workload churn'"
        )
    if name == "hybrid_stream":
        raise SystemExit(
            "hybrid_stream lowers its tasks at window closes (no static "
            "graph); it only works with 'repro simulate --workload "
            "hybrid_stream'"
        )
    if name not in GRAPH_OPTIONS:
        raise ValueError(f"unknown workload {name!r}")
    opts = {
        option: cast(source.get(option, default))
        for option, (cast, default) in GRAPH_OPTIONS[name].items()
    }
    if name == "guidance":
        built = build_guidance_workflow(
            GuidanceConfig(
                chromosomes=opts["chromosomes"],
                chunks_per_chromosome=opts["chunks"],
                **({} if seed is None else {"seed": seed}),
            )
        )
    elif name == "nmmb":
        built = build_nmmb_workflow(NmmbConfig(days=opts["days"]))
    else:
        build = embarrassingly_parallel if name == "ep" else task_chain
        built = build(opts["tasks"], duration=opts["duration"])
    return built.graph, built.initial_data


def _execute(graph, initial_data, nodes, cores_per_node, policy, dedupe):
    """Dedupe (optionally), build the cluster, run: the one executor path
    of ``simulate`` and the sweep runner.  Returns ``(executor, report,
    compile_stats)``; ``compile_stats`` is None without ``dedupe``."""
    compile_stats = None
    if dedupe:
        from repro.core.compile import compile_graph

        compiled = compile_graph(graph, initial_data)
        graph = compiled.graph
        compile_stats = compiled.stats
    platform = make_hpc_cluster(nodes, cores_per_node=cores_per_node)
    locations = DataLocationService()
    executor = SimulatedExecutor(
        graph,
        platform,
        policy=_make_policy(policy, locations),
        locations=locations,
        initial_data=initial_data,
    )
    return executor, executor.run(), compile_stats


def _make_policy(name: str, locations: DataLocationService):
    if name == "fifo":
        return FifoPolicy()
    if name == "load-balancing":
        return LoadBalancingPolicy()
    if name == "locality":
        return LocalityPolicy(locations)
    if name == "energy":
        return EnergyAwarePolicy()
    raise SystemExit(f"unknown policy {name!r}")


def cmd_info(args: argparse.Namespace, out) -> int:
    print(f"repro {__version__}", file=out)
    print(
        "Reproduction of 'Workflow Environments for Advanced "
        "Cyberinfrastructure Platforms' (ICDCS 2019)",
        file=out,
    )
    print(f"workloads: {', '.join(WORKLOADS)}", file=out)
    print(f"policies : {', '.join(POLICIES)}", file=out)
    return 0


def _cmd_simulate_churn(args: argparse.Namespace, out) -> int:
    """Churn has no static graph: it drives a live agent fleet instead of a
    SimulatedExecutor, so it gets its own simulate path."""
    cfg = ChurnConfig(
        agents=args.agents,
        zones=args.zones,
        churn_per_s=args.churn_rate,
        duration_s=args.sim_seconds,
        notification=args.notification,
        seed=args.seed,
    )
    if args.engine == "single":
        result = run_churn_fleet(cfg)
    else:
        # One bus is one timeline: the zone-program drivers run the
        # decomposed per-zone programs (byte-identical on all of them).
        result, _stats = run_churn(cfg, engine=args.engine, workers=args.zones)
    print(
        f"workload : churn ({result['mode']}, {args.agents} agents, "
        f"{args.zones} zones)",
        file=out,
    )
    print(
        f"churn    : {result['deaths']} deaths, {result['arrivals']} arrivals "
        f"@ {args.churn_rate * 100:.1f}%/s over {args.sim_seconds:.0f} s",
        file=out,
    )
    print(
        f"apps     : {result['apps_completed']} completed, "
        f"{result['apps_failed']} failed ({result['tasks_done']} tasks)",
        file=out,
    )
    print(
        f"recovery : {result['tasks_recovered']} tasks requeued, "
        f"{result['tasks_lost']} lost, {result['data_rehomed']} objects "
        f"re-homed (recovered-work fraction "
        f"{result['recovered_work_fraction']:.2f})",
        file=out,
    )
    print(f"engine   : {args.engine}", file=out)
    print(
        f"events   : {result['events']} dispatched, "
        f"{result['down_notices']} failure notices "
        f"({result['notification']} notification)",
        file=out,
    )
    return 0


def _cmd_simulate_hybrid_stream(args: argparse.Namespace, out) -> int:
    """Hybrid stream campaigns lower their tasks live (no static graph)."""
    cfg = HybridStreamConfig(
        zones=args.zones,
        sensors_per_zone=args.sensors,
        rate_hz=args.rate,
        batch=args.stream_batch,
        window_s=args.stream_window,
        duration_s=args.sim_seconds,
        credits=args.credits,
        overflow=args.overflow,
        seed=args.seed,
    )
    result, _stats = run_hybrid_stream(
        cfg, engine=args.engine, workers=args.zones
    )
    print(
        f"workload : hybrid_stream ({result['sensors']} sensors, "
        f"{args.zones} zones @ {args.rate:g} Hz)",
        file=out,
    )
    print(
        f"streams  : {result['stream_events']} events ingested "
        f"(batch {args.stream_batch}), {result['stream_dropped']} dropped, "
        f"{result['stream_spilled']} spilled ({result['overflow']} policy, "
        f"{args.credits} credits)",
        file=out,
    )
    print(
        f"windows  : {result['windows_closed']} closed -> "
        f"{result['tasks_lowered']} tasks lowered "
        f"({result['batch_tasks']} batch stages), "
        f"{result['tasks_done']} done",
        file=out,
    )
    print(
        f"latency  : {result['mean_latency_s'] * 1e3:.1f} ms mean, "
        f"{result['max_latency_s'] * 1e3:.1f} ms max after window close",
        file=out,
    )
    print(
        f"memory   : {result['retained_high_water']} elements retained "
        f"high-water (watermark pruning)",
        file=out,
    )
    print(f"engine   : {args.engine}", file=out)
    print(f"events   : {result['events']} dispatched", file=out)
    return 0


def cmd_simulate(args: argparse.Namespace, out) -> int:
    if args.workload == "churn":
        return _cmd_simulate_churn(args, out)
    if args.workload == "hybrid_stream":
        return _cmd_simulate_hybrid_stream(args, out)
    _require_one_timeline(args.workload, args.engine)
    graph, initial_data = _build_workload(args.workload, vars(args))
    _, report, compile_stats = _execute(
        graph,
        initial_data,
        args.nodes,
        args.cores_per_node,
        args.policy,
        args.dedupe,
    )
    print(f"workload : {args.workload} ({report.tasks_done} tasks)", file=out)
    print(f"platform : {args.nodes} nodes x {args.cores_per_node} cores", file=out)
    print(f"policy   : {args.policy}", file=out)
    print(f"engine   : {args.engine}", file=out)
    if compile_stats is not None:
        print(
            f"dedupe   : {compile_stats.tasks_in} -> {compile_stats.tasks_out} "
            f"tasks ({compile_stats.deduped} deduped, "
            f"{compile_stats.opted_out} opted out)",
            file=out,
        )
    print(f"makespan : {report.makespan:.1f} s ({report.makespan / 3600:.2f} h)", file=out)
    print(f"moved    : {report.bytes_transferred / 1e9:.2f} GB", file=out)
    print(f"energy   : {report.energy_joules / 3.6e6:.3f} kWh", file=out)
    if report.tasks_failed:
        print(f"FAILED   : {report.tasks_failed} tasks", file=out)
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    graph, _ = _build_workload(args.workload, vars(args))
    model = analyze_graph(graph)
    print(f"workload            : {args.workload}", file=out)
    print(f"tasks               : {model.task_count}", file=out)
    print(f"total work          : {model.total_work_s / 3600:.2f} core-hours", file=out)
    print(f"critical path       : {model.critical_path_s / 3600:.2f} h", file=out)
    print(f"average parallelism : {model.average_parallelism:.1f}", file=out)
    print(f"max width           : {model.max_width}", file=out)
    for cores in (48, 480, 4800):
        print(
            f"speedup bound @ {cores:5d} cores: {model.speedup_bound(cores):8.1f}",
            file=out,
        )
    return 0


def cmd_timeline(args: argparse.Namespace, out) -> int:
    from repro.metrics.gantt import render_gantt

    graph, initial_data = _build_workload(args.workload, vars(args))
    platform = make_hpc_cluster(args.nodes, cores_per_node=args.cores_per_node)
    SimulatedExecutor(graph, platform, initial_data=initial_data).run()
    print(render_gantt(graph, width=args.width), file=out)
    return 0


#: The zone-program workloads of a sweep scenario: ``{workload: (config
#: class, run, {scenario key: config field})}``.  A key the scenario leaves
#: out keeps the dataclass default; a present one is cast to its type.
ZONE_WORKLOADS = {
    "zonal": (
        ZonalConfig,
        run_zonal,
        {
            "zones": "zones",
            "nodes_per_zone": "nodes_per_zone",
            "cores_per_node": "cores_per_node",
            "tasks_per_zone": "tasks_per_zone",
            "duration_median": "duration_median_s",
            "inter_zone_latency": "inter_zone_latency_s",
            "progress_interval": "progress_interval_s",
        },
    ),
    "hybrid_stream": (
        HybridStreamConfig,
        run_hybrid_stream,
        {
            "zones": "zones",
            "sensors": "sensors_per_zone",
            "rate_hz": "rate_hz",
            "batch": "batch",
            "window": "window_s",
            "duration": "duration_s",
            "credits": "credits",
            "overflow": "overflow",
            "inter_zone_latency": "inter_zone_latency_s",
        },
    ),
    "churn": (
        ChurnConfig,
        run_churn,
        {
            "agents": "agents",
            "zones": "zones",
            "churn_per_s": "churn_per_s",
            "duration": "duration_s",
            "inter_zone_latency": "inter_zone_latency_s",
            "notification": "notification",
            "persistence": "persistence",
        },
    ),
}


def _with_run_stats(result: dict, stats: dict, counters: Optional[dict] = None) -> dict:
    """Attach the ``_stats`` channel (stripped by the sweep driver before
    merging) to a zone-program result: the runner's own ``counters`` plus,
    when lanes ran, the critical-path CPU cost of the run."""
    run_stats = dict(counters or {})
    if stats:
        run_stats["cpu_seconds"] = (
            stats["max_lane_cpu_seconds"] + stats["coordinator_cpu_seconds"]
        )
    if run_stats:
        result["_stats"] = run_stats
    return result


def simulate_scenario_runner(
    scenario: dict, seed: int, engine: str = "single", dedupe: bool = False
) -> dict:
    """Sweep runner: one ``simulate``-style run from a scenario dict.

    Module-level (worker processes resolve it by reference) and
    deterministic: the returned dict carries only seed-determined outcomes,
    never timing.  The derived ``seed`` replaces the workload's default so
    two scenarios differing only in ``key`` simulate different instances.

    ``engine`` replays the zone-program workloads (``zonal``,
    ``hybrid_stream``, decomposed ``churn`` — :data:`ZONE_WORKLOADS`) on
    another driver; static-graph workloads and fleet churn are one timeline
    and take ``single`` only.  It is bound with :func:`functools.partial`
    rather than injected into the scenario dict, so scenario keys — and
    therefore derived seeds and the merged document — are
    engine-independent: ``single``, ``sharded`` and ``parallel`` sweeps of
    the same zone programs are byte-identical, which ``tests/test_cli.py``
    asserts.  A scenario's own ``engine`` field, if present, wins over the
    flag.

    ``dedupe`` compiles the built graph through content-addressed dedup
    (:func:`repro.core.compile.compile_graph`) before execution; a
    scenario's own ``dedupe`` field wins over the flag.

    Anything non-deterministic or per-worker rides the reserved ``_stats``
    key, which the sweep driver strips into its stats block before merging:
    the compile/cache counters here, the stream counters and lane CPU cost
    via :func:`_with_run_stats`.
    """
    workload_name = scenario.get("workload", "guidance")
    engine = scenario.get("engine", engine)
    dedupe = bool(scenario.get("dedupe", dedupe))
    if workload_name in ZONE_WORKLOADS:
        config_cls, run, keys = ZONE_WORKLOADS[workload_name]
        kinds = {f.name: type(f.default) for f in dataclasses.fields(config_cls)}
        cfg = config_cls(
            seed=seed,
            **{
                field: kinds[field](scenario[key])
                for key, field in keys.items()
                if key in scenario
            },
        )
        if (
            workload_name == "churn"
            and scenario.get("mode", "fleet") == "fleet"
            and engine == "single"
        ):
            return run_churn_fleet(cfg)
        # Zone programs (for churn the decomposed ones: one bus is one
        # timeline, so only they can run on the other drivers).
        result, stats = run(
            cfg, engine=engine, workers=int(scenario.get("workers", 2))
        )
        # Per-scenario stream counters ride the _stats channel into the
        # sweep's per-run stats (summed by SweepStats.total).
        counters = ("stream_events", "stream_dropped", "stream_spilled", "windows_closed")
        return _with_run_stats(
            result, stats, {k: float(result[k]) for k in counters if k in result}
        )
    _require_one_timeline(workload_name, engine)
    graph, initial_data = _build_workload(workload_name, scenario, seed=seed)
    executor, report, compile_stats = _execute(
        graph,
        initial_data,
        int(scenario.get("nodes", 4)),
        int(scenario.get("cores_per_node", 48)),
        scenario.get("policy", "load-balancing"),
        dedupe,
    )
    result = {
        "workload": workload_name,
        "tasks_done": report.tasks_done,
        "tasks_failed": report.tasks_failed,
        "makespan_s": report.makespan,
        "bytes_transferred": report.bytes_transferred,
        "energy_joules": report.energy_joules,
        "events": executor.engine.dispatched_events,
    }
    if compile_stats is not None:
        # Deduped count is seed-determined (same scenario -> same graph ->
        # same merge), so it may live in the deterministic document; the
        # per-worker cache counters ride the stripped ``_stats`` channel.
        result["tasks_deduped"] = compile_stats.deduped
        result["_stats"] = compile_stats.as_stats()
    return result


def cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.simulation.sweep import run_sweep

    if args.scenarios == "-":
        scenarios = json.load(sys.stdin)
    else:
        with open(args.scenarios) as handle:
            scenarios = json.load(handle)
    if not isinstance(scenarios, list):
        raise SystemExit("--scenarios must be a JSON list of scenario objects")
    for scenario in scenarios:
        # Refused here rather than in a pool worker, which SystemExit kills.
        workload = scenario.get("workload", "guidance")
        if workload not in ZONE_WORKLOADS:
            _require_one_timeline(workload, scenario.get("engine", args.engine))
    runner = simulate_scenario_runner
    if args.engine != "single" or args.dedupe:
        # partial (module-level function + plain strings/bools) stays
        # picklable for forked workers, and — unlike injecting fields into
        # the scenario dicts — leaves scenario keys and derived seeds
        # untouched (the engine also leaves the merged document untouched;
        # --dedupe changes results by design: fewer scheduled tasks).
        runner = functools.partial(
            simulate_scenario_runner, engine=args.engine, dedupe=args.dedupe
        )
    result = run_sweep(
        scenarios,
        runner,
        workers=args.workers,
        base_seed=args.base_seed,
    )
    if args.out:
        result.write_merged(args.out)
    else:
        out.write(result.merged_json())
    stats = result.stats
    print(
        f"sweep    : {len(scenarios)} runs, {stats.workers} workers "
        f"({stats.cpus} cpus)",
        file=out,
    )
    print(f"wall     : {stats.wall_seconds:.2f} s", file=out)
    print(
        f"events/s : {stats.aggregate_events_per_sec('wall'):,.0f} wall-basis, "
        f"{stats.aggregate_events_per_sec('cpu'):,.0f} cpu-basis",
        file=out,
    )
    print(f"peak rss : {stats.max_peak_rss_kb / 1024:.0f} MB/worker", file=out)
    total = stats.total
    if total("stream_events"):
        print(
            f"streams  : {total('stream_events'):.0f} events, "
            f"{total('windows_closed'):.0f} windows closed, "
            f"{total('stream_dropped'):.0f} dropped, "
            f"{total('stream_spilled'):.0f} spilled",
            file=out,
        )
    if args.dedupe or total("cache_hits") or total("cache_skipped"):
        print(
            f"reuse    : {total('cache_hits'):.0f} hits, "
            f"{total('cache_skipped'):.0f} skipped, "
            f"{total('cache_evictions'):.0f} evictions",
            file=out,
        )
    return 0


def cmd_run_text(args: argparse.Namespace, out) -> int:
    from repro.frontends import parse_workflow_text

    with open(args.path) as handle:
        builder = parse_workflow_text(handle.read())
    platform = make_hpc_cluster(args.nodes, cores_per_node=args.cores_per_node)
    report = SimulatedExecutor(
        builder.graph, platform, initial_data=builder.initial_data
    ).run()
    print(f"tasks    : {report.tasks_done}", file=out)
    print(f"makespan : {report.makespan:.1f} s", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Simulate and analyze continuum workflows."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="library and capability summary")

    def add_workload_options(sub):
        sub.add_argument("--workload", choices=WORKLOADS, default="guidance")
        declared = {k: v for opts in GRAPH_OPTIONS.values() for k, v in opts.items()}
        for option, (cast, default) in declared.items():
            sub.add_argument(f"--{option}", type=cast, default=default)

    simulate = subparsers.add_parser("simulate", help="run a workload on a simulated cluster")
    add_workload_options(simulate)
    simulate.add_argument("--nodes", type=int, default=4)
    simulate.add_argument("--cores-per-node", type=int, default=48)
    churn_opts = simulate.add_argument_group("churn workload")
    churn_opts.add_argument("--agents", type=int, default=2000)
    churn_opts.add_argument("--zones", type=int, default=4)
    churn_opts.add_argument(
        "--churn-rate",
        type=float,
        default=0.01,
        help="fraction of the fleet dying (and arriving) per second",
    )
    churn_opts.add_argument("--sim-seconds", type=float, default=20.0)
    churn_opts.add_argument(
        "--notification",
        choices=("interest", "broadcast"),
        default="interest",
        help="failure-notification model (broadcast is the O(agents) reference)",
    )
    churn_opts.add_argument("--seed", type=int, default=42)
    stream_opts = simulate.add_argument_group(
        "hybrid_stream workload (shares --zones, --sim-seconds, --seed)"
    )
    stream_opts.add_argument(
        "--sensors", type=int, default=4, help="sensors per zone"
    )
    stream_opts.add_argument(
        "--rate", type=float, default=10.0, help="readings per second per sensor"
    )
    stream_opts.add_argument(
        "--stream-window", type=float, default=5.0, help="tumbling window (s)"
    )
    stream_opts.add_argument(
        "--stream-batch",
        type=int,
        default=16,
        help="readings published per engine event",
    )
    stream_opts.add_argument(
        "--credits",
        type=int,
        default=4096,
        help="backpressure credits per sensor valve",
    )
    stream_opts.add_argument(
        "--overflow",
        choices=("drop", "spill"),
        default="spill",
        help="policy when a source runs out of credits",
    )
    simulate.add_argument("--policy", choices=POLICIES, default="load-balancing")
    simulate.add_argument(
        "--engine",
        choices=ENGINES,
        default="single",
        help="zone-program driver for churn and hybrid_stream (results are "
        "engine-independent); static-graph workloads take 'single' only",
    )
    simulate.add_argument(
        "--dedupe",
        action="store_true",
        help="content-addressed compilation: merge identical subgraphs "
        "before execution (fewer scheduled tasks, same data products)",
    )

    analyze = subparsers.add_parser("analyze", help="print workflow-model metrics")
    add_workload_options(analyze)

    run_text = subparsers.add_parser("run-text", help="execute a textual workflow file")
    run_text.add_argument("path")
    run_text.add_argument("--nodes", type=int, default=4)
    run_text.add_argument("--cores-per-node", type=int, default=48)

    timeline = subparsers.add_parser(
        "timeline", help="simulate a workload and render an ASCII Gantt chart"
    )
    add_workload_options(timeline)
    timeline.add_argument("--nodes", type=int, default=4)
    timeline.add_argument("--cores-per-node", type=int, default=48)
    timeline.add_argument("--width", type=int, default=72)

    sweep = subparsers.add_parser(
        "sweep", help="fan scenario simulations across worker processes"
    )
    sweep.add_argument(
        "--scenarios",
        required=True,
        help="JSON file with a list of scenario dicts ('-' reads stdin)",
    )
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--base-seed", type=int, default=42)
    sweep.add_argument(
        "--engine",
        choices=ENGINES,
        default="single",
        help="replay the zone-program scenarios (zonal, hybrid_stream, "
        "churn) on this driver; the merged document is engine-independent",
    )
    sweep.add_argument(
        "--dedupe",
        action="store_true",
        help="compile every scenario's graph through content-addressed "
        "dedup before execution (cache counters land in the stats block)",
    )
    sweep.add_argument(
        "--out", default=None, help="write the merged document here (else stdout)"
    )

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "run-text": cmd_run_text,
        "timeline": cmd_timeline,
        "sweep": cmd_sweep,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
