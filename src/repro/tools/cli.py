"""The ``repro`` command-line interface: argument parsing and printing.

Usage (also via ``python -m repro``)::

    python -m repro info
    python -m repro simulate --workload guidance --nodes 16 --policy locality
    python -m repro simulate --workload zonal --zones 2 --engine parallel
    python -m repro analyze --workload guidance --chunks 8
    python -m repro run-text path/to/workflow.txt --nodes 4
    python -m repro sweep --scenarios scenarios.json --workers 4 --out merged.json

``simulate`` runs a workload and prints its report, ``analyze`` its
workflow-model metrics, ``timeline`` an ASCII Gantt chart; ``run-text``
executes a textual workflow (:mod:`repro.frontends.text`); ``sweep`` fans a
JSON list of scenario dicts across worker processes and writes the merged
document, byte-identical for any worker count (:mod:`repro.simulation.sweep`).

What a workload *is* lives in one table, :data:`repro.workloads.WORKLOADS`:
every command resolves ``--workload`` / a scenario's ``workload`` to a
:class:`~repro.workloads.table.Workload` record and shares one
:func:`resolve` → :func:`run` path.  ``--workload`` scopes the flags: the
record's options are the scenario keys *and* the flags (``inter_zone_latency``
↔ ``--inter-zone-latency``), typed and defaulted from the workload's config
dataclass, so ``simulate --workload W`` and the scenario ``{"workload": "W"}``
run the same thing.  Malformed input ends in ``repro <command>: <what, where>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Any, List, Mapping, Optional, Tuple

from repro import __version__
from repro.metrics.model import analyze_graph
from repro.scheduling import (
    DataLocationService,
    EnergyAwarePolicy,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
)
from repro.workloads import WORKLOADS, Workload, WorkloadError
from repro.workloads.table import DEFAULT_WORKLOAD, configure

ENGINES = ("single", "sharded", "parallel")
#: ``{policy name: locations -> policy}``.
POLICIES = {
    "fifo": lambda locations: FifoPolicy(),
    "load-balancing": lambda locations: LoadBalancingPolicy(),
    "locality": LocalityPolicy,
    "energy": lambda locations: EnergyAwarePolicy(),
}


@dataclasses.dataclass(frozen=True)
class RunSettings:
    """What a run needs beside its workload's config: the keys any scenario
    may carry next to its workload's options (``simulate`` has the flags)."""

    engine: str = "single"
    #: Lanes of a zone-program run under ``parallel``.
    workers: int = 2
    #: ``fleet`` or ``decomposed``, for a workload that has both assemblies.
    mode: str = "fleet"
    # The cluster a static graph runs on.
    nodes: int = 4
    cores_per_node: int = 48
    policy: str = "load-balancing"

    def __post_init__(self) -> None:
        for value, known in ((self.engine, ENGINES), (self.policy, POLICIES)):
            if value not in known:
                raise ValueError(f"{value!r} is not one of {', '.join(known)}")


RUN_KEYS = {f.name: f.name for f in dataclasses.fields(RunSettings)}


def resolve(
    scenario: Any, seed: Optional[int] = None, engine: str = "single"
) -> Tuple[Workload, Any, RunSettings]:
    """``(record, config, settings)`` of one scenario, or a
    :class:`WorkloadError` saying what is wrong with it.

    Every check of front-door input is made here, and ``sweep`` makes them
    before anything forks: the scenario is an object, its workload exists,
    each key is the workload's option or a :class:`RunSettings` field, each
    value casts to its type, the config accepts it, the engine can run it.
    A scenario's own ``engine`` wins over the flag's.
    """
    if not isinstance(scenario, Mapping):
        raise WorkloadError(f"a scenario is a JSON object, not {scenario!r}")
    name = scenario.get("workload", DEFAULT_WORKLOAD)
    if not isinstance(name, str) or name not in WORKLOADS:
        raise WorkloadError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    record = WORKLOADS[name]
    unknown = sorted(set(scenario) - {"key", "workload", *record.options, *RUN_KEYS})
    if unknown:
        raise WorkloadError(
            f"{record.name} has no option {', '.join(unknown)} (its options: "
            f"{', '.join(record.options)}; any scenario: key, workload, "
            f"{', '.join(RUN_KEYS)})"
        )
    settings = configure(RunSettings, RUN_KEYS, {"engine": engine, **scenario}, "run")
    cfg = record.configure(scenario, seed)
    record.as_zone_programs(cfg, settings.engine, settings.mode)
    return record, cfg, settings


def run_graph(built, nodes, cores_per_node, policy="fifo"):
    """Run a built workflow (``.graph``, ``.initial_data``) on one timeline —
    the cluster + executor construction of every command:
    ``(executor, report)``."""
    from repro.executor.simulated import SimulatedExecutor
    from repro.infrastructure.cluster import make_hpc_cluster

    locations = DataLocationService()
    executor = SimulatedExecutor(
        built.graph,
        make_hpc_cluster(nodes, cores_per_node=cores_per_node),
        policy=POLICIES[policy](locations),
        locations=locations,
        initial_data=built.initial_data,
    )
    return executor, executor.run()


def run(record: Workload, cfg: Any, settings: RunSettings) -> dict:
    """Execute a resolved scenario.  The result carries only seed-determined
    outcomes; what is non-deterministic or per-worker rides its reserved
    ``_stats`` key, which the sweep driver strips into its stats block before
    merging: the stream counters and, when lanes ran, their critical-path
    CPU cost."""
    if record.build is None:
        if not record.as_zone_programs(cfg, settings.engine, settings.mode):
            return record.fleet(cfg)
        result, stats = record.run(cfg, settings.engine, settings.workers)
        counters = ("stream_events", "stream_dropped", "stream_spilled", "windows_closed")
        run_stats = {k: float(result[k]) for k in counters if k in result}
        if stats:
            run_stats["cpu_seconds"] = (
                stats["max_lane_cpu_seconds"] + stats["coordinator_cpu_seconds"]
            )
        if run_stats:
            result["_stats"] = run_stats
        return result
    executor, report = run_graph(
        record.build(cfg), settings.nodes, settings.cores_per_node, settings.policy
    )
    return {
        "workload": record.name,
        "tasks_done": report.tasks_done,
        "tasks_failed": report.tasks_failed,
        "makespan_s": report.makespan,
        "bytes_transferred": report.bytes_transferred,
        "energy_joules": report.energy_joules,
        "events": executor.engine.dispatched_events,
    }


def simulate_scenario_runner(scenario: dict, seed: int, engine: str = "single") -> dict:
    """Sweep runner: one ``simulate``-style run from a scenario dict.

    Module-level (worker processes resolve it by reference) and deterministic
    (:func:`run`).  The derived ``seed`` goes to every config that has one, so
    two scenarios differing only in ``key`` simulate different instances.
    ``engine`` replays zone programs on another driver; as a parameter, not a
    scenario field, it leaves keys, derived seeds and the merged document
    alone: ``single``, ``sharded`` and ``parallel`` sweeps are byte-identical
    (``tests/test_cli.py``).
    """
    return run(*resolve(scenario, seed, engine))


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


def cmd_simulate(args: argparse.Namespace, out) -> int:
    # The flags project the scenario keys: they make a scenario, the sweep's path runs it.
    scenario = {k: v for k, v in vars(args).items() if k not in ("command", "seed")}
    record, cfg, settings = resolve(scenario, getattr(args, "seed", None))
    result = run(record, cfg, settings)
    if record.summary is not None:
        lines = record.summary(result, settings.engine)
    else:
        lines = [
            f"workload : {record.name} ({result['tasks_done']} tasks)",
            f"platform : {settings.nodes} nodes x {settings.cores_per_node} cores",
            f"policy   : {settings.policy}",
            f"engine   : {settings.engine}",
            f"makespan : {result['makespan_s']:.1f} s ({result['makespan_s'] / 3600:.2f} h)",
            f"moved    : {result['bytes_transferred'] / 1e9:.2f} GB",
            f"energy   : {result['energy_joules'] / 3.6e6:.3f} kWh",
        ]
    if result.get("tasks_failed"):
        lines.append(f"FAILED   : {result['tasks_failed']} tasks")
    print("\n".join(lines), file=out)
    return 1 if result.get("tasks_failed") else 0


def _build(args: argparse.Namespace):
    """The static graph ``analyze`` / ``timeline`` were asked for."""
    record = WORKLOADS[args.workload]
    return record.build(record.configure(vars(args)))


def cmd_analyze(args: argparse.Namespace, out) -> int:
    model = analyze_graph(_build(args).graph)
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

    executor, _ = run_graph(_build(args), args.nodes, args.cores_per_node)
    print(render_gantt(executor.log, width=args.width), file=out)
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.simulation.sweep import run_sweep, scenario_keys

    try:
        if args.scenarios == "-":
            scenarios = json.load(sys.stdin)
        else:
            with open(args.scenarios) as handle:
                scenarios = json.load(handle)
    except json.JSONDecodeError as err:
        raise WorkloadError(f"--scenarios is not valid JSON: {err}") from None
    if not isinstance(scenarios, list):
        raise WorkloadError("--scenarios must be a JSON list of scenario objects")
    for index, scenario in enumerate(scenarios):
        # Refused here, before anything forks, rather than in a pool worker.
        try:
            resolve(scenario, engine=args.engine)
        except WorkloadError as err:
            key = scenario.get("key", index) if isinstance(scenario, Mapping) else index
            raise WorkloadError(f"scenario {key!r}: {err}") from None
    try:
        scenario_keys(scenarios)
    except ValueError as err:
        raise WorkloadError(str(err)) from None
    # partial (module-level function + plain values) stays picklable for
    # forked workers and leaves scenario keys and derived seeds untouched.
    runner = functools.partial(simulate_scenario_runner, engine=args.engine)
    result = run_sweep(scenarios, runner, workers=args.workers, base_seed=args.base_seed)
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
    return 0


def cmd_run_text(args: argparse.Namespace, out) -> int:
    from repro.frontends import parse_workflow_text

    with open(args.path) as handle:
        builder = parse_workflow_text(handle.read())
    _, report = run_graph(builder, args.nodes, args.cores_per_node)
    print(f"tasks    : {report.tasks_done}", file=out)
    print(f"makespan : {report.makespan:.1f} s", file=out)
    return 0


def build_parser(workload_name: str = DEFAULT_WORKLOAD) -> argparse.ArgumentParser:
    """The parser for a command line whose ``--workload`` is ``workload_name``:
    that record's options are the workload flags, so another workload's flag
    is an argparse error.  They carry no type and no default: they are cast
    like scenario values, and the config's defaults apply."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Simulate and analyze continuum workflows."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # An unknown name gets the default's flags; argparse then refuses it.
    record = WORKLOADS.get(workload_name, WORKLOADS[DEFAULT_WORKLOAD])

    subparsers.add_parser("info", help="library and capability summary")

    def add_workload(sub, names):
        sub.add_argument("--workload", choices=names, default=DEFAULT_WORKLOAD)
        for option, field in record.options.items() if record.name in names else ():
            sub.add_argument("--" + option.replace("_", "-"), help=field)

    def add_cluster(sub):
        sub.add_argument("--nodes", type=int, default=RunSettings.nodes)
        sub.add_argument("--cores-per-node", type=int, default=RunSettings.cores_per_node)

    simulate = subparsers.add_parser("simulate", help="run a workload on a simulated cluster")
    add_workload(simulate, list(WORKLOADS))
    simulate.add_argument(
        "--engine",
        choices=ENGINES,
        help="zone-program driver (results are engine-independent); "
        "static-graph workloads take 'single' only",
    )
    if record.seeded:
        simulate.add_argument("--seed", type=int, help="replaces the config's seed")
    if record.build is not None:
        add_cluster(simulate)
        simulate.add_argument("--policy", choices=tuple(POLICIES))

    graphs = [name for name, w in WORKLOADS.items() if "build" in w.parts]
    analyze = subparsers.add_parser("analyze", help="print workflow-model metrics")
    add_workload(analyze, graphs)

    run_text = subparsers.add_parser("run-text", help="execute a textual workflow file")
    run_text.add_argument("path")
    add_cluster(run_text)

    timeline = subparsers.add_parser(
        "timeline", help="simulate a workload and render an ASCII Gantt chart"
    )
    add_workload(timeline, graphs)
    add_cluster(timeline)
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
        help="replay the zone-program scenarios on this driver; the merged "
        "document is engine-independent",
    )
    sweep.add_argument("--out", help="write the merged document here (else stdout)")
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    # Two passes: learn the workload, then parse with *its* options as flags.
    first = argparse.ArgumentParser(add_help=False)
    first.add_argument("--workload", default=DEFAULT_WORKLOAD)
    args = build_parser(first.parse_known_args(argv)[0].workload).parse_args(argv)
    handler = {
        "info": cmd_info,
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "run-text": cmd_run_text,
        "timeline": cmd_timeline,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return handler(args, out)
    except WorkloadError as err:
        raise SystemExit(f"repro {args.command}: {err}") from None
