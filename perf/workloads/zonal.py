"""Four zone-local DAGs under the multi-zone engines: windows and barriers.

The same ``{zone: program}`` set runs under ``run_zonal(engine="sharded")``
(sequential lookahead) and then ``engine="single"`` (the window protocol on
one inline lane); results must be identical.  This is the only traffic
through ``simulation.sharded`` and ``simulation.parallel``.  The ``fork``
variant runs the set once more on two forked lanes: the same result, and
wall figures that are reported but never gated (0.9-1.9 s for the same run
on a 2-core box).
"""

from repro.workloads import ZonalConfig, run_zonal

ZONES = 4
FORK_WORKERS = 2


def setup(seed, size):
    return {
        "config": ZonalConfig(
            zones=ZONES, tasks_per_zone=size["tasks_per_zone"], seed=seed
        ),
        "engines": size.get("engines", ("sharded", "single")),
    }


def run(state, phase):
    out = {}
    for engine in state["engines"]:
        with phase(engine):
            out[engine] = run_zonal(state["config"], engine=engine, workers=FORK_WORKERS)
    return out


def check(state, out, seconds):
    config = state["config"]
    tasks = config.zones * config.tasks_per_zone
    reference = next(iter(out.values()))[0]
    failed = 0
    events = 0
    layers = {}
    for engine, (result, stats) in out.items():
        failed += tasks - result["tasks_done"] + result["tasks_failed"]
        if result != reference:
            failed += tasks
        events += result["events"]
        if engine == "sharded":
            layers["simulation.sharded.run_s"] = seconds[engine]
            layers["simulation.sharded.events_per_s"] = result["events"] / seconds[engine]
        elif engine == "single":
            layers["simulation.parallel.inline_run_s"] = seconds[engine]
            layers["simulation.parallel.windows"] = stats["windows"]
            layers["simulation.parallel.messages"] = stats["messages"]
            layers["simulation.parallel.widened_windows"] = stats["widened_windows"]
        else:
            lane_cpu = stats["max_lane_cpu_seconds"]
            coordinator_cpu = stats["coordinator_cpu_seconds"]
            layers["simulation.parallel.fork_wall_s"] = stats["wall_seconds"]
            layers["simulation.parallel.fork_critical_cpu_s"] = lane_cpu + coordinator_cpu
            layers["simulation.parallel.coordinator_cpu_s"] = coordinator_cpu
            layers["simulation.parallel.barrier_wait_share"] = (
                1.0 - lane_cpu / stats["wall_seconds"]
            )
    return {
        "ops": events,
        "attempted": tasks * len(out),
        "failed": failed,
        "events": events,
        "digest": reference,
        "layers": layers,
    }
