"""Layered data-heavy DAG on a fog-to-cloud platform: placement by transfer cost.

The same scheduler as ``guidance`` used differently: earliest-finish-time
placement asks ``CapacityLedger.candidates()`` and scores every candidate
through ``TransferPlanner.best_source`` / ``NetworkTopology.transfer_time``,
and every 5 MB output is staged across a slow WAN.  A ``best_balanced`` gain
that costs ``candidates()`` shows here and not on ``guidance``.
"""

import random

from repro.executor import SimulatedExecutor
from repro.executor.workflow_builder import SimWorkflowBuilder
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, EarliestFinishTimePolicy

FAN_IN = 4
REACH = 8
OUTPUT_BYTES = 5e6


def setup(seed, size):
    """Task specs drawn in O(fan-in) each, so describing them is all the
    timed build phase does.

    A task reads FAN_IN outputs from within REACH of its own index in the
    previous layer.  Wired that way the DAG advances as a wavefront and the
    ready queue stays deep; wired uniformly over the whole layer it hovers
    between saturated and starved, and the candidate lists (hence the work
    per placement) differ twofold from one seed to the next.
    """
    rng = random.Random(seed)
    width = size["width"]
    specs = []
    for layer in range(size["layers"]):
        for index in range(width):
            inputs = (
                sorted(
                    f"L{layer - 1}/t{(index + offset) % width}"
                    for offset in rng.sample(range(-REACH, REACH + 1), FAN_IN)
                )
                if layer
                else []
            )
            specs.append((f"L{layer}/t{index}", rng.lognormvariate(2.0, 0.5), inputs))
    return {
        "specs": specs,
        "platform": make_fog_platform(8, 24, 8, fog_battery_joules=None),
    }


def run(state, phase):
    platform = state["platform"]
    with phase("describe"):
        builder = SimWorkflowBuilder()
        add_task = builder.add_task
        for name, duration, inputs in state["specs"]:
            add_task(name, duration, inputs=inputs, outputs={name: OUTPUT_BYTES})
    with phase("construct"):
        locations = DataLocationService()
        executor = SimulatedExecutor(
            builder.graph,
            platform,
            policy=EarliestFinishTimePolicy(locations, platform.network),
            locations=locations,
        )
    with phase("run"):
        report = executor.run()
    return {"builder": builder, "executor": executor, "report": report}


def check(state, out, seconds):
    report = out["report"]
    tasks = len(state["specs"])
    done = sum(1 for t in out["builder"].graph.tasks if t.state.name == "DONE")
    failed = tasks - min(done, report.tasks_done) + report.tasks_failed
    events = out["executor"].engine.dispatched_events
    return {
        "ops": report.tasks_done,
        "attempted": tasks,
        "failed": failed,
        "described": tasks,
        "events": events,
        "digest": {
            "tasks": tasks,
            "events": events,
            "makespan": report.makespan,
            "bytes": report.bytes_transferred,
            "transfers": report.remote_transfers,
            "energy": report.energy_joules,
            "busy": sorted(report.per_node_busy_seconds.items()),
        },
        "layers": {},
    }
