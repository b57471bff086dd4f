"""One repetition of one workload, in this interpreter.

``perf/run.py`` starts this file in a fresh child process per repetition
(the real-runtime workloads run ~2x slower from the second ``Runtime`` in
one process on, and allocator state carries over between simulated runs
too).  The child builds its inputs from the seed, times the workload's
calls into ``repro``, checks the outputs and prints one JSON record as the
last line of its standard output.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Phases:
    """Wall seconds of each named phase of the timed region."""

    def __init__(self, tracer=None):
        self.seconds = {}
        self._tracer = tracer

    @contextlib.contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.seconds[name] = self.seconds.get(name, 0.0) + end - start
            if self._tracer is not None:
                self._tracer.coarse_span("phase." + name, start, end)


class GcClock:
    """Seconds and collections the cyclic GC takes, via ``gc.callbacks``.

    Two calls per collection, a few thousand collections per run: cheap
    enough to stay on in untraced repetitions.
    """

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def sim_digest(fields):
    """Hash of the simulated statistics: equal across repetitions and across
    commits unless the simulation itself changed."""
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def timing_metrics(result, seconds, timed_s):
    """The timing figures of one repetition, by their BENCHMARK.json names,
    from wall seconds.

    Where a workload has no separate describe phase or ``run()`` call, the
    phase metric mirrors the whole timed region in its own unit, so its
    gate there is ``ops_per_s``'s and nothing else (see perf/README.md).
    """
    ops = result["ops"]
    described = result.get("described", ops)
    describe_s = seconds.get("describe", timed_s)
    return {
        "ops_per_s": ops / timed_s,
        "run_events_per_s": result.get("events", ops) / seconds.get("run", timed_s),
        "build_us_per_task": describe_s / described * 1e6,
        "submit_tasks_per_s": described / describe_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--variant", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned",
        type=float,
        default=None,
        help="time.time() when the parent started this child (for setup_s)",
    )
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.time()

    # The script directory comes first on sys.path and would shadow the
    # standard library's ``trace`` with perf/trace.py: import as a package.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from perf.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    size = dict(spec[args.scale])
    if args.variant:
        size.update(spec["variants"][args.variant]["size"])
    tracer = None
    if args.trace:
        from perf.trace import Tracer

        tracer = Tracer()
        tracer.install()
    module = importlib.import_module("perf.workloads." + spec["module"])
    state = module.setup(args.seed, size)

    from perf import speed

    phases = Phases(tracer)
    setup_s = time.time() - spawned
    kernel = speed.slice_seconds()
    with GcClock() as gc_clock:
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        out = module.run(state, phases)
        timed_s = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
    kernel += speed.slice_seconds()
    factor = speed.speed_factor(kernel)
    seconds = phases.seconds
    result = module.check(state, out, seconds)

    # Wall figures, then the same at reference speed (see perf/speed.py).
    wall = timing_metrics(result, seconds, timed_s)
    wall["setup_s"] = setup_s
    metrics = {
        name: value / factor if name in ("build_us_per_task", "setup_s") else value * factor
        for name, value in wall.items()
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = dict(result["layers"])
    layers["python.gc_s"] = gc_clock.seconds
    layers["python.gc_collections"] = gc_clock.collections
    layers["python.gc_share"] = gc_clock.seconds / timed_s
    layers["host.speed_factor"] = factor
    if "events" in result:
        layers["simulation.engine.events_per_op"] = result["events"] / max(1, result["ops"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "variant": args.variant,
        "traced": bool(args.trace),
        "timed_s": timed_s,
        "timed_ref_s": timed_s / factor,
        "phases": seconds,
        "wall": wall,
        "kernel_slice_s": kernel,
        "ops": result["ops"],
        "attempted": result["attempted"],
        "failed": min(result["failed"], result["attempted"]),
        "sim_digest": sim_digest(result["digest"]),
        "metrics": metrics,
        "layers": layers,
    }
    if tracer is not None:
        traced, aggregates, spans = tracer.layer_metrics(timed_s, result["ops"])
        if "agents" in result:
            traced["workloads.churn.setup_us_per_agent"] = (
                traced["workloads.churn.fleet_setup_s"] / result["agents"] * 1e6
            )
        layers.update(traced)
        record["aggregates"] = aggregates
        record["spans"] = spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
