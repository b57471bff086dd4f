"""The repo's benchmark: eight workloads, one instrument.

    python3 perf/run.py                      the whole suite, results to perf/out/
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                                             one run, one JSON line (the driver's form)
    python3 perf/run.py --selfcheck          the suite twice; fail beyond a bound
    python3 perf/run.py --quick              1/10 sizes, one repetition, no bounds

Every repetition is a fresh child interpreter (``perf/rep.py``), run one
after the other, GC at interpreter defaults.  A run repeats its workload
until ``--seconds`` are used (3 to 7 repetitions) and reports, per
end-to-end metric, the median over the repetitions; timing metrics are at
reference speed (``perf/speed.py``), the raw wall figures printed beside.
``--trace 1`` adds one traced repetition, which alone gives the per-layer
span figures; end-to-end metrics never come from it.  Names, units and
bounds are read from ``BENCHMARK.json``; see ``perf/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
OUT_DIR = os.path.join(HERE, "out")

MIN_REPS = 3
MAX_REPS = 7
#: One child may take this long before it is killed (the driver allows a
#: whole run 180 s).
REP_TIMEOUT_S = 150
#: Share of a single-threaded workload's timed region that may lie in no
#: span (the real-runtime workloads' residual is reported, not gated).
RESIDUAL_LIMIT = 0.15


class BenchmarkError(RuntimeError):
    """A repetition could not be run or its record could not be read."""


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def commit_id():
    """HEAD of the checkout, read from ``.git`` directly (no look-up in
    parent directories: the driver's checkout is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()[:12]
        except OSError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def host_facts():
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_rep(workload, seed, scale, trace=0, variant=None):
    """One repetition in a fresh child; returns its record."""
    command = [
        sys.executable, REP,
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--trace", str(trace),
        "--spawned", repr(time.time()),
    ]
    if variant:
        command += ["--variant", variant]
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise BenchmarkError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise BenchmarkError(
            f"{workload}: repetition exited with {child.returncode}\n{stderr[-4000:]}"
        )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"{workload}: repetition printed no record\n{stderr[-4000:]}") from None


def summarize(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure(workload, seed, seconds, trace, scale, reps=None):
    """One run of one workload: untraced repetitions, then (``trace``) one
    traced repetition and the workload's report-only variants.

    Returns the run's result: ``metrics`` (median, min, max, n per
    end-to-end metric), ``wall`` (the medians of the raw wall figures),
    ``layers`` (per-layer figures; the span figures only when traced),
    ``attempted`` / ``failed`` / ``correct`` and the problems found, the
    ``sim_digest`` and the raw records.
    """
    from perf.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    started = time.perf_counter()
    records = []
    traced = None
    problems = []
    while True:
        before = time.perf_counter()
        records.append(run_rep(workload, seed, scale))
        now = time.perf_counter()
        cost = now - before
        if reps is not None:
            if len(records) >= reps:
                break
        elif len(records) >= MAX_REPS or (
            len(records) >= MIN_REPS
            # The traced repetition and the variants take the rest.
            and (trace or now - started + cost > seconds)
        ):
            break

    digests = {record["sim_digest"] for record in records}
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    if len(digests) > 1:
        problems.append(f"sim_digest differs between repetitions: {sorted(digests)}")
        failed = attempted
    metrics = {
        name: summarize([record["metrics"][name] for record in records])
        for name in records[0]["metrics"]
    }
    layers = {
        name: statistics.median(record["layers"][name] for record in records)
        for name in records[0]["layers"]
    }
    wall = {
        name: statistics.median(record["wall"][name] for record in records)
        for name in records[0]["wall"]
    }

    if trace:
        traced = run_rep(workload, seed, scale, trace=1)
        # Span figures from the traced repetition; everything the untraced
        # ones also measure (phase timings, the program's own stats) stays
        # as measured untraced.
        layers = {**traced["layers"], **layers}
        layers["trace.overhead_ratio"] = traced["timed_ref_s"] / statistics.median(
            record["timed_ref_s"] for record in records
        )
        if traced["sim_digest"] not in digests:
            problems.append("traced repetition's sim_digest differs from the untraced ones'")
        if traced["failed"]:
            problems.append(f"traced repetition failed {traced['failed']} operations")
        residual = traced["layers"]["trace.residual_share"]
        if not spec.get("threaded") and residual > RESIDUAL_LIMIT:
            problems.append(
                f"trace.residual_share {residual:.3f} > {RESIDUAL_LIMIT}: "
                "part of the timed region is in no traced layer"
            )
        for variant, how in spec.get("variants", {}).items():
            record = run_rep(workload, seed, scale, variant=variant)
            if record["failed"] or record["sim_digest"] not in digests:
                problems.append(f"variant {variant}: wrong result")
            for source, target in how["layers"].items():
                layers[target] = record["layers"][source]

    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "sim_digest": sorted(digests)[0],
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "wall": wall,
        "layers": layers,
        "records": records,
        "traced": traced,
    }


def driver_line(result, manifest, trace):
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {
            entry["name"]: {
                "value": result["layers"].get(entry["name"], 0.0),
                "unit": entry["unit"],
            }
            for entry in manifest["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {
                "value": result["metrics"][entry["name"]]["median"],
                "unit": entry["unit"],
            }
            for entry in manifest["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_result(result, manifest, out=sys.stdout):
    """Every metric of one workload by name, with its unit."""
    print(
        f"\n== {result['workload']}  seed={result['seed']}  "
        f"sim_digest={result['sim_digest']}  "
        f"failed_share={result['failed'] / result['attempted']:.6f} "
        f"({result['failed']}/{result['attempted']})",
        file=out,
    )
    for entry in manifest["end_to_end"]:
        stats = result["metrics"][entry["name"]]
        wall = result["wall"].get(entry["name"])
        print(
            f"  {entry['name']:<22} {stats['median']:>14.4f} {entry['unit']:<4} "
            f"min {stats['min']:.4f}  max {stats['max']:.4f}  n={stats['n']}  "
            + (f"wall {wall:.4f}  " if wall is not None else "")
            + f"({entry['better']} is better, bound {entry['bound']:.0%})",
            file=out,
        )
    units = {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}
    for name in sorted(result["layers"]):
        value = result["layers"][name]
        if value:
            print(f"  {name:<50} {value:>16.4f} {units.get(name, '?')}", file=out)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=out)


def check_manifest_names(results, manifest):
    """BENCHMARK.json and the harness must name the same per-layer metrics."""
    declared = {entry["name"] for entry in manifest["per_layer"]}
    produced = set()
    for result in results:
        produced.update(result["layers"])
    problems = []
    if declared - produced:
        problems.append(f"declared but never measured: {sorted(declared - produced)}")
    if produced - declared:
        problems.append(f"measured but not declared: {sorted(produced - declared)}")
    return problems


def write_out(document, path=None):
    """One file per run under perf/out/, never overwritten."""
    if path is None:
        os.makedirs(OUT_DIR, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = os.path.join(OUT_DIR, f"{stamp}-{document['commit']}-{os.getpid()}.json")
    with open(path, "x") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return path


def run_suite(names, manifest, seed, seconds, scale, reps, trace=True):
    results = []
    for name in names:
        result = measure(name, seed, seconds, 1 if trace else 0, scale, reps)
        print_result(result, manifest)
        sys.stdout.flush()
        results.append(result)
    return results


def document_of(results, manifest, seed, scale):
    return {
        "commit": commit_id(),
        "host": host_facts(),
        "seed": seed,
        "scale": scale,
        "bounds": {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]},
        "workloads": {result["workload"]: result for result in results},
    }


def selfcheck(names, manifest, seed, seconds):
    """The untraced suite twice: the second medians must be within each
    metric's bound of the first, digests equal, nothing failed."""
    first = run_suite(names, manifest, seed, seconds, "full", None, trace=False)
    second = run_suite(names, manifest, seed, seconds, "full", None, trace=False)
    failures = []
    print("\n== selfcheck: second set against first (positive = worse)")
    for one, two in zip(first, second):
        if one["sim_digest"] != two["sim_digest"]:
            failures.append(f"{one['workload']}: sim_digest differs between the sets")
        for result in (one, two):
            failures += [f"{result['workload']}: {p}" for p in result["problems"]]
        for entry in manifest["end_to_end"]:
            a = one["metrics"][entry["name"]]["median"]
            b = two["metrics"][entry["name"]]["median"]
            worse = (a - b) / a if entry["better"] == "higher" else (b - a) / a
            verdict = "ok" if worse <= entry["bound"] else "BEYOND BOUND"
            print(
                f"  {one['workload']:<20} {entry['name']:<22} "
                f"{a:>14.4f} {b:>14.4f} {worse:>+8.2%}  bound {entry['bound']:.0%}  {verdict}"
            )
            if worse > entry["bound"]:
                failures.append(
                    f"{one['workload']}: {entry['name']} worse by {worse:.2%} "
                    f"(bound {entry['bound']:.0%})"
                )
    document = document_of(first, manifest, seed, "full")
    document["second_set"] = {result["workload"]: result for result in second}
    document["selfcheck_failures"] = failures
    print(f"\nresults: {write_out(document)}")
    for failure in failures:
        print(f"SELFCHECK FAILED: {failure}")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload by name (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form: which metrics to print")
    parser.add_argument("--reps", type=int, help="exactly this many untraced repetitions")
    parser.add_argument("--out", help="write the results to this new file")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    # As in rep.py: the script directory would shadow the standard ``trace``.
    sys.path[0] = ROOT
    from perf.workloads import WORKLOADS

    manifest = load_manifest()
    declared = [entry["name"] for entry in manifest["workloads"]]
    if declared != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {declared} != perf/workloads {list(WORKLOADS)}")
    names = declared
    if args.workload:
        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {declared}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]

    if args.selfcheck:
        return selfcheck(names, manifest, args.seed, seconds)

    if args.trace is not None:
        # The driver's form: one workload, one JSON object on the last line.
        if len(names) != 1:
            raise SystemExit("--trace needs --workload")
        result = measure(names[0], args.seed, seconds, args.trace, "full", args.reps)
        print_result(result, manifest, out=sys.stderr)
        if args.out:
            write_out(document_of([result], manifest, args.seed, "full"), args.out)
        print(driver_line(result, manifest, args.trace))
        return 0

    scale = "quick" if args.quick else "full"
    reps = 1 if args.quick else args.reps
    results = run_suite(names, manifest, args.seed, seconds, scale, reps)
    problems = [f"{r['workload']}: {p}" for r in results for p in r["problems"]]
    if len(names) == len(declared):
        problems += check_manifest_names(results, manifest)
    document = document_of(results, manifest, args.seed, scale)
    print(f"\nresults: {write_out(document, args.out)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
