"""E11 — runtime overhead of the real execution backend.

Not a paper table, but the enabling property behind claim C1: a runtime that
generates "between 1-3 million COMPSs tasks" must add little per-task
overhead.  Measures, on the real thread-pool backend:

* task submission + execution throughput for trivial tasks;
* submission throughput into the graph (PR 3: the lock-lean front-end,
  per-call ``submit`` vs batched ``submit_many``);
* sustained master memory across repeated waves — the soak: the traced
  heap and the resident set after each wave must stay flat, because a
  settled task leaves the master, not only its futures and arguments
  (E41);
* dependency-chain turnaround (graph bookkeeping on the critical path);
* wait_on latency for an already-finished task.

The measured figures land in ``BENCH_runtime_overhead.json`` at the repo
root; EXPERIMENTS.md E11 and E1c quote them and ``tests/test_doc_figures.py``
holds the pair together (a smoke-scale JSON must not be committed).
"""

import gc
import os
import time
import tracemalloc
from array import array

from _common import bench_scale, host_facts, merge_results, rss_mb

from repro import Runtime, compss_barrier, compss_wait_on, task

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_runtime_overhead.json"
)

NUM_TASKS = 2_000
CHAIN_LENGTH = 500
SUBMIT_TASKS = 20_000
#: The soak: waves of ``runtime_tasks_30k``'s shape (leaves, then a pairwise
#: reduction tree over their futures), a barrier after each.  Growth is
#: bounded from the second wave on: the first warms the allocator and the
#: index tables up to the wave's size.
SOAK_WAVES = 10
SOAK_LEAVES = 1_500 if bench_scale() == "smoke" else 15_000
SOAK_GROWTH_PER_WAVE = 0.02
#: Absolute ceiling on a dependent-task hop: ~3x the figure measured on the
#: 2-core reference box (E11), so a slower CI host passes and a per-hop
#: cost that triples does not.
HOP_CEILING_US = 200.0


def _merge_results(updates: dict) -> None:
    """Fold ``updates`` and this host's stamp into BENCH_runtime_overhead.json."""
    merge_results(
        RESULTS_PATH,
        {
            **updates,
            "experiment": "runtime_overhead",
            "scale": bench_scale(),
            "host": host_facts(),
        },
    )


@task(returns=1)
def noop(x):
    return x


@task(returns=1)
def increment(x):
    return x + 1


def test_throughput_independent_tasks(benchmark):
    def run():
        with Runtime(workers=8):
            for i in range(NUM_TASKS):
                noop(i)
            compss_barrier()
        return NUM_TASKS

    count = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    per_second = count / benchmark.stats.stats.mean
    print(f"\n=== E11a: {per_second:,.0f} trivial tasks/s (submit+schedule+run+complete)")
    _merge_results(
        {"independent_tasks": {"tasks": NUM_TASKS, "workers": 8, "tasks_per_sec": per_second}}
    )
    # Thousands of tasks per second, or 1M tasks would take hours of overhead.
    assert per_second > 1_000


def test_submission_throughput_into_graph(benchmark):
    """Tasks/second *registered* (bind + deps + graph insert), not executed.

    This is the front-end rate that bounds how fast an application can
    even describe a million-task graph; execution overlaps but is not
    waited on inside the timed region.
    """

    def run():
        rates = {}
        with Runtime(workers=4) as rt:
            start = time.perf_counter()
            for i in range(SUBMIT_TASKS):
                noop(i)
            rates["submit"] = SUBMIT_TASKS / (time.perf_counter() - start)
            compss_barrier()
        with Runtime(workers=4) as rt:
            calls = [((i,), {}) for i in range(SUBMIT_TASKS)]
            start = time.perf_counter()
            rt.submit_many(noop, calls)
            rates["submit_many"] = SUBMIT_TASKS / (time.perf_counter() - start)
            compss_barrier()
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    print(
        f"\n=== E11d: submission throughput — "
        f"{rates['submit']:,.0f} tasks/s per-call, "
        f"{rates['submit_many']:,.0f} tasks/s batched"
    )
    _merge_results(
        {
            "submission": {
                "tasks": SUBMIT_TASKS,
                "workers": 4,
                "submit_tasks_per_sec": rates["submit"],
                "submit_many_tasks_per_sec": rates["submit_many"],
            }
        }
    )
    # A million-task graph must be describable in minutes, not hours.
    assert rates["submit"] > 5_000
    assert rates["submit_many"] > 5_000


@task(returns=1)
def add(left, right):
    return left + right


def _wave(rt) -> int:
    level = rt.submit_many(noop, [((i,),) for i in range(SOAK_LEAVES)])
    while len(level) > 1:
        reduced = rt.submit_many(
            add, [((level[i], level[i + 1]),) for i in range(0, len(level) - 1, 2)]
        )
        if len(level) % 2:
            reduced.append(level[-1])
        level = reduced
    return compss_wait_on(level[0])


def _growth_per_wave(samples):
    """The least-squares slope of ``samples`` from the second wave on, as a
    share of the second wave's level: a leak is a trend, while a table
    resize moves single samples either way by a few per cent."""
    level = samples[1:]
    mid, mean = (len(level) - 1) / 2, sum(level) / len(level)
    slope = sum((x - mid) * (y - mean) for x, y in enumerate(level)) / sum(
        (x - mid) ** 2 for x in range(len(level))
    )
    return slope / level[0]


def _soak(traced: bool):
    """One soak pass on a fresh runtime: after every wave, a sample (the
    traced heap when ``traced``, else the resident set), and the count of
    what the waves left behind (tracked futures, held argument values,
    graph nodes).

    The samples go into an array allocated before the first wave: a Python
    object kept per wave lands in an allocator arena the wave just emptied
    and pins it, which reads as ≈ 1 MB of RSS growth per wave at default
    scale while the heap is flat.
    """
    samples = array("d", [0.0] * SOAK_WAVES)
    left = 0
    gc.collect()
    if traced:
        tracemalloc.start()
    try:
        with Runtime(workers=1) as rt:
            for wave in range(SOAK_WAVES):
                assert _wave(rt) == SOAK_LEAVES * (SOAK_LEAVES - 1) // 2
                rt.barrier()
                gc.collect()
                samples[wave] = (
                    tracemalloc.get_traced_memory()[0] / 2**20 if traced else rss_mb()
                )
                left += len(rt._result_futures) + len(rt.graph)
                left += sum(len(t.payload) for t in rt.graph.tasks)
    finally:
        tracemalloc.stop()
    return list(samples), left


def test_sustained_master_memory_across_waves(benchmark):
    """The soak: master memory must not grow with *completed* work.

    Runs ``SOAK_WAVES`` waves with a barrier after each, twice: untraced,
    sampling the resident set after every wave, then under tracemalloc,
    sampling the traced heap (so the tracer's own bookkeeping is not in the
    resident set).  From the second wave on, neither may grow by more than
    ``SOAK_GROWTH_PER_WAVE`` per wave; nor may a wave leave a future
    tracked, an argument value held or a DONE task in the graph.
    """

    def run():
        rss, untraced_left = _soak(traced=False)
        traced, traced_left = _soak(traced=True)
        return rss, traced, untraced_left + traced_left

    rss, traced, left = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    tasks = 2 * SOAK_LEAVES - 1
    print(
        f"\n=== E11e: soak, {SOAK_WAVES} waves of {tasks:,} tasks — traced heap MB "
        f"{[round(mb, 3) for mb in traced]}, RSS MB {[round(mb, 1) for mb in rss]}"
    )
    _merge_results(
        {
            "soak": {
                "waves": SOAK_WAVES,
                "tasks_per_wave": tasks,
                "workers": 1,
                "traced_mb": traced,
                "rss_mb": rss,
                "traced_growth_per_wave": _growth_per_wave(traced),
                "rss_growth_per_wave": _growth_per_wave(rss),
            }
        }
    )
    # Every wave drains completely: nothing accumulates with completed work.
    assert left == 0, left
    assert _growth_per_wave(traced) <= SOAK_GROWTH_PER_WAVE, traced
    assert _growth_per_wave(rss) <= SOAK_GROWTH_PER_WAVE, rss


def test_dependency_chain_turnaround(benchmark):
    def run():
        with Runtime(workers=4):
            value = 0
            for _ in range(CHAIN_LENGTH):
                value = increment(value)
            return compss_wait_on(value)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result == CHAIN_LENGTH
    per_hop = benchmark.stats.stats.mean / CHAIN_LENGTH
    print(f"\n=== E11b: {per_hop * 1e6:,.0f} us per dependent-task hop")
    _merge_results(
        {"dependency_chain": {"length": CHAIN_LENGTH, "workers": 4, "us_per_hop": per_hop * 1e6}}
    )
    assert per_hop * 1e6 < HOP_CEILING_US


def test_wait_on_resolved_future_is_cheap(benchmark):
    with Runtime(workers=2):
        future = noop(42)
        compss_wait_on(future)  # ensure resolved

        def wait():
            return compss_wait_on(future)

        value = benchmark(wait)
        assert value == 42
    mean = benchmark.stats.stats.mean
    _merge_results({"wait_on_resolved": {"us": mean * 1e6}})
    assert mean < 0.001
