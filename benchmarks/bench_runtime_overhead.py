"""E11 — runtime overhead of the real execution backend.

Not a paper table, but the enabling property behind claim C1: a runtime that
generates "between 1-3 million COMPSs tasks" must add little per-task
overhead.  Measures, on the real thread-pool backend:

* task submission + execution throughput for trivial tasks;
* submission throughput into the graph (PR 3: the lock-lean front-end,
  per-call ``submit`` vs batched ``submit_many``);
* sustained master memory across repeated waves (PR 3: resolved futures and
  completed payloads must be released, not accumulated);
* dependency-chain turnaround (graph bookkeeping on the critical path);
* wait_on latency for an already-finished task.

The measured figures land in ``BENCH_runtime_overhead.json`` at the repo
root; EXPERIMENTS.md E11 and E1c quote them and ``tests/test_doc_figures.py``
holds the pair together (a smoke-scale JSON must not be committed).
"""

import os
import time

from _common import bench_scale, host_facts, merge_results

from repro import Runtime, compss_barrier, compss_wait_on, task

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_runtime_overhead.json"
)

NUM_TASKS = 2_000
CHAIN_LENGTH = 500
SUBMIT_TASKS = 20_000
WAVES = 5
WAVE_TASKS = 2_000
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


def test_sustained_master_memory_across_waves(benchmark):
    """Master bookkeeping must not grow with *completed* work.

    Submits several waves with a barrier after each; after every wave the
    future-tracking map must be empty and completed instances must have
    dropped their argument payloads — the PR 3 leak fixes.
    """

    def run():
        retained = []
        with Runtime(workers=4) as rt:
            for _ in range(WAVES):
                futures = rt.submit_many(
                    noop, [((i,), {}) for i in range(WAVE_TASKS)]
                )
                compss_wait_on(list(futures))
                rt.barrier()
                retained.append(
                    (
                        len(rt._result_futures),
                        sum(len(t.payload) for t in rt.graph.tasks),
                    )
                )
        return retained

    retained = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print(
        f"\n=== E11e: retained (futures, argument payloads) per wave: "
        f"{retained}"
    )
    # Every wave drains completely: nothing accumulates with completed work.
    assert retained == [(0, 0)] * WAVES


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
