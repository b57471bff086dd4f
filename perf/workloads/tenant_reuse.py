"""Real runtime, content-addressed: tenants submitting overlapping pipelines.

``Runtime(memoizer=TaskMemoizer(), dedupe=True)``: ``core.compile`` content
keys, in-flight aliasing and ``intelligence.memoization`` do the work that
``runtime_tasks`` bypasses.  Eight tenants submit depth-10 pipelines of a
trivial ``cache=True`` stage, 80% of them rooted in a shared pool, so most
submissions alias or hit the cache; results are checked against plain
Python.  A tenant submits each stage of its pipelines with one
``submit_many``: the per-call ``submit`` path is bimodal on a 2-core box
(2.6 s or 3.7 s for the same 48k submissions).
"""

import random

from repro import Runtime, compss_wait_on, task
from repro.intelligence import TaskMemoizer

TENANTS = 8
DEPTH = 10
SHARED_POOL = 60
OVERLAP = 0.8
MODULUS = 1_000_003


def _stage(value, salt):
    return (value * 31 + salt) % MODULUS


#: Bodies actually executed (list.append is atomic under the GIL).
EXECUTED = []


@task(returns=1, cache=True)
def stage(value, salt):
    EXECUTED.append(1)
    return _stage(value, salt)


def setup(seed, size):
    rng = random.Random(seed)
    pool = [rng.randrange(MODULUS) for _ in range(SHARED_POOL)]
    pipelines = size["pipelines"]
    shared = int(round(pipelines * OVERLAP))
    roots = []
    for tenant in range(TENANTS):
        for pipeline in range(pipelines):
            if pipeline < shared:
                roots.append(pool[rng.randrange(SHARED_POOL)])
            else:
                roots.append(MODULUS + tenant * pipelines + pipeline)
    return {"roots": roots}


def run(state, phase):
    roots = state["roots"]
    pipelines = len(roots) // TENANTS
    del EXECUTED[:]
    with Runtime(workers=1, memoizer=TaskMemoizer(), dedupe=True) as runtime:
        tails = []
        for tenant in range(TENANTS):
            values = roots[tenant * pipelines:(tenant + 1) * pipelines]
            for depth in range(DEPTH):
                calls = [((value, depth),) for value in values]
                with phase("describe"):
                    values = runtime.submit_many(stage, calls)
            tails.extend(values)
        with phase("drain"):
            results = compss_wait_on(tails)
        stats = runtime.statistics()
    return {"results": results, "stats": stats, "executed": len(EXECUTED)}


def check(state, out, seconds):
    roots, stats = state["roots"], out["stats"]
    submitted = len(roots) * DEPTH
    wrong = 0
    for root, got in zip(roots, out["results"]):
        value = root
        for depth in range(DEPTH):
            value = _stage(value, depth)
        wrong += value != got
    failed = wrong * DEPTH + stats["tasks_failed"]
    memo = stats["memo"]
    lookups = memo["hits"] + memo["misses"]
    return {
        "ops": submitted - failed,
        "attempted": submitted,
        "failed": failed,
        "described": submitted,
        "digest": {"executed": out["executed"], "results": out["results"]},
        "layers": {
            "core.runtime.submit_many_us_per_task": seconds["describe"] / submitted * 1e6,
            "core.runtime.drain_s": seconds["drain"],
            "core.runtime.executed_ratio": out["executed"] / submitted,
            "core.runtime.tasks_aliased": stats["tasks_aliased"],
            "intelligence.memoization.hit_ratio": memo["hits"] / max(1, lookups),
        },
    }
