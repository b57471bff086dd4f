"""Real runtime, plain tasks: submission, dependency tracking, one worker.

The user-facing PyCOMPSs path with the compiler and memoizer bypassed:
``core.runtime``, ``core.access_processor``, ``core.graph`` and
``executor.local``.  ``submit_many`` of N leaf tasks, then a pairwise
reduction tree of N-1 ``add`` tasks over the futures, one ``submit_many``
per level.  ``workers=1`` keeps submitter + worker at two threads and off
the bimodal per-call ``submit`` path.
"""

import random

from repro import Runtime, compss_wait_on, task


@task(returns=1)
def leaf(value):
    return value


@task(returns=1)
def add(left, right):
    return left + right


def setup(seed, size):
    rng = random.Random(seed)
    return {
        "values": [rng.randrange(1 << 20) for _ in range(size["leaves"])],
        "workers": size.get("workers", 1),
    }


def run(state, phase):
    values = state["values"]
    with Runtime(workers=state["workers"]) as runtime:
        with phase("describe"):
            level = runtime.submit_many(leaf, [((value,),) for value in values])
        while len(level) > 1:
            pairs = [((level[i], level[i + 1]),) for i in range(0, len(level) - 1, 2)]
            with phase("describe"):
                reduced = runtime.submit_many(add, pairs)
            if len(level) % 2:
                reduced.append(level[-1])
            level = reduced
        with phase("drain"):
            root = compss_wait_on(level[0])
        stats = runtime.statistics()
    return {"root": root, "stats": stats}


def check(state, out, seconds):
    values, stats = state["values"], out["stats"]
    tasks = 2 * len(values) - 1
    failed = tasks - stats["tasks_done"] + stats["tasks_failed"]
    if out["root"] != sum(values):
        failed = tasks
    return {
        "ops": stats["tasks_done"],
        "attempted": tasks,
        "failed": failed,
        "described": tasks,
        "digest": {"root": out["root"], "tasks": stats["tasks_total"]},
        "layers": {
            "core.runtime.submit_many_us_per_task": seconds["describe"] / tasks * 1e6,
            "core.runtime.drain_s": seconds["drain"],
        },
    }
