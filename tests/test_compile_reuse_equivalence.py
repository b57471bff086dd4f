"""Equivalence suite for content-addressed compilation (hypothesis).

Dedup is an optimization, never a semantics change: randomized batches of
overlapping task chains must produce byte-identical outcomes with dedup on
vs off — including failure paths (a deterministically-raising task fails
its consumers identically either way, and its content key is never served
from the cache).
"""

from __future__ import annotations

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, compss_wait_on, task
from repro.core.exceptions import TaskFailedError
from repro.intelligence import TaskMemoizer


@task(returns=1, cache=True)
def step(x, salt):
    # Deterministic poison: certain (value, stage) pairs always raise, so
    # failure locations are input-determined and must match across modes.
    if x % 7 == 3 and salt == 1:
        raise ValueError(f"poison {x}")
    return (x * 3 + salt) % 9973


def _run_batch(chains, dedupe: bool) -> bytes:
    """Run overlapping chains through one runtime; pickle the outcomes.

    Failures are recorded as a bare ``("failed",)`` marker: *which* chains
    fail is deterministic, but whether a downstream task is cancelled
    before or after submission (and hence its recorded cause) races with
    the executor in both modes alike.

    Either way every submission is accounted for exactly once: as a graph
    node (failed and cancelled ones included), an in-flight alias or a memo
    hit.
    """
    outcomes = []
    memoizer = TaskMemoizer() if dedupe else None
    with Runtime(workers=4, memoizer=memoizer, dedupe=dedupe) as runtime:
        tails = []
        for root, depth in chains:
            value = root
            for salt in range(depth):
                value = step(value, salt)
            tails.append(value)
        for future in tails:
            try:
                outcomes.append(("ok", compss_wait_on(future)))
            except TaskFailedError:
                outcomes.append(("failed",))
        stats = runtime.statistics()
    submitted = sum(depth for _root, depth in chains)
    reused = stats["tasks_aliased"] + stats["tasks_from_cache"]
    assert submitted == stats["tasks_total"] + reused, stats
    assert dedupe or reused == 0
    return pickle.dumps(outcomes)


class TestRuntimeEquivalence:
    @given(
        chains=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 3)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_overlapping_batches_byte_identical(self, chains):
        assert _run_batch(chains, dedupe=False) == _run_batch(chains, dedupe=True)

    def test_submit_many_inflight_aliasing(self):
        executions = []

        @task(returns=1, cache=True)
        def slow_identity(x):
            executions.append(x)
            time.sleep(0.05)
            return x

        with Runtime(workers=4, memoizer=TaskMemoizer()) as runtime:
            futures = runtime.submit_many(slow_identity, [((7,), {})] * 5)
            values = compss_wait_on(*futures)
            stats = runtime.statistics()
        assert values == [7] * 5
        assert executions == [7]
        assert stats["tasks_aliased"] == 4
        assert stats["tasks_total"] == 1

    def test_multi_return_aliases_keep_arity(self):
        @task(returns=2, cache=True)
        def pair(x):
            time.sleep(0.03)
            return x, x + 1

        with Runtime(workers=4, memoizer=TaskMemoizer()) as runtime:
            a1, a2 = pair(3)
            b1, b2 = pair(3)
            values = compss_wait_on(a1, a2, b1, b2)
            stats = runtime.statistics()
        assert values == [3, 4, 3, 4]
        assert stats["tasks_aliased"] == 1
        # Per-output content keys stay distinguishable on a multi-return.
        assert a1.content_key != a2.content_key
        assert a1.content_key == b1.content_key

    def test_aliased_duplicates_fail_together(self):
        @task(returns=1, cache=True)
        def boom(x):
            time.sleep(0.05)
            raise ValueError("kaboom")

        with Runtime(workers=2, memoizer=TaskMemoizer()) as runtime:
            first = boom(1)
            second = boom(1)
            with pytest.raises(TaskFailedError):
                compss_wait_on(first)
            with pytest.raises(TaskFailedError):
                compss_wait_on(second)
            stats = runtime.statistics()
        assert stats["tasks_aliased"] == 1
        assert stats["tasks_failed"] == 1

    def test_failed_key_is_never_served_from_cache(self):
        calls = []

        @task(returns=1, cache=True)
        def flaky(x):
            calls.append(x)
            raise ValueError("always")

        with Runtime(workers=2, memoizer=TaskMemoizer()) as runtime:
            # Sequential (wait between) so the second submission cannot
            # alias the first in flight: it must probe the cache and miss.
            with pytest.raises(TaskFailedError):
                compss_wait_on(flaky(9))
            with pytest.raises(TaskFailedError):
                compss_wait_on(flaky(9))
            stats = runtime.statistics()
        assert calls == [9, 9]
        assert stats["tasks_from_cache"] == 0
        assert stats["tasks_aliased"] == 0
