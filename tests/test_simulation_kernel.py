"""Unit tests for the DES kernel: clock, event queue, engine, random streams."""

import sys

import pytest

from repro.simulation import (
    DeterministicRandom,
    EventQueue,
    SimClock,
    SimulationEngine,
    SimulationError,
)
from repro.simulation.clock import ClockError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rewind_rejected(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ClockError):
            clock.advance_to(5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(2.0, lambda: order.append("b"))
        while queue:
            queue.pop()[3]()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_priority_then_sequence(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("second"), priority=1)
        queue.push(1.0, lambda: order.append("first"), priority=0)
        queue.push(1.0, lambda: order.append("third"), priority=1)
        while queue:
            queue.pop()[3]()
        assert order == ["first", "second", "third"]

    def test_an_event_is_its_heap_entry(self):
        queue = EventQueue()
        action = lambda: None  # noqa: E731 - the entry must hold this object
        assert queue.push(2.0, action, priority=-1) is None
        assert queue.peek_time() == 2.0
        assert queue.pop() == (2.0, -1, 0, action)
        assert queue.pop() is None and queue.peek_time() is None

    def test_push_sequenced_band_ties_after_own_events(self):
        # ShardApi.deliver draws from a band above any sequence push() uses:
        # a delivery filed first still dispatches after the zone's own
        # event at the same (time, priority).
        queue = EventQueue()
        queue.push_sequenced(1.0, "delivery", 0, sys.maxsize)
        queue.push(1.0, "own")
        queue.push(1.0, "urgent", priority=-1)
        assert [queue.pop()[3] for _ in range(3)] == ["urgent", "own", "delivery"]

    def test_len_counts_live_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1


class TestSimulationEngine:
    def test_run_advances_clock(self):
        engine = SimulationEngine()
        engine.at(10.0, lambda: None)
        assert engine.run() == 10.0

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.after(5.0, lambda: seen.append(engine.now))

        engine.at(1.0, first)
        engine.run()
        assert seen == [1.0, 6.0]

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.at(10.0, lambda: engine.at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.after(-1.0, lambda: None)

    # A NaN time defeats both the heap order and the horizon test, so each
    # door refuses it before anything is queued or run.
    def test_nan_time_refused_by_at(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="event at nan"):
            engine.at(float("nan"), lambda: None)
        assert len(engine.queue) == 0

    def test_nan_delay_refused_by_after(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="nan is negative or NaN"):
            engine.after(float("nan"), lambda: None)
        assert len(engine.queue) == 0

    def test_nan_horizon_refused_by_run(self):
        engine = SimulationEngine()
        engine.at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="cannot run until nan"):
            engine.run(until=float("nan"))
        assert engine.now == 0.0 and engine.lifetime_dispatched == 0

    def test_run_until_stops_early(self):
        engine = SimulationEngine()
        fired = []
        engine.at(5.0, lambda: fired.append(5))
        engine.at(50.0, lambda: fired.append(50))
        engine.run(until=10.0)
        assert fired == [5]
        assert engine.now == 10.0

    def test_stop_exits_loop(self):
        engine = SimulationEngine()
        engine.at(1.0, engine.stop)
        engine.at(100.0, lambda: pytest.fail("should not fire"))
        engine.run()
        assert engine.now == 1.0

    def test_runaway_loop_detected(self):
        engine = SimulationEngine(max_events=100)

        def reschedule():
            engine.after(1.0, reschedule)

        engine.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run()


class TestRunawayValve:
    """``max_events`` bounds one ``run()`` exactly (the window driver over
    zone shards checks once per round instead:
    ``tests/test_sharded_engine_equivalence.py``)."""

    @pytest.fixture(params=["single"])
    def make(self, request):
        return lambda max_events: SimulationEngine(max_events=max_events)

    def test_trips_at_exactly_max_events(self, make):
        engine = make(100)
        fired = []

        def reschedule():
            fired.append(engine.now)
            engine.after(1.0, reschedule)

        engine.at(0.0, reschedule)
        with pytest.raises(SimulationError, match="more than 100 events"):
            engine.run()
        assert len(fired) == 100

    def test_alternating_horizon_phases_never_trip_on_cumulative_volume(self, make):
        engine = make(10)
        fired = []

        def tick(zone):
            fired.append((engine.now, zone))
            engine.after(1.0, lambda: tick(zone))

        engine.at(0.5, lambda: tick("alpha"))
        engine.at(0.75, lambda: tick("beta"))
        for phase in range(1, 11):
            assert engine.run(until=4.0 * phase) == 4.0 * phase
            assert engine.dispatched_events == 8  # per run, under the valve
        assert len(fired) == engine.lifetime_dispatched == 80

    def test_cross_shard_ping_pong_trips_at_exactly_max_events(self, make):
        engine = make(50)
        hops = []

        def hop(here, there):
            hops.append(here)
            engine.after(1.0, lambda: hop(there, here))

        engine.at(0.0, lambda: hop("alpha", "beta"))
        with pytest.raises(SimulationError, match="more than 50 events"):
            engine.run()
        assert len(hops) == 50
        assert hops[:4] == ["alpha", "beta", "alpha", "beta"]


class TestDeterministicRandom:
    def test_same_seed_same_draws(self):
        a = DeterministicRandom(seed=42)
        b = DeterministicRandom(seed=42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_fork_independent_of_parent_draws(self):
        a = DeterministicRandom(seed=1)
        b = DeterministicRandom(seed=1)
        a.random()  # extra parent draw must not shift the child stream
        assert a.fork("child").random() == b.fork("child").random()

    def test_forks_with_different_names_differ(self):
        root = DeterministicRandom(seed=1)
        assert root.fork("x").random() != root.fork("y").random()

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
    def test_randoms_equal_that_many_random_calls(self, n):
        batched = DeterministicRandom(seed=5, name="s")
        single = DeterministicRandom(seed=5, name="s")
        draws = batched.randoms(n)
        assert draws == [single.random() for _ in range(n)]
        assert batched._rng.getstate() == single._rng.getstate()
        assert batched.random() == single.random()

    def test_distribution_helpers_positive(self):
        rng = DeterministicRandom(seed=3)
        assert rng.exponential(5.0) > 0
        assert rng.lognormal(10.0, 0.5) > 0

    def test_invalid_parameters_rejected(self):
        rng = DeterministicRandom()
        with pytest.raises(ValueError):
            rng.exponential(0)
        with pytest.raises(ValueError):
            rng.lognormal(-1, 0.5)

    def test_lognormal_median_roughly_respected(self):
        rng = DeterministicRandom(seed=9)
        samples = sorted(rng.lognormal(100.0, 0.5) for _ in range(2001))
        median = samples[1000]
        assert 70.0 < median < 140.0


# --------------------------------------------------------------------------
# Property tests: EventQueue ordering invariants under random op programs.
# --------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Times and priorities drawn from tiny domains so same-timestamp and
# same-priority collisions are the common case, not the exception — the
# sequence tie-break is exactly what these programs are probing.
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])
_PRIORITIES = st.sampled_from([-1, 0, 0, 1])

# One program step: push a new event, or pop/peek at this point.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES, _PRIORITIES),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
    ),
    max_size=64,
)


class TestEventQueueProperties:
    """The queue's contract, stated once and checked against a model.

    Reference model: a plain list of pushed ``(time, priority, push index)``
    keys.  At any point the next event the queue may legally deliver is the
    minimum of the model's un-popped entries — which, for equal (time,
    priority), is the *earliest pushed*.  The model never uses a heap, so
    agreement is evidence about the heap, not about two copies of the same
    code.
    """

    @given(ops=_OPS)
    @settings(max_examples=120, deadline=None)
    def test_random_programs_match_reference_model(self, ops):
        queue = EventQueue()
        model = []  # un-popped (time, priority, push index) keys
        actions = {}  # push index -> the action object pushed with it
        for op in ops:
            if op[0] == "push":
                _, time, priority = op
                index = len(actions)
                actions[index] = action = lambda: None
                queue.push(time, action, priority=priority)
                model.append((time, priority, index))
            elif op[0] == "pop":
                popped = queue.pop()
                if not model:
                    assert popped is None
                else:
                    expected = min(model)
                    model.remove(expected)
                    assert popped[:2] == expected[:2]
                    assert popped[3] is actions[expected[2]]
            else:  # peek: non-destructive, must agree with the model now
                expected = min(model)[0] if model else None
                assert queue.peek_time() == expected
        # Drain: the remainder comes out in exact model order.
        assert len(queue) == len(model)
        remainder = [entry[3] for entry in iter(queue.pop, None)]
        assert remainder == [actions[key[2]] for key in sorted(model)]

    @given(ops=_OPS)
    @settings(max_examples=80, deadline=None)
    def test_peek_never_perturbs_pop_order(self, ops):
        """Interleaving peeks anywhere into a program must not change what
        the queue delivers."""
        plain, peeked = EventQueue(), EventQueue()
        streams = ([], [])
        for op in ops:
            peeked.peek_time()
            action = lambda: None  # noqa: E731 - one object, pushed to both
            for queue, stream in zip((plain, peeked), streams):
                if op[0] == "push":
                    queue.push(op[1], action, priority=op[2])
                elif op[0] == "pop":
                    stream.append(queue.pop())
        for queue, stream in zip((plain, peeked), streams):
            stream.extend(iter(queue.pop, None))
        assert streams[0] == streams[1]

    @given(times=st.lists(_TIMES, min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_same_timestamp_ties_resolve_in_push_order(self, times):
        queue = EventQueue()
        pushed = [(t, lambda: None) for t in times]
        for time, action in pushed:
            queue.push(time, action)
        drained = [entry[3] for entry in iter(queue.pop, None)]
        # sorted() is stable: equal times keep their push order.
        assert drained == [a for _, a in sorted(pushed, key=lambda p: p[0])]
