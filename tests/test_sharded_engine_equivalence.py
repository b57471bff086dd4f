"""Equivalence: the sequential window driver vs one single-queue engine.

:class:`ShardedSimulationEngine` (DESIGN.md S6) runs one
:class:`SimulationEngine` per zone and drains them window by window, a
window being as wide as the smallest inter-zone latency.  Dispatch is
reordered only across zone boundaries and only inside one window, so the
per-zone event streams of zone programs (run through
:func:`run_programs_sharded`, the lane drivers' reference) equal the streams
of the same callbacks on one ``SimulationEngine``; a network that cannot
justify a window is refused at construction.  Latency-floor refusals of
``ShardApi.send`` are pinned for all three drivers in
``tests/test_parallel_engine_equivalence.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infrastructure import Link, NetworkTopology
from repro.simulation import (
    ShardedSimulationEngine,
    SimulationEngine,
    SimulationError,
    run_programs_sharded,
)

ZONES = ("alpha", "beta")


def _two_zone_network(latency=0.05):
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=1e-4, bandwidth_bps=1e9),
        default_link=Link(latency_s=latency, bandwidth_bps=1e8),
    )
    network.add_node("a0", "alpha")
    network.add_node("b0", "beta")
    return network


def _start_chains(engine, zone, chains, log, limit, on_tick=None):
    """Self-rescheduling chains on anything with ``at`` / ``after`` / ``now``:
    one ``SimulationEngine`` for every zone, or a zone's ``ShardApi``."""

    def fire(step, priority, count):
        log.append((round(engine.now, 9), zone, priority, count))
        if on_tick is not None:
            on_tick(count)
        if count < limit:
            engine.after(
                step, lambda: fire(step, priority, count + 1), priority=priority
            )

    for step, priority in chains:
        engine.at(0.0, lambda s=step, p=priority: fire(s, p, 0), priority=priority)


def _of_zone(log, zone):
    return [entry for entry in log if entry[1] == zone]


# --------------------------------------------------------------------------
# Zone programs on the window driver: per-zone streams equal one timeline
# --------------------------------------------------------------------------


class TestLookaheadMode:
    def test_zone_local_chains_match_single_queue(self):
        """A chain in each zone plus a latency-paying ping across zones:
        per-zone event sequences equal the single-queue run."""
        chains = {"alpha": [(0.013, 0)], "beta": [(0.017, 0)]}

        single, engine = [], SimulationEngine()

        def ping_on_one_timeline(count):
            if count == 5:
                engine.after(
                    0.06, lambda: single.append((round(engine.now, 9), "beta", "ping"))
                )

        _start_chains(engine, "alpha", chains["alpha"], single, 20, ping_on_one_timeline)
        _start_chains(engine, "beta", chains["beta"], single, 20)
        engine.run()

        sharded = []

        def alpha(api):
            def ping_through_channel(count):
                if count == 5:
                    api.send("beta", "ping", delay=0.06)

            _start_chains(api, "alpha", chains["alpha"], sharded, 20, ping_through_channel)

        def beta(api):
            api.on_message(
                lambda payload: sharded.append((round(api.now, 9), "beta", payload))
            )
            _start_chains(api, "beta", chains["beta"], sharded, 20)

        out = run_programs_sharded(_two_zone_network(), {"alpha": alpha, "beta": beta})
        # Global interleaving may differ inside a window; per-zone streams
        # (the only causally meaningful order) must be identical.
        for zone in ZONES:
            assert _of_zone(sharded, zone) == _of_zone(single, zone)
        assert out["dispatched_events"] == len(single)
        # The window loop really batches: both zones dispatched events.
        assert all(count > 0 for count in out["shard_dispatch_counts"].values())

    def _send_once(self, delay):
        """alpha sends one message at t=0 with ``delay``; returns beta's
        arrival times."""
        seen = []

        def alpha(api):
            api.at(0.0, lambda: api.send("beta", "x", delay=delay))

        def beta(api):
            api.on_message(lambda payload: seen.append(api.now))

        run_programs_sharded(
            _two_zone_network(latency=0.05), {"alpha": alpha, "beta": beta}
        )
        return seen

    def test_cross_shard_push_below_latency_raises(self):
        # 1 ms into the future, but beta is 50 ms away.
        with pytest.raises(SimulationError, match="latency floor"):
            self._send_once(0.001)

    def test_cross_shard_push_at_latency_is_accepted(self):
        assert self._send_once(0.05) == [0.05]

    def test_zero_latency_zones_rejected(self):
        network = NetworkTopology(
            default_link=Link(latency_s=0.0, bandwidth_bps=1e9)
        )
        network.add_node("a0", "alpha")
        network.add_node("b0", "beta")
        with pytest.raises(SimulationError, match="positive inter-zone latency"):
            ShardedSimulationEngine(network)

    def test_single_zone_rejected(self):
        network = NetworkTopology()
        network.add_node("a0", "alpha")
        with pytest.raises(SimulationError, match="at least two zones"):
            ShardedSimulationEngine(network)

    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ZONES),
                st.floats(min_value=0.001, max_value=0.04),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_random_zone_local_workloads_match(self, steps):
        """Randomized zone-local chains: per-zone streams always match."""
        chains = {
            zone: [(step, prio) for z, step, prio in steps if z == zone]
            for zone in ZONES
        }
        single, engine = [], SimulationEngine()
        for zone in ZONES:
            _start_chains(engine, zone, chains[zone], single, 6)
        engine.run()

        sharded = []
        run_programs_sharded(
            _two_zone_network(),
            {
                zone: lambda api, zone=zone: _start_chains(
                    api, zone, chains[zone], sharded, 6
                )
                for zone in ZONES
            },
        )
        for zone in ZONES:
            assert _of_zone(sharded, zone) == _of_zone(single, zone)


# --------------------------------------------------------------------------
# The driver's own surface: horizons, counters, the runaway valve
# --------------------------------------------------------------------------


class TestShardedEngineSurface:
    # The driver has one way to run; the id names it, as in
    # ``test_simulation_kernel.py::TestRunawayValve``'s ``[single]``.
    @pytest.fixture(params=["lookahead"])
    def engine(self):
        return ShardedSimulationEngine(_two_zone_network())

    def test_run_until_lands_on_horizon(self, engine):
        fired = []
        engine.shard("alpha").at(1.0, lambda: fired.append(1))
        engine.shard("beta").at(5.0, lambda: fired.append(5))
        assert engine.run(until=3.0) == 3.0
        assert engine.now == 3.0
        assert all(engine.shard(zone).now == 3.0 for zone in ZONES)
        assert fired == [1]
        assert engine.dispatched_events == 1
        # A second phase continues past the horizon; the later event is
        # still live.
        assert engine.run(until=10.0) == 10.0
        assert fired == [1, 5]
        assert engine.dispatched_events == 1

    def test_run_until_before_now_raises(self, engine):
        engine.shard("alpha").at(2.0, lambda: None)
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_scheduling_in_past_raises(self, engine):
        engine.shard("alpha").at(3.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.shard("alpha").at(1.0, lambda: None)

    def test_lifetime_vs_per_run_counters(self, engine):
        engine.shard("alpha").at(1.0, lambda: None)
        engine.run()
        engine.shard("beta").at(2.0, lambda: None)
        engine.run()
        assert engine.dispatched_events == 1
        assert sum(engine.shard(zone).lifetime_dispatched for zone in ZONES) == 2

    @pytest.mark.parametrize("delay", [1.0, 0.0], ids=["per-round", "in-window"])
    def test_self_rescheduling_zone_program_trips_max_events(self, delay):
        """One window per hop trips the driver's per-round check; a
        zero-delay loop never leaves its window and trips the shard's own
        valve — either way the same message, and the run ends."""
        engine = ShardedSimulationEngine(_two_zone_network(), max_events=50)
        shard = engine.shard("alpha")

        def reschedule():
            shard.after(delay, reschedule)

        shard.at(0.0, reschedule)
        with pytest.raises(SimulationError, match="more than 50 events"):
            engine.run()


# --------------------------------------------------------------------------
# Quiescence clock (regression: run() must land on the true final time)
# --------------------------------------------------------------------------


class TestQuiescenceClock:
    """A run used to end with each drained shard clock wherever its own last
    event left it — behind the single-queue engine's final ``now`` whenever
    the last window held more than one event.  That skew let callers
    schedule "in the past" relative to events already dispatched elsewhere.
    ``run()`` lands every clock on the latest dispatched instant."""

    def test_quiescence_now_matches_single_queue(self):
        # Both late events land inside the final 0.05-wide window, so the
        # last GVT (7.0) undershoots the last event time (7.03).
        schedule = [(1.0, "alpha"), (7.0, "alpha"), (7.03, "beta")]
        single = SimulationEngine()
        sharded = ShardedSimulationEngine(_two_zone_network())
        for time, zone in schedule:
            single.at(time, lambda: None)
            sharded.shard(zone).at(time, lambda: None)
        assert single.run() == sharded.run()
        assert sharded.now == single.now == 7.03

    @pytest.mark.parametrize("lagging, leading", [ZONES, ZONES[::-1]])
    def test_no_past_scheduling_on_lagging_shard(self, lagging, leading):
        engine = ShardedSimulationEngine(_two_zone_network())
        engine.shard(lagging).at(0.5, lambda: None)
        engine.shard(leading).at(1.0, lambda: None)
        assert engine.run() == 1.0
        # The lagging shard's own last event was at 0.5, but simulation time
        # is 1.0 everywhere now — a 0.75 event would rewrite dispatched
        # history.
        with pytest.raises(SimulationError):
            engine.shard(lagging).at(0.75, lambda: None)
