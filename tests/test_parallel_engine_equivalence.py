"""Equivalence: parallel shard lanes vs the sequential lookahead engine.

The :class:`ParallelShardedSimulationEngine` contract (DESIGN.md S6, PR 7):
transport is never semantics.  The same ``{zone: factory}`` programs must
produce byte-identical per-zone log streams, results, and dispatch counts

* across fork and inline transports,
* across any lane count (zones per worker is a wall-clock knob only),
* and against :func:`run_programs_sharded`, the same programs on the
  sequential :class:`ShardedSimulationEngine`.

And every schedule that would break the causal contract — a cross-zone send
undercutting the latency floor — must raise :class:`SimulationError` with
the same message in *every* flavor, fork lanes included (errors cross the
pipe verbatim).
"""

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.parallel as parallel_module
from repro.infrastructure import Link, NetworkTopology
from repro.simulation import (
    ParallelShardedSimulationEngine,
    SimulationError,
    run_programs_sharded,
    run_zone_programs,
)
from repro.workloads import ZonalConfig, run_zonal


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

#: Dyadic, like the step grid below: sums of grid steps and latencies are
#: exact in binary, so a reply and a local event can share an instant.
LATENCY = 0.0625
#: Chain steps are whole multiples of a quarter lookahead.
GRID = LATENCY / 4


def _network(zones, latency=LATENCY):
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=1e-4, bandwidth_bps=1e9),
        default_link=Link(latency_s=latency, bandwidth_bps=1e8),
    )
    for zone in zones:
        network.add_node(f"{zone}-n0", zone)
    return network


def _chain_programs(zones, steps, chain_len=6):
    """Zone programs from a plain spec (picklable-free: closures are fine,
    factories ride through fork, never through a pipe).

    ``steps``: list of ``(zone_index, step, priority, ping_hop, reply)`` —
    each starts a self-rescheduling chain in that zone.  At hop
    ``ping_hop`` (None: never) the chain sends the next zone a message at
    its own priority, paying exactly the latency floor; with ``reply`` the
    receiver answers back the same way.
    """

    def make_factory(zone, index):
        def factory(api):
            def send(peer, tag, priority, reply):
                api.send(
                    peer,
                    {"from": zone, "tag": tag, "priority": priority, "reply": reply},
                    delay=api.latency_to(peer),
                    priority=priority,
                    label=f"msg-{tag}",
                )

            def on_msg(payload):
                api.log(("msg", payload["from"], payload["tag"], payload["reply"]))
                if payload["reply"]:
                    send(payload["from"], payload["tag"], payload["priority"], False)

            api.on_message(on_msg)

            def start(tag, step, priority, ping_hop, reply):
                def fire(count):
                    api.log(("tick", tag, count))
                    if count == ping_hop:
                        send(zones[(index + 1) % len(zones)], tag, priority, reply)
                    if count < chain_len:
                        api.after(step, lambda: fire(count + 1), priority=priority)

                api.at(0.0, lambda: fire(0), priority=priority)

            for tag, (zone_index, *chain) in enumerate(steps):
                if zone_index % len(zones) == index:
                    start(tag, *chain)
            return lambda: ("done", zone, api.dispatched_events)

        return factory

    return {zone: make_factory(zone, index) for index, zone in enumerate(zones)}


def _run_parallel(zones, programs, workers, **kwargs):
    engine = ParallelShardedSimulationEngine(
        _network(zones), programs, workers=workers, **kwargs
    )
    engine.run()
    return engine


def _assert_streams_equal(reference, engine, zones):
    """reference: run_programs_sharded dict; engine: a run parallel engine."""
    for zone in zones:
        assert pickle.dumps(reference["logs"][zone]) == pickle.dumps(
            engine.logs[zone]
        ), f"zone {zone} log stream diverged"
        assert reference["results"][zone] == engine.results[zone]
    assert reference["shard_dispatch_counts"] == engine.shard_dispatch_counts


# --------------------------------------------------------------------------
# Randomized program equivalence (the hypothesis suite ISSUE asks for)
# --------------------------------------------------------------------------


def _step_specs(chain_len):
    """Chains whose steps sit on a quarter-lookahead grid (so messages and
    local events tie exactly), pinging at any hop, replies optional."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # zone index (mod zone count)
            st.integers(min_value=1, max_value=8).map(lambda k: k * GRID),
            st.integers(min_value=0, max_value=3),  # priority
            st.one_of(st.none(), st.integers(min_value=0, max_value=chain_len)),
            st.booleans(),  # the receiver replies
        ),
        min_size=1,
        max_size=8,
    )


STEP_SPECS = _step_specs(6)
#: Long enough for several barrier rounds in a row with no message crossing:
#: a coordinator that grows its window over a quiet stretch is caught here.
REPLY_CHAIN_LEN = 40


class TestRandomProgramEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(steps=STEP_SPECS)
    def test_two_zone_fork_inline_adapter_identical(self, steps):
        """Random chain/ping programs: all three flavors, same streams."""
        zones = ("alpha", "beta")
        seq = run_programs_sharded(_network(zones), _chain_programs(zones, steps))
        fork = _run_parallel(zones, _chain_programs(zones, steps), workers=2)
        inline = _run_parallel(zones, _chain_programs(zones, steps), workers=1)
        assert fork.stats["mode"] == "fork"
        assert inline.stats["mode"] == "inline"
        _assert_streams_equal(seq, fork, zones)
        _assert_streams_equal(seq, inline, zones)
        assert fork.now == inline.now == seq["now"]
        assert fork.dispatched_events == seq["dispatched_events"]

    @settings(max_examples=8, deadline=None)
    @given(steps=STEP_SPECS)
    def test_four_zone_lane_placement_never_changes_results(self, steps):
        """2, 3 or 4 lanes over 4 zones: zones-per-lane is wall-clock only,
        and every lane count matches the sequential lookahead reference."""
        zones = ("z0", "z1", "z2", "z3")
        seq = run_programs_sharded(_network(zones), _chain_programs(zones, steps))
        runs = {
            workers: _run_parallel(zones, _chain_programs(zones, steps), workers)
            for workers in (1, 2, 3, 4)
        }
        assert runs[1].stats["mode"] == "inline"
        for workers, engine in runs.items():
            if workers > 1:
                assert engine.stats["mode"] == "fork"
                assert engine.stats["workers"] == workers
            _assert_streams_equal(seq, engine, zones)
            assert engine.now == seq["now"]


# --------------------------------------------------------------------------
# Request/reply traffic: a round trip that starts at the receiver
# --------------------------------------------------------------------------


def _assert_drivers_match_reference(network, make_programs, zones):
    """Inline and fork lanes, and the ``single`` driver, against
    :func:`run_programs_sharded` on the same programs."""
    seq = run_programs_sharded(network, make_programs())
    for workers in (1, 2):
        engine = ParallelShardedSimulationEngine(
            network, make_programs(), workers=workers
        )
        engine.run()
        _assert_streams_equal(seq, engine, zones)
        assert engine.now == seq["now"]
    per_zone, events, _ = run_zone_programs(network, make_programs(), engine="single")
    assert per_zone == seq["results"]
    assert events == seq["dispatched_events"]


def _ping_pong_programs(zones, ticker_index, step, ping_at, end=100.0):
    """The ticker zone ticks every ``step`` s up to ``end`` and pings the
    other zone once, at ``ping_at``; the responder's only own event is at
    ``end``, and it answers every ping.  Both pay exactly the floor."""
    ticker_zone, responder_zone = zones[ticker_index], zones[1 - ticker_index]

    def ticker(api):
        api.on_message(lambda payload: api.log(("reply", payload)))

        def tick():
            api.log(("tick",))
            if api.now == ping_at:
                api.send(responder_zone, "ping", delay=api.latency_to(responder_zone))
            if api.now + step <= end:
                api.after(step, tick)

        api.at(0.0, tick)
        return lambda: len(api.logs)

    def responder(api):
        def on_ping(payload):
            api.log(("ping", payload))
            api.send(ticker_zone, "pong", delay=api.latency_to(ticker_zone))

        api.on_message(on_ping)
        api.at(end, lambda: api.log(("own",)))
        return lambda: len(api.logs)

    roles = {ticker_zone: ticker, responder_zone: responder}
    return {zone: roles[zone] for zone in zones}


class TestRequestReplyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(steps=_step_specs(REPLY_CHAIN_LEN))
    def test_request_reply_programs_match_reference(self, steps):
        """Pings with replies, exact ties on a quarter-lookahead grid, long
        idle stretches: every driver dispatches what the reference does."""
        zones = ("alpha", "beta")
        _assert_drivers_match_reference(
            _network(zones),
            lambda: _chain_programs(zones, steps, chain_len=REPLY_CHAIN_LEN),
            zones,
        )

    @pytest.mark.parametrize("step, ping_at", [(0.25, 6.0), (0.5, 30.0), (0.25, 4.25)])
    def test_round_trip_from_the_receiver_stays_inside_one_window(self, step, ping_at):
        """Over a 1 s link the reply lands two lookaheads after the ping: a
        window wider than one lookahead let the ticker run past it (a
        ``ClockError``, or a log that differs from the reference)."""
        zones = ("z0", "z1")
        _assert_drivers_match_reference(
            _network(zones, latency=1.0),
            lambda: _ping_pong_programs(zones, 0, step, ping_at),
            zones,
        )

    @pytest.mark.parametrize("step, ping_at", [(0.25, 1.0), (0.25, 5.0), (0.5, 7.0)])
    def test_own_event_precedes_delivery_at_a_tie(self, step, ping_at):
        """The ticker is the higher zone index: its tick and the reply share
        ``(time, priority)``, and the tick — pushed after the reply in the
        reference, before its delivery on the lanes — dispatches first on
        every driver."""
        zones = ("z0", "z1")
        _assert_drivers_match_reference(
            _network(zones, latency=1.0),
            lambda: _ping_pong_programs(zones, 1, step, ping_at),
            zones,
        )
        reference = run_programs_sharded(
            _network(zones, latency=1.0), _ping_pong_programs(zones, 1, step, ping_at)
        )
        at_reply = [
            entry for now, entry in reference["logs"]["z1"] if now == ping_at + 2.0
        ]
        assert at_reply == [("tick",), ("reply", "pong")]


# --------------------------------------------------------------------------
# Causality and surface errors: identical in every flavor
# --------------------------------------------------------------------------


def _violating_programs(zones):
    """Zone 0 sends 1 ms into the future across a 62.5 ms WAN."""

    def violator(api):
        api.after(0.01, lambda: api.send(zones[1], "boom", delay=0.001))
        return None

    def quiet(api):
        api.on_message(lambda payload: None)
        api.after(0.01, lambda: None)
        return None

    return {zones[0]: violator, zones[1]: quiet}


class TestCausalityErrors:
    ZONES = ("alpha", "beta")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_floor_violation_raises_in_parallel(self, workers):
        engine = ParallelShardedSimulationEngine(
            _network(self.ZONES), _violating_programs(self.ZONES), workers=workers
        )
        with pytest.raises(SimulationError, match="latency floor"):
            engine.run()

    def test_floor_violation_raises_in_adapter(self):
        with pytest.raises(SimulationError, match="latency floor"):
            run_programs_sharded(
                _network(self.ZONES), _violating_programs(self.ZONES)
            )

    def test_floor_violation_message_identical_across_transports(self):
        """Fork lanes relay SimulationError verbatim over the pipe."""
        messages = {}
        for workers in (1, 2):
            engine = ParallelShardedSimulationEngine(
                _network(self.ZONES),
                _violating_programs(self.ZONES),
                workers=workers,
            )
            with pytest.raises(SimulationError) as excinfo:
                engine.run()
            messages[workers] = str(excinfo.value)
        assert messages[1] == messages[2]

    @pytest.mark.parametrize("flavor", ["parallel", "adapter"])
    def test_self_send_rejected(self, flavor):
        def selfish(api):
            api.after(0.01, lambda: api.send("alpha", "hi", delay=1.0))
            return None

        def quiet(api):
            api.on_message(lambda payload: None)
            return None

        programs = {"alpha": selfish, "beta": quiet}
        with pytest.raises(SimulationError, match="cannot send\\(\\) to itself"):
            if flavor == "parallel":
                _run_parallel(self.ZONES, programs, workers=2)
            else:
                run_programs_sharded(_network(self.ZONES), programs)

    @pytest.mark.parametrize("flavor", ["parallel", "adapter"])
    def test_send_argument_validation(self, flavor):
        captured = {}

        def prober(api):
            captured["api"] = api
            api.after(0.01, lambda: None)
            return None

        def quiet(api):
            api.on_message(lambda payload: None)
            return None

        programs = {"alpha": prober, "beta": quiet}
        if flavor == "parallel":
            # Inline keeps the api object in-process so we can poke at it.
            engine = ParallelShardedSimulationEngine(
                _network(self.ZONES), programs, workers=1
            )
            engine.run()
        else:
            run_programs_sharded(_network(self.ZONES), programs)
        api = captured["api"]
        with pytest.raises(SimulationError, match="unknown zone"):
            api.send("gamma", "x", delay=1.0)
        with pytest.raises(SimulationError, match="exactly one of"):
            api.send("beta", "x", delay=1.0, time=2.0)
        with pytest.raises(SimulationError, match="exactly one of"):
            api.send("beta", "x")

    def test_missing_handler_raises_at_delivery(self):
        def sender(api):
            api.after(0.01, lambda: api.send("beta", "hi", delay=LATENCY))
            return None

        def deaf(api):  # never registers on_message
            api.after(0.01, lambda: None)
            return None

        for workers in (1, 2):
            engine = ParallelShardedSimulationEngine(
                _network(self.ZONES),
                {"alpha": sender, "beta": deaf},
                workers=workers,
            )
            with pytest.raises(SimulationError, match="no on_message handler"):
                engine.run()


    @pytest.mark.parametrize("flavor", ["parallel", "inline", "adapter"])
    def test_unpicklable_payload_attributed_at_send(self, flavor):
        """One ``send`` serves all three drivers: the sender's mistake is a
        SimulationError naming the zones and the label, not a bare
        ``AttributeError("Can't pickle local object ...")``."""

        def sender(api):
            api.after(
                0.01,
                lambda: api.send("beta", lambda: None, delay=1.0, label="closure"),
            )
            return None

        def quiet(api):
            api.on_message(lambda payload: None)
            return None

        programs = {"alpha": sender, "beta": quiet}
        with pytest.raises(SimulationError) as excinfo:
            if flavor == "adapter":
                run_programs_sharded(_network(self.ZONES), programs)
            else:
                _run_parallel(
                    self.ZONES, programs, workers=2 if flavor == "parallel" else 1
                )
        message = str(excinfo.value)
        assert "cannot be pickled" in message
        assert "'alpha'" in message and "'beta'" in message
        assert "'closure'" in message


def _fork_lanes_available():
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return not multiprocessing.current_process().daemon


class TestLaneDeath:
    @pytest.mark.skipif(
        not _fork_lanes_available(), reason="needs forked lanes (no fork here)"
    )
    def test_killed_lane_is_an_attributed_error(self):
        """A worker SIGKILLed mid-window is a SimulationError naming the
        lane, its zones and the exit code — not a bare ``EOFError('')`` —
        raised promptly, with the surviving lane terminated."""
        parent = os.getpid()

        def doomed(api):
            def die():
                if os.getpid() != parent:  # never kill the test process
                    os.kill(os.getpid(), signal.SIGKILL)

            api.on_message(lambda payload: None)
            api.at(5.0, die)
            return None

        def ticking(api):
            def tick():
                api.after(0.5, tick)

            api.on_message(lambda payload: None)
            api.at(0.0, tick)
            return None

        zones = ("alpha", "beta")
        engine = ParallelShardedSimulationEngine(
            _network(zones), {"alpha": ticking, "beta": doomed}, workers=2
        )
        started = time.monotonic()
        with pytest.raises(
            SimulationError, match=r"lane 1 worker \(zones beta\) died.*exit code -9"
        ):
            engine.run(until=20.0)
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not _fork_lanes_available(), reason="needs forked lanes (no fork here)"
    )
    def test_hung_lane_is_an_attributed_error(self, monkeypatch):
        """A worker that blocks inside a window is a SimulationError naming
        the lane, its zones and the window once the lane's deadline passes
        (floor shrunk to half a second here), with every lane terminated."""
        monkeypatch.setattr(parallel_module, "_DEADLINE_FLOOR_S", 0.5)
        parent = os.getpid()

        def stuck(api):
            def hang():
                if os.getpid() != parent:  # never block the test process
                    time.sleep(60.0)

            api.on_message(lambda payload: None)
            api.at(5.0, hang)
            return None

        def ticking(api):
            def tick():
                api.after(0.5, tick)

            api.on_message(lambda payload: None)
            api.at(0.0, tick)
            return None

        zones = ("alpha", "beta")
        engine = ParallelShardedSimulationEngine(
            _network(zones), {"alpha": ticking, "beta": stuck}, workers=2
        )
        started = time.monotonic()
        with pytest.raises(
            SimulationError,
            match=r"lane 1 worker \(zones beta\) hung in window \d+ "
            r"\(ending at t=5\.\d+\): no reply within \d+\.\d s",
        ):
            engine.run(until=20.0)
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []


# --------------------------------------------------------------------------
# Engine surface: construction validation, until, one-shot
# --------------------------------------------------------------------------


def _noop_programs(zones):
    def make(zone):
        def factory(api):
            api.on_message(lambda payload: None)
            api.after(0.01, lambda: None)
            return None

        return factory

    return {zone: make(zone) for zone in zones}


class TestEngineSurface:
    def test_zero_latency_zones_rejected(self):
        network = NetworkTopology(default_link=Link(latency_s=0.0, bandwidth_bps=1e9))
        network.add_node("a0", "alpha")
        network.add_node("b0", "beta")
        with pytest.raises(SimulationError, match="positive inter-zone latency"):
            ParallelShardedSimulationEngine(
                network, _noop_programs(("alpha", "beta"))
            )

    def test_single_zone_rejected(self):
        with pytest.raises(SimulationError, match="at least two zones"):
            ParallelShardedSimulationEngine(
                _network(("alpha",)), _noop_programs(("alpha",))
            )

    def test_empty_programs_rejected(self):
        with pytest.raises(SimulationError, match="at least one zone"):
            ParallelShardedSimulationEngine(_network(("alpha", "beta")), {})

    def test_run_zone_programs_rejects_unknown_engine(self):
        zones = ("alpha", "beta")
        with pytest.raises(
            ValueError,
            match=r"unknown engine 'threads' \(single, sharded, parallel\)",
        ):
            run_zone_programs(_network(zones), _noop_programs(zones), engine="threads")
        # ... which is the one place the zone workloads choose a driver.
        with pytest.raises(ValueError, match="unknown engine 'threads'"):
            run_zonal(ZonalConfig(zones=2, tasks_per_zone=4), engine="threads")

    def test_one_shot(self):
        zones = ("alpha", "beta")
        engine = _run_parallel(zones, _noop_programs(zones), workers=1)
        with pytest.raises(SimulationError, match="one-shot"):
            engine.run()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_until_clamps_all_clocks_and_matches_reference(self, workers):
        zones = ("alpha", "beta")
        steps = [(0, 0.02, 0, None, False), (1, 0.03, 0, 2, True)]
        until = 0.07
        seq = run_programs_sharded(
            _network(zones), _chain_programs(zones, steps, chain_len=50), until=until
        )
        engine = ParallelShardedSimulationEngine(
            _network(zones), _chain_programs(zones, steps, chain_len=50)
        )
        engine.workers = workers
        end = engine.run(until=until)
        assert end == until == engine.now
        assert all(clock == until for clock in engine.shard_clocks.values())
        _assert_streams_equal(seq, engine, zones)


# --------------------------------------------------------------------------
# Executor workload: the zonal campaign across all three engine flavors
# --------------------------------------------------------------------------


class TestZonalWorkloadEquivalence:
    def test_small_campaign_identical_across_engines(self):
        """Real executors (DAG + placement + data plane) inside each zone:
        the deterministic result document is byte-identical on all three
        engine flavors."""
        cfg = ZonalConfig(
            zones=3, nodes_per_zone=2, cores_per_node=2, tasks_per_zone=30
        )
        documents = {}
        for engine in ("single", "sharded", "parallel"):
            result, stats = run_zonal(cfg, engine=engine, workers=3)
            documents[engine] = json.dumps(result, sort_keys=True)
            if engine == "parallel":
                assert stats["zones"] == 3
                assert stats["dispatched_events"] == result["events"]
        assert documents["single"] == documents["sharded"] == documents["parallel"]
