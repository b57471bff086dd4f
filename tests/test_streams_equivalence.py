"""Equivalence properties for the dataflow plane (PR 10).

The plane's performance machinery must be invisible to results:

1. **Operator lowering vs naive reference** — fused chains, incremental
   window buckets and task lowering must produce exactly the window
   contents, values, completion times and latencies a naive per-element
   evaluation of the same dataflow would (the task runtime adds zero
   virtual-time overhead when resources are free: a window task completes
   at close + duration).
2. **Batched vs per-element ingestion** — ``SensorSource(batch=N)`` emits
   the same elements (same floats, same rng draw order) as ``batch=1``,
   so every downstream artifact is byte-identical.
3. **Backpressure on/off** — an unconstrained valve (ample credits) must
   change nothing; a starved valve is deterministic run-to-run.
4. **Watermark pruning** — a pruned stream answers ``since()`` above the
   watermark exactly as the unpruned stream would, and refuses queries
   below it.
5. **Engines** — the hybrid campaign is byte-identical across
   single/sharded/parallel: every window one lookahead wide, and at equal
   ``(time, priority)`` a zone's own events before delivered messages.
6. **Column emission vs element loop** — ``SensorSource._emit`` builds a
   strictly periodic default-reading batch as two columns; batch by batch,
   for every sensor, it publishes the stamps and values, counts, next
   emission instant and valve figures of the per-element loop, which is
   kept here as the oracle.

Example counts stay small: every example runs one or more full
simulations.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TaskGraph
from repro.executor.simulated import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import (
    CreditValve,
    DataStream,
    DataflowPlane,
    OperatorGraph,
    SensorSource,
    StreamElement,
)
from repro.workloads import HybridStreamConfig, run_hybrid_stream


def _duration_fn(count: int) -> float:
    return 0.001 * count


def _pipeline_params(**overrides):
    params = dict(
        period_s=st.sampled_from([0.3, 0.7, 1.0, 1.7]),
        jitter=st.sampled_from([0.0, 0.2]),
        window_s=st.sampled_from([2.0, 3.5, 5.0]),
        campaign_s=st.sampled_from([10.0, 25.0]),
        batch=st.integers(min_value=1, max_value=16),
        scale=st.sampled_from([1.0, 2.5]),
        threshold=st.sampled_from([-10.0, 0.9, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    params.update(overrides)
    return st.fixed_dictionaries(params)


def _fog_executor(engine):
    return SimulatedExecutor(
        TaskGraph(),
        make_fog_platform(num_edge=0, num_fog=1, num_cloud=1),
        policy=LoadBalancingPolicy(),
        engine=engine,
        locations=DataLocationService(),
    )


def _run_plane(params, credits=None, policy="spill"):
    """One-sensor map/filter/window pipeline on the dataflow plane."""
    engine = SimulationEngine()
    executor = _fog_executor(engine)
    operators = OperatorGraph("flow")
    valve = CreditValve(credits, policy=policy) if credits else None
    source = operators.source("sensor", valve=valve)
    chain = source.map("scale", lambda v: v * params["scale"]).filter(
        "qc", lambda v: v >= params["threshold"] * params["scale"]
    )
    operators.tumbling_window(
        "agg",
        [chain],
        params["window_s"],
        compute_fn=sum,
        duration_fn=_duration_fn,
    )
    sensor = SensorSource(
        engine,
        source.stream,
        period_s=params["period_s"],
        jitter=params["jitter"],
        until=params["campaign_s"],
        seed=params["seed"],
        batch=params["batch"],
        valve=valve,
    )
    sensor.start()
    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    plane.start()
    plane.close_sources_at(params["campaign_s"] + params["window_s"])
    engine.run()
    return plane, sensor, valve


def _emitted_elements(params):
    """The raw elements a sensor with these params publishes (batch=1)."""
    engine = SimulationEngine()
    stream = DataStream("raw")
    SensorSource(
        engine,
        stream,
        period_s=params["period_s"],
        jitter=params["jitter"],
        until=params["campaign_s"],
        seed=params["seed"],
    ).start()
    engine.run()
    return stream.elements


class _NaiveFlow:
    """Per-element evaluation of the same dataflow, no task runtime.

    The reference for everything the plane does per *run*: one element at a
    time through map, filter, the window-index division, late re-homing and
    the bucket/count/credit bookkeeping.  Closes retire a window at
    ``end + duration`` — what the task runtime does on free resources.
    """

    def __init__(self, params, start_at=0.0, key_fn=None, join=False):
        self.params = params
        self.start_at = start_at
        self.key_fn = key_fn
        self.join = join
        self.next_index = 0
        self.buffers = {}
        self.counts = {}
        self.credit_counts = {}
        self.granted = {}
        self.late = self.ingested = self.buffered = self.high_water = 0
        self.results = []

    def ingest(self, elements, valve=None, side=None):
        scale, window_s = self.params["scale"], self.params["window_s"]
        for element in elements:
            self.ingested += 1
            value = element.value * scale
            if value < self.params["threshold"] * scale:
                if valve is not None:
                    self.granted[valve] = self.granted.get(valve, 0) + 1
                continue
            index = int((element.timestamp - self.start_at) // window_s)
            if index < self.next_index:
                index = self.next_index
                self.late += 1
            if self.join:
                groups = self.buffers.setdefault(index, ({}, {}))[side]
                groups.setdefault(self.key_fn(value), []).append(value)
            elif self.key_fn is not None:
                groups = self.buffers.setdefault(index, {})
                groups.setdefault(self.key_fn(value), []).append(value)
            else:
                self.buffers.setdefault(index, []).append(value)
            self.counts[index] = self.counts.get(index, 0) + 1
            if valve is not None:
                per_window = self.credit_counts.setdefault(index, {})
                per_window[valve] = per_window.get(valve, 0) + 1
            self.buffered += 1
            self.high_water = max(self.high_water, self.buffered)

    def close_next(self):
        window_s = self.params["window_s"]
        index = self.next_index
        self.next_index += 1
        bucket = self.buffers.pop(index, None)
        count = self.counts.pop(index, 0)
        for valve, credits in self.credit_counts.pop(index, {}).items():
            self.granted[valve] = self.granted.get(valve, 0) + credits
        if not count:
            return
        if self.join:
            left, right = bucket
            value = {
                key: _join_fn(key, left[key], right[key])
                for key in sorted(set(left) & set(right))
            }
        elif self.key_fn is not None:
            value = {key: sum(bucket[key]) for key in sorted(bucket)}
        else:
            value = sum(bucket)
        close = self.start_at + (index + 1) * window_s
        self.results.append(
            (close - window_s, close, close + _duration_fn(count), value, count)
        )
        self.buffered -= count

    def close_through(self, time):
        """Fire every close due by ``time`` (its task done right after)."""
        while self.start_at + (self.next_index + 1) * self.params["window_s"] <= time:
            self.close_next()


def _join_fn(key, left, right):
    return (key, sum(left), sum(right))


def _naive_reference(elements, params):
    flow = _NaiveFlow(params)
    flow.ingest(elements)
    while flow.buffers:
        flow.close_next()
    return flow.results


class _ElementLoopSensor(SensorSource):
    """The per-element emission loop for every sensor: the oracle.

    Per element: its stamp, one reading, then one jitter draw; the batch
    ends at the first stamp past ``until``, which also ends the source.
    """

    def _emit(self):
        now = self.engine.now
        until = float("inf") if self.until is None else self.until
        if now > until:
            return
        reading_fn = self.reading_fn or (
            lambda seq, rng: 1.0 + 0.1 * (rng.random() - 0.5)
        )
        rng = self.rng
        period = self.period_s
        spread = period * self.jitter
        uniform = rng.uniform
        produced = self.produced
        stamps = []
        values = []
        add_stamp = stamps.append
        add_value = values.append
        timestamp = now
        for _ in range(self.batch):
            add_stamp(timestamp)
            add_value(reading_fn(produced, rng))
            produced += 1
            if spread:
                timestamp = timestamp + (period + uniform(-spread, spread))
            else:
                timestamp = timestamp + period
            if timestamp > until:
                timestamp = None
                break
        self.produced = produced
        valve = self.valve
        if valve is not None:
            # Spilled elements re-enter first: they are older than this
            # batch's readings, so admission order preserves timestamp
            # monotonicity; overflow takes the (newest) column tails.
            spilled_stamps, spilled_values = valve.take_spilled()
            if spilled_stamps:
                spilled_stamps += stamps
                spilled_values += values
                stamps, values = spilled_stamps, spilled_values
            admitted = valve.admit(len(stamps))
            if admitted < len(stamps):
                valve.overflow(stamps[admitted:], values[admitted:])
                del stamps[admitted:], values[admitted:]
        if stamps:
            self.stream.publish_batch(stamps, values, self.name)
            self.emitted += len(stamps)
        if timestamp is not None:
            self.engine.at(timestamp, self._emit)


class _StepEngine:
    """Only ``now`` and ``at``: the test fires each emission itself."""

    def __init__(self):
        self.now = 0.0
        self.pending = None

    def at(self, time, action):
        assert self.pending is None
        self.pending = (time, action)


class _RecordingStream:
    def __init__(self):
        self.batches = []

    def publish_batch(self, stamps, values, source=""):
        self.batches.append((list(stamps), list(values)))


def _pure_reading(seq, rng):
    return 2.0 + 0.25 * seq


def _drawing_reading(seq, rng):
    base = 1.0 + 0.1 * (rng.random() - 0.5)
    return base + (1.0 if rng.random() < 0.05 else 0.0)


_READINGS = {"default": None, "pure": _pure_reading, "draws twice": _drawing_reading}
_EMISSIONS = 6


def _emission_trace(sensor_cls, case, until, valve_policy):
    """Per emission: published columns, reading calls, counts, next instant
    and valve figures, for at most ``_EMISSIONS`` emissions."""
    engine, stream, calls = _StepEngine(), _RecordingStream(), []
    reading = _READINGS[case["reading"]]
    reading_fn = None
    if reading is not None:
        def reading_fn(seq, rng):
            calls.append(seq)
            return reading(seq, rng)
    valve = None if valve_policy is None else CreditValve(3, policy=valve_policy)
    sensor = sensor_cls(
        engine,
        stream,
        name="probe",
        period_s=case["period_s"],
        jitter=case["jitter"],
        reading_fn=reading_fn,
        until=until,
        seed=case["seed"],
        batch=case["batch"],
        valve=valve,
    )
    sensor.start(at=case["start_at"])
    trace = []
    while engine.pending is not None and len(trace) < _EMISSIONS:
        engine.now, action = engine.pending
        engine.pending = None
        published = len(stream.batches)
        action()
        next_at = engine.pending and engine.pending[0]
        step = [stream.batches[published:], list(calls), sensor.produced]
        step += [sensor.emitted, next_at]
        if valve is not None:
            step += [valve.dropped, valve.spilled, valve.granted, valve.credits]
            valve.grant(2)
        trace.append(step)
        del calls[:]
    return trace, stream


def _emission_cases():
    return st.fixed_dictionaries(
        dict(
            period_s=st.sampled_from([0.25, 0.5, 1.0, 0.1, 0.3, 1 / 3, 0.7]),
            jitter=st.sampled_from([0.0, 0.1, 0.5]),
            batch=st.sampled_from([1, 2, 7, 50]),
            start_at=st.sampled_from([0.0, 0.1, 3.0]),
            reading=st.sampled_from(sorted(_READINGS)),
            until=st.sampled_from(
                ["none", "inside a batch", "on a stamp", "before start"]
            ),
            position=st.integers(min_value=0, max_value=10**6),
            valve=st.sampled_from([None, "drop", "spill"]),
            seed=st.integers(min_value=0, max_value=2**32 - 1),
        )
    )


def _until_of(case):
    if case["until"] == "none":
        return None
    if case["until"] == "before start":
        return case["start_at"] - 0.5 * case["period_s"]
    # Cut inside the stamps the oracle publishes with no bound.
    _, probe = _emission_trace(_ElementLoopSensor, case, None, None)
    stamps = [stamp for batch_stamps, _ in probe.batches for stamp in batch_stamps]
    k = case["position"] % (len(stamps) - 1)
    if case["until"] == "on a stamp":
        return stamps[k]
    return (stamps[k] + stamps[k + 1]) / 2


def _plane_records(plane):
    return [
        (r.window_start, r.window_end, r.completed_at, r.value, r.element_count)
        for r in sorted(plane.results_of("agg"), key=lambda r: r.window_start)
    ]


class TestLoweringMatchesNaiveReference:
    @settings(max_examples=10, deadline=None)
    @given(_pipeline_params())
    def test_window_contents_results_and_latencies_match(self, params):
        plane, sensor, _valve = _run_plane(params)
        reference = _naive_reference(_emitted_elements(params), params)
        assert _plane_records(plane) == reference
        # Latency is exactly the window task's duration: lowering through
        # the task runtime costs zero extra virtual time on free resources.
        for record in reference:
            assert math.isclose(record[2] - record[1], _duration_fn(record[4]))
        assert plane.elements_ingested == sensor.emitted

    @settings(max_examples=6, deadline=None)
    @given(_pipeline_params())
    def test_batched_vs_per_element_ingestion_identical(self, params):
        batched, sensor_b, _ = _run_plane(params)
        per_element, sensor_p, _ = _run_plane(dict(params, batch=1))
        assert sensor_b.produced == sensor_p.produced
        assert _plane_records(batched) == _plane_records(per_element)
        assert batched.windows_closed == per_element.windows_closed
        assert batched.elements_ingested == per_element.elements_ingested

    @settings(max_examples=6, deadline=None)
    @given(_pipeline_params())
    def test_backpressure_off_vs_unconstrained_valve_identical(self, params):
        plain, _, _ = _run_plane(params, credits=None)
        valved, _, valve = _run_plane(params, credits=10**6)
        assert _plane_records(plain) == _plane_records(valved)
        assert valve.dropped == 0 and valve.spilled == 0
        # Every admitted element's credit came back by quiescence.
        assert valve.credits == valve.initial_credits

    @settings(max_examples=6, deadline=None)
    @given(_pipeline_params(batch=st.integers(min_value=4, max_value=16)))
    def test_starved_valve_is_deterministic(self, params):
        first, sensor_1, valve_1 = _run_plane(params, credits=7, policy="drop")
        second, sensor_2, valve_2 = _run_plane(params, credits=7, policy="drop")
        assert _plane_records(first) == _plane_records(second)
        assert valve_1.dropped == valve_2.dropped
        assert sensor_1.emitted == sensor_2.emitted
        # Conservation: every produced reading was published or dropped.
        assert sensor_1.produced == sensor_1.emitted + valve_1.dropped


class TestColumnEmissionMatchesElementLoop:
    @settings(max_examples=150, deadline=None)
    @given(_emission_cases())
    def test_every_batch_matches_the_element_loop(self, case):
        until = _until_of(case)
        expected, _ = _emission_trace(_ElementLoopSensor, case, until, case["valve"])
        actual, _ = _emission_trace(SensorSource, case, until, case["valve"])
        # repr tells every float bit apart (0.0 from -0.0 included).
        assert repr(actual) == repr(expected)


def _key_fn(value):
    return int(value * 2) % 3


def _stamp(start_at, window_s, k, fraction):
    """A timestamp about window ``k``: fraction 0 sits exactly on its computed
    opening boundary, fraction 1 one ulp under its computed closing one —
    the two places where ``(t - start_at) // window_s`` may disagree with a
    comparison against ``start_at + k * window_s``."""
    if fraction == 0:
        return start_at + k * window_s
    if fraction == 1:
        return math.nextafter(start_at + (k + 1) * window_s, -math.inf)
    return start_at + (k + fraction) * window_s


class _HandFedFlow:
    """A two-source plane fed by hand, beside its per-element reference.

    ``publish(slot, source, batch)`` runs the engine to the middle of window
    ``slot`` (every close and window task due by then fires first: task
    durations stay under half a window), publishes the batch and compares
    the plane's whole ingestion state with the reference.  A batch whose
    elements lie in windows above ``slot`` is ahead of time, like a sensor's
    emission batch; one below it is late, like a re-admitted spill.
    """

    def __init__(self, params, start_at, mode):
        self.params, self.start_at = params, start_at
        self.engine = SimulationEngine()
        operators = OperatorGraph("flow")
        self.valves = [CreditValve(10**6, policy="spill") for _ in range(2)]
        chains = [
            operators.source(f"in-{i}", valve=valve)
            .map(f"scale-{i}", lambda v: v * params["scale"])
            .filter(f"qc-{i}", lambda v: v >= params["threshold"] * params["scale"])
            for i, valve in enumerate(self.valves)
        ]
        if mode == "join":
            operators.keyed_join(
                "agg", chains[0], chains[1], params["window_s"],
                key_fn=_key_fn, join_fn=_join_fn, duration_fn=_duration_fn,
            )
        else:
            operators.tumbling_window(
                "agg", chains, params["window_s"], compute_fn=sum,
                key_fn=_key_fn if mode == "keyed" else None,
                duration_fn=_duration_fn,
            )
        self.streams = [source.stream for source in operators.sources]
        self.plane = DataflowPlane(
            operators, _fog_executor(self.engine), ingest_node="fog-0",
            start_at=start_at,
        )
        self.plane.start()
        self.flow = _NaiveFlow(
            params,
            start_at=start_at,
            key_fn=None if mode == "plain" else _key_fn,
            join=mode == "join",
        )
        self.join = mode == "join"
        self.last_slot = 0

    def publish(self, slot, source, batch):
        now = self.start_at + (slot + 0.5) * self.params["window_s"]
        self.engine.run(until=now)
        self.flow.close_through(now)
        self.streams[source].publish_batch(
            [e.timestamp for e in batch], [e.value for e in batch], f"in-{source}"
        )
        self.flow.ingest(batch, valve=source, side=source if self.join else None)
        self.last_slot = slot
        self.check_state()

    def check_state(self):
        plane, flow = self.plane, self.flow
        runtime = plane._runtimes["agg"]
        names = {valve: i for i, valve in enumerate(self.valves)}
        assert runtime.next_index == flow.next_index
        assert runtime.buffers == flow.buffers
        assert runtime.counts == flow.counts
        assert {
            index: {names[valve]: n for valve, n in per_window.items()}
            for index, per_window in runtime.credit_counts.items()
        } == flow.credit_counts
        assert [valve.granted for valve in self.valves] == [
            flow.granted.get(i, 0) for i in range(2)
        ]
        assert plane.late_elements == flow.late
        assert plane.elements_ingested == flow.ingested
        assert plane.buffered_high_water == flow.high_water

    def finish(self):
        self.plane.close_sources_at(
            self.start_at + (self.last_slot + 1) * self.params["window_s"]
        )
        self.engine.run()
        flow = self.flow
        while flow.buffers:
            flow.close_next()
        records = _plane_records(self.plane)
        assert records == flow.results
        assert [r.latency for r in self.plane.results_of("agg")] == [
            record[2] - record[1] for record in flow.results
        ]
        # Every credit came back: filtered at once, the rest on completion.
        assert [valve.granted for valve in self.valves] == [
            flow.granted.get(i, 0) for i in range(2)
        ]
        assert sum(valve.granted for valve in self.valves) == flow.ingested
        return records


@st.composite
def _hand_fed_scripts(draw):
    """(params, start_at, mode, steps): steps are (slot, source, batch)."""
    window_s = draw(st.sampled_from([0.1, 1 / 3, 2.0, 3.5]))
    start_at = draw(st.sampled_from([0.0, 0.3, 1.25]))
    params = dict(
        window_s=window_s,
        scale=draw(st.sampled_from([1.0, 2.5])),
        threshold=draw(st.sampled_from([-10.0, 1.0, 2.0])),
    )
    spot = st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0, 0, 0.3, 0.7, 1]),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    steps = []
    for source in range(2):
        # At most 20 elements a source: a window task over all 40 lasts
        # 0.04 s, under half of the smallest window.
        spots = draw(st.lists(spot, max_size=20))
        elements = sorted(
            (StreamElement(_stamp(start_at, window_s, k, f), value, f"in-{source}")
             for k, f, value in spots),
            key=lambda element: element.timestamp,
        )
        slot = 0
        while elements:
            size = draw(st.integers(min_value=1, max_value=12))
            slot += draw(st.integers(min_value=0, max_value=3))
            steps.append((slot, source, elements[:size]))
            elements = elements[size:]
    steps.sort(key=lambda step: step[0])
    mode = draw(st.sampled_from(["plain", "keyed", "join"]))
    return params, start_at, mode, steps


class TestRunSplittingMatchesNaiveReference:
    """Run-at-a-time ingestion against the per-element reference."""

    @settings(max_examples=60, deadline=None)
    @given(_hand_fed_scripts())
    def test_ingestion_state_and_results_match_at_every_batch(self, script):
        params, start_at, mode, steps = script
        fed = _HandFedFlow(params, start_at, mode)
        for slot, source, batch in steps:
            fed.publish(slot, source, batch)
        fed.finish()

    PARAMS = dict(window_s=0.1, scale=1.0, threshold=1.0)

    @staticmethod
    def _batch(start_at, spots):
        return [
            StreamElement(_stamp(start_at, 0.1, k, f), value, "in-0")
            for k, f, value in spots
        ]

    def test_whole_batch_in_one_run(self):
        fed = _HandFedFlow(self.PARAMS, 0.3, "plain")
        # First element exactly on the window's opening boundary.
        batch = self._batch(0.3, [(2, 0, 1.0), (2, 0.3, 0.5), (2, 0.7, 3.0)])
        fed.publish(0, 0, batch)
        runtime = fed.plane._runtimes["agg"]
        assert runtime.buffers == {2: [1.0, 3.0]}
        assert fed.valves[0].granted == 1  # the filtered 0.5
        (record,) = fed.finish()
        assert record[3:] == (4.0, 2)

    def test_batch_split_in_three_with_an_emptied_run(self):
        fed = _HandFedFlow(self.PARAMS, 0.3, "plain")
        batch = self._batch(
            0.3,
            [(1, 0.7, 1.0), (2, 0, 0.5), (2, 0.7, 0.5), (3, 0, 2.0), (3, 0.3, 3.0)],
        )
        fed.publish(0, 0, batch)
        runtime = fed.plane._runtimes["agg"]
        # Window 2's run is filtered out whole: no bucket, no count.
        assert runtime.buffers == {1: [1.0], 3: [2.0, 3.0]}
        assert runtime.counts == {1: 1, 3: 2}
        assert fed.valves[0].granted == 2
        assert [record[4] for record in fed.finish()] == [1, 2]

    def test_run_ends_follow_the_index_function_not_a_computed_boundary(self):
        fed = _HandFedFlow(self.PARAMS, 0.3, "plain")
        # 0.9 < 0.3 + 6 * 0.1 == 0.9000000000000001, yet (0.9 - 0.3) // 0.1
        # is 6; and 0.3 + 4 * 0.1 == 0.7 itself indexes as window 3.
        under = _stamp(0.3, 0.1, 5, 1)
        assert under == 0.9 < 0.3 + 6 * 0.1
        batch = self._batch(
            0.3, [(3, 0.7, 1.0), (4, 0, 2.0), (5, 0.3, 3.0), (5, 1, 1.5), (7, 0.3, 1.0)]
        )
        fed.publish(0, 0, batch)
        runtime = fed.plane._runtimes["agg"]
        assert runtime.buffers == {3: [1.0, 2.0], 5: [3.0], 6: [1.5], 7: [1.0]}
        fed.finish()

    def test_late_runs_merge_into_the_earliest_open_window(self):
        fed = _HandFedFlow(self.PARAMS, 0.0, "plain")
        # Published in the middle of window 4: windows 0..3 have closed, so
        # the runs of windows 1 and 3 both land in window 4's bucket, ahead
        # of the batch's own window-4 element.
        batch = self._batch(
            0.0, [(1, 0.3, 1.0), (3, 0, 2.0), (3, 0.7, 3.0), (4, 0.3, 1.0)]
        )
        fed.publish(4, 0, batch)
        runtime = fed.plane._runtimes["agg"]
        assert runtime.buffers == {4: [1.0, 2.0, 3.0, 1.0]}
        assert fed.plane.late_elements == 3
        assert [record[3:] for record in fed.finish()] == [(7.0, 4)]


class TestWatermarkPruning:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_pruned_stream_serves_since_like_unpruned(self, times, cut, query):
        times = sorted(times)
        full = DataStream("full")
        pruned = DataStream("pruned")
        for t in times:
            full.publish(StreamElement(t, t))
            pruned.publish(StreamElement(t, t))
        removed = pruned.prune_upto(cut)
        assert removed == sum(1 for t in times if t < cut)
        assert pruned.total_published == len(times)
        if removed and query < pruned.watermark:
            try:
                pruned.since(query)
            except ValueError:
                pass
            else:
                raise AssertionError("since() below the watermark must raise")
        else:
            assert pruned.since(query) == full.since(query)

    def test_plane_prunes_as_windows_close(self):
        params = dict(
            period_s=0.5, jitter=0.0, window_s=2.0, campaign_s=30.0,
            batch=4, scale=1.0, threshold=-10.0, seed=3,
        )
        plane, sensor, _ = _run_plane(params)
        stream = plane.operators.sources[0].stream
        assert stream.pruned_count > 0
        # Retained memory is bounded by the in-flight window span, not the
        # campaign: high-water stays near one window of elements.
        elements_per_window = params["window_s"] / params["period_s"]
        assert stream.max_retained <= 3 * elements_per_window + params["batch"]
        assert sensor.emitted == stream.total_published


class TestEngineEquivalence:
    CFG = HybridStreamConfig(
        zones=2,
        sensors_per_zone=2,
        rate_hz=8.0,
        batch=4,
        window_s=4.0,
        duration_s=40.0,
        credits=64,
        overflow="spill",
    )

    def test_hybrid_campaign_byte_identical_across_engines(self):
        single, _ = run_hybrid_stream(self.CFG, engine="single")
        sharded, _ = run_hybrid_stream(self.CFG, engine="sharded")
        parallel, _ = run_hybrid_stream(self.CFG, engine="parallel", workers=2)
        assert single == sharded == parallel
