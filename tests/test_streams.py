"""Tests for the streaming subsystem (§I/§III continuum data flows)."""

import gc
import pickle

import pytest

from repro.infrastructure import make_fog_platform
from repro.simulation import SimulationEngine
from repro.streams import (
    CreditValve,
    DataflowPlane,
    OperatorError,
    OperatorGraph,
    DataStream,
    SensorSource,
    StreamElement,
)


class TestDataStream:
    def test_publish_and_subscribe(self):
        stream = DataStream("s")
        seen = []
        stream.subscribe(seen.append)
        stream.publish(StreamElement(1.0, "a"))
        stream.publish(StreamElement(2.0, "b"))
        assert len(stream) == 2
        assert [e.value for e in seen] == ["a", "b"]

    def test_timestamps_must_be_monotone(self):
        stream = DataStream("s")
        stream.publish(StreamElement(5.0, "x"))
        with pytest.raises(ValueError):
            stream.publish(StreamElement(4.0, "y"))

    def test_closed_stream_rejects_publish(self):
        stream = DataStream("s")
        stream.close()
        with pytest.raises(RuntimeError):
            stream.publish(StreamElement(0.0, "x"))

    def test_since_filters_by_timestamp(self):
        stream = DataStream("s")
        for t in (1.0, 2.0, 3.0):
            stream.publish(StreamElement(t, t))
        assert [e.value for e in stream.since(2.0)] == [2.0, 3.0]


class TestStreamElementRecord:
    """The record is shared by retention, subscribers and spill buffers."""

    def test_immutable(self):
        element = StreamElement(1.0, "a")
        with pytest.raises(AttributeError):
            element.value = "b"
        with pytest.raises(AttributeError):
            element.extra = 1

    def test_field_order_defaults_and_repr(self):
        element = StreamElement(1.0, "a")
        assert element == StreamElement(timestamp=1.0, value="a", source="")
        assert (element.timestamp, element.value, element.source) == (1.0, "a", "")
        assert repr(StreamElement(2.5, 3, "s0")) == (
            "StreamElement(timestamp=2.5, value=3, source='s0')"
        )

    def test_hashable_by_content(self):
        assert len({StreamElement(1.0, "a"), StreamElement(1.0, "a")}) == 1
        assert StreamElement(1.0, "a") != StreamElement(1.0, "a", "other")

    def test_survives_the_lane_channel_pickles(self):
        from repro.simulation.parallel import ChannelMessage

        batch = [StreamElement(0.5, {"k": [1, 2]}, "s0"), StreamElement(1.5, 2.0)]
        message = ChannelMessage(
            time=1.0, priority=0, src_zone="a", src_index=0, send_seq=0,
            dst_zone="b", payload_bytes=pickle.dumps(batch),
        )
        # Send-time pickle, then the pipe pickle of the whole message.
        delivered = pickle.loads(pickle.dumps(message)).payload()
        assert delivered == batch
        assert all(type(e) is StreamElement for e in delivered)


class TestSensorSource:
    def test_periodic_emission(self):
        engine = SimulationEngine()
        stream = DataStream("readings")
        sensor = SensorSource(engine, stream, period_s=2.0, until=10.0)
        sensor.start()
        engine.run()
        # Emissions at t = 0, 2, 4, 6, 8, 10.
        assert sensor.emitted == 6
        assert [e.timestamp for e in stream.elements] == [0, 2, 4, 6, 8, 10]

    def test_jitter_deterministic_per_seed(self):
        def run(seed):
            engine = SimulationEngine()
            stream = DataStream("r")
            SensorSource(
                engine, stream, period_s=1.0, jitter=0.3, until=20.0, seed=seed
            ).start()
            engine.run()
            return [e.timestamp for e in stream.elements]

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_custom_reading_fn(self):
        engine = SimulationEngine()
        stream = DataStream("r")
        SensorSource(
            engine,
            stream,
            period_s=1.0,
            until=3.0,
            reading_fn=lambda seq, rng: seq * 10,
        ).start()
        engine.run()
        assert [e.value for e in stream.elements] == [0, 10, 20, 30]

    def test_validation(self):
        engine = SimulationEngine()
        stream = DataStream("r")
        with pytest.raises(ValueError):
            SensorSource(engine, stream, period_s=0)
        with pytest.raises(ValueError):
            SensorSource(engine, stream, jitter=1.5)
        sensor = SensorSource(engine, stream, until=1.0)
        sensor.start()
        with pytest.raises(RuntimeError):
            sensor.start()

    @pytest.mark.parametrize("field", ["period_s", "until"])
    def test_nan_period_or_horizon_refused(self, field):
        # Every emission time would be NaN, which defeats both the heap
        # order and the horizon test: the run would never return.
        with pytest.raises(ValueError, match=field):
            SensorSource(SimulationEngine(), DataStream("r"), **{field: float("nan")})


def _window_on_plane(window_s, until, compute_fn=None, reading_fn=None):
    """One 1 Hz sensor into one tumbling window on the plane, at E14's cost
    (0.05 s per element); returns ``(plane, window handle, source stream)``."""
    engine = SimulationEngine()
    executor = TestOperatorGraphAndPlane._platform_executor(engine)
    operators = OperatorGraph("g")
    source = operators.source("readings")
    window = source.tumbling_window(
        "agg",
        window_s,
        compute_fn or (lambda values: sum(values) / len(values)),
        duration_fn=lambda count: 0.05 * count,
    )
    SensorSource(
        engine, source.stream, period_s=1.0, until=until, reading_fn=reading_fn
    ).start()
    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    plane.start()
    plane.close_sources_at(until + window_s)
    engine.run()
    return plane, window, source.stream


class TestWindowedProcessor:
    """Windowed processing: one ``tumbling_window`` lowered by the plane."""

    def test_every_element_processed_exactly_once(self):
        plane, _, stream = _window_on_plane(window_s=5.0, until=30.0)
        results = plane.results_of("agg")
        assert sum(r.element_count for r in results) == 31  # t = 0..30 inclusive
        assert stream.total_published == plane.elements_ingested == 31
        # Every element in exactly one window: ordered, disjoint spans.
        spans = [(r.window_start, r.window_end) for r in results]
        assert all(e1 <= s2 + 1e-9 for (_, e1), (s2, _) in zip(spans, spans[1:]))

    def test_results_stream_out_during_the_run(self):
        plane, window, _ = _window_on_plane(window_s=5.0, until=30.0)
        results = plane.results_of("agg")
        # First result appears shortly after the first window closes (t=5),
        # long before the campaign ends (t=30).
        assert results[0].completed_at < 10.0
        assert [e.value for e in window.output.elements] == results

    def test_latency_bounded_by_window_plus_compute(self):
        plane, _, _ = _window_on_plane(window_s=5.0, until=30.0)
        assert 0.0 < plane.max_latency("agg") < 5.0

    def test_window_values_correct(self):
        plane, _, _ = _window_on_plane(
            window_s=5.0,
            until=9.0,
            compute_fn=list,
            reading_fn=lambda seq, rng: float(seq),
        )
        first, second = plane.results_of("agg")
        # Window [0,5) holds t=0..4 -> values 0..4; window [5,10) holds 5..9.
        assert first.value == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert second.value == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_invalid_window_rejected(self):
        for window_s in (0.0, -1.0):
            source = OperatorGraph("g").source("readings")
            with pytest.raises(OperatorError, match="window_s must be positive"):
                source.tumbling_window("agg", window_s, len)

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, window_s):
        operators = OperatorGraph("g")
        left, right = operators.source("left"), operators.source("right")
        with pytest.raises(OperatorError, match="positive and finite"):
            left.tumbling_window("agg", window_s, len)
        with pytest.raises(OperatorError, match="positive and finite"):
            operators.keyed_join("join", left, right, window_s, key_fn=id, join_fn=len)


class TestBatchBaseline:
    """The fragmented baseline: one window as long as the campaign."""

    def test_batch_result_latency_spans_campaign(self):
        plane, _, _ = _window_on_plane(window_s=60.0 + 1e-6, until=60.0)
        (result,) = plane.results_of("agg")
        assert result.element_count == 61
        # Oldest element is a whole campaign old when the result appears.
        assert result.worst_element_latency >= 60.0

    def test_streaming_latency_much_lower_than_batch(self):
        streaming, _, _ = _window_on_plane(window_s=5.0, until=60.0)
        batch, _, _ = _window_on_plane(window_s=60.0 + 1e-6, until=60.0)
        (result,) = batch.results_of("agg")
        assert streaming.mean_latency("agg") * 10 < result.worst_element_latency


class TestDataStreamBatchAndPruning:
    def test_publish_batch_notifies_both_subscriber_kinds(self):
        stream = DataStream("s")
        per_element, batches = [], []
        stream.subscribe(per_element.append)
        stream.subscribe_batch(lambda stamps, values: batches.append(values))
        stream.publish_batch([1.0, 2.0], ["a", "b"])
        stream.publish(StreamElement(3.0, "c"))
        assert [e.value for e in per_element] == ["a", "b", "c"]
        assert [len(b) for b in batches] == [2, 1]

    def test_publish_batch_enforces_monotone_timestamps(self):
        stream = DataStream("s")
        with pytest.raises(ValueError):
            stream.publish_batch([2.0, 1.0], ["a", "b"])

    def test_publish_batch_names_the_offending_timestamp(self):
        stream = DataStream("s")
        stream.publish(StreamElement(2.0, "a"))
        with pytest.raises(ValueError, match="1.5 precedes 2.0"):
            stream.publish_batch([1.5], ["b"])
        with pytest.raises(ValueError, match="2.5 precedes 3.0"):
            stream.publish_batch([2.0, 3.0, 2.5], ["b", "c", "d"])
        assert len(stream) == 1  # a rejected batch publishes nothing

    @pytest.mark.parametrize(
        "publish",
        [
            lambda stream, element: stream.publish(element),
            lambda stream, element: stream.publish_batch(
                [element.timestamp], [element.value], element.source
            ),
        ],
        ids=["publish", "publish_batch"],
    )
    def test_ordering_check_survives_a_full_prune(self, publish):
        stream = DataStream("s")
        stream.publish(StreamElement(1.0, "a"))
        stream.publish(StreamElement(2.0, "b"))
        assert stream.prune_upto(5.0) == 2
        assert len(stream) == 0
        with pytest.raises(ValueError):
            publish(stream, StreamElement(0.5, "older than the last published"))
        # Below the watermark but not older than anything published: legal
        # (a spilled element re-admitted after its window closed).
        publish(stream, StreamElement(2.0, "spilled"))
        publish(stream, StreamElement(3.0, "next"))
        assert [e.value for e in stream.since(5.0)] == []
        assert [e.value for e in stream.elements] == ["spilled", "next"]

    def test_prune_advances_watermark_and_guards_since(self):
        stream = DataStream("s")
        for t in (1.0, 2.0, 3.0, 4.0):
            stream.publish(StreamElement(t, t))
        assert stream.prune_upto(3.0) == 2
        assert stream.watermark == 3.0
        assert stream.pruned_count == 2
        assert stream.total_published == 4
        assert len(stream) == 2
        assert [e.value for e in stream.since(3.0)] == [3.0, 4.0]
        with pytest.raises(ValueError):
            stream.since(2.5)

    def test_max_retained_tracks_high_water(self):
        stream = DataStream("s")
        for t in (1.0, 2.0, 3.0):
            stream.publish(StreamElement(t, t))
        stream.prune_upto(10.0)
        stream.publish(StreamElement(11.0, "x"))
        assert stream.max_retained == 3
        assert len(stream) == 1


class TestCreditValve:
    def test_admit_caps_at_available_credits(self):
        valve = CreditValve(3, policy="drop")
        assert valve.admit(2) == 2
        assert valve.admit(5) == 1
        assert valve.credits == 0

    def test_drop_policy_counts_overflow(self):
        valve = CreditValve(1, policy="drop")
        valve.admit(1)
        valve.overflow([0.0, 1.0], ["x", "y"])
        assert valve.dropped == 2
        assert valve.take_spilled() == ([], [])

    def test_spill_policy_requeues_in_order(self):
        valve = CreditValve(1, policy="spill")
        valve.admit(1)
        valve.overflow([0.0, 1.0], ["x", "y"])
        assert valve.spilled == 2
        assert valve.spill_depth == 2
        assert valve.take_spilled() == ([0.0, 1.0], ["x", "y"])
        assert valve.spill_depth == 0

    def test_grant_restores_credits(self):
        valve = CreditValve(2, policy="drop")
        valve.admit(2)
        valve.grant(2)
        assert valve.credits == 2
        assert valve.granted == 2

    def test_rejects_bad_policy_and_credits(self):
        with pytest.raises(ValueError):
            CreditValve(0)
        with pytest.raises(ValueError):
            CreditValve(1, policy="block")


class TestSensorSourceBatching:
    @staticmethod
    def _timestamps(batch, jitter=0.3, seed=9):
        engine = SimulationEngine()
        stream = DataStream("r")
        source = SensorSource(
            engine, stream, period_s=0.5, jitter=jitter, until=8.0,
            seed=seed, batch=batch,
        )
        source.start()
        engine.run()
        return [e.timestamp for e in stream.elements], source

    def test_batched_emission_is_bit_identical_to_per_element(self):
        for batch in (2, 5, 16):
            per_element, src_1 = self._timestamps(1)
            batched, src_b = self._timestamps(batch)
            assert batched == per_element
            assert src_b.produced == src_1.produced
            assert src_b.emitted == src_1.emitted

    def test_batched_emission_uses_fewer_engine_events(self):
        engine_events = {}
        for batch in (1, 8):
            engine = SimulationEngine()
            stream = DataStream("r")
            SensorSource(
                engine, stream, period_s=0.1, until=20.0, batch=batch
            ).start()
            engine.run()
            engine_events[batch] = engine.dispatched_events
        assert engine_events[8] * 4 < engine_events[1]


class TestOperatorGraphAndPlane:
    @staticmethod
    def _platform_executor(engine):
        from repro.core.graph import TaskGraph
        from repro.executor.simulated import SimulatedExecutor
        from repro.scheduling import DataLocationService, LoadBalancingPolicy

        platform = make_fog_platform(num_edge=0, num_fog=1, num_cloud=1)
        return SimulatedExecutor(
            TaskGraph(),
            platform,
            policy=LoadBalancingPolicy(),
            engine=engine,
            locations=DataLocationService(),
        )

    def _run(self, build):
        engine = SimulationEngine()
        executor = self._platform_executor(engine)
        operators = OperatorGraph("g")
        feed = build(operators)
        plane = DataflowPlane(operators, executor, ingest_node="fog-0")
        plane.start()
        stream = operators.sources[0].stream
        for timestamp, value in feed:
            stream.publish(StreamElement(timestamp, value))
        engine.at(10.0, stream.close)
        for extra in operators.sources[1:]:
            engine.at(10.0, extra.stream.close)
        engine.run()
        return plane

    def test_keyed_window_partitions_by_key(self):
        def build(operators):
            source = operators.source("in")
            operators.tumbling_window(
                "agg", [source], 5.0, compute_fn=sum,
                key_fn=lambda v: v % 2,
            )
            return [(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)]

        plane = self._run(build)
        (result,) = [r for r in plane.results_of("agg") if r.element_count]
        assert result.value == {0: 6, 1: 4}

    def test_keyed_join_matches_on_intersection(self):
        def build(operators):
            left = operators.source("left")
            right = operators.source("right")
            operators.keyed_join(
                "join", left, right, 5.0,
                key_fn=lambda v: v % 3,
                join_fn=lambda key, lhs, rhs: (key, sorted(lhs), sorted(rhs)),
            )
            return []

        engine = SimulationEngine()
        executor = self._platform_executor(engine)
        operators = OperatorGraph("g")
        build(operators)
        plane = DataflowPlane(operators, executor, ingest_node="fog-0")
        plane.start()
        left, right = (s.stream for s in operators.sources)
        for t, v in [(0.0, 0), (1.0, 1), (2.0, 4)]:
            left.publish(StreamElement(t, v))
        for t, v in [(0.5, 3), (1.5, 7)]:
            right.publish(StreamElement(t, v))
        engine.at(10.0, left.close)
        engine.at(10.0, right.close)
        engine.run()
        (result,) = [r for r in plane.results_of("join") if r.element_count]
        # Keys 0 and 1 exist on both sides; key 4%3 == 1 joins with 7%3 == 1.
        assert result.value == {0: (0, [0], [3]), 1: (1, [1, 4], [7])}

    def test_batch_stage_runs_every_n_windows_with_dependencies(self):
        def build(operators):
            source = operators.source("in")
            window = operators.tumbling_window(
                "agg", [source], 1.0, compute_fn=sum
            )
            window.batch_every("recal", 3, fn=len)
            return [(float(i) + 0.5, 1) for i in range(6)]

        plane = self._run(build)
        recal = plane.results_of("recal")
        assert [r.value for r in recal] == [3, 3]
        assert plane.batch_tasks == 2

    def test_window_tasks_carry_content_keys(self):
        def build(operators):
            source = operators.source("in")
            operators.tumbling_window(
                "agg", [source], 5.0, compute_fn=sum, bytes_per_element=8.0
            )
            return [(0.0, 1), (1.0, 2)]

        engine = SimulationEngine()
        executor = self._platform_executor(engine)
        operators = OperatorGraph("g")
        feed = build(operators)
        plane = DataflowPlane(operators, executor, ingest_node="fog-0")
        plane.start()
        stream = operators.sources[0].stream
        for timestamp, value in feed:
            stream.publish(StreamElement(timestamp, value))
        engine.at(10.0, stream.close)
        engine.run()
        keys = [t.cache_key for t in executor.graph.tasks if t.label.startswith("g/agg")]
        assert keys and all(k for k in keys)

    def test_duplicate_operator_names_rejected(self):
        operators = OperatorGraph("g")
        source = operators.source("in")
        source.map("calib", lambda v: v)
        with pytest.raises(OperatorError):
            source.map("calib", lambda v: v)

    def test_batch_stages_do_not_stack(self):
        operators = OperatorGraph("g")
        source = operators.source("in")
        window = operators.tumbling_window("agg", [source], 1.0, compute_fn=sum)
        recal = window.batch_every("recal", 2, fn=len)
        with pytest.raises(OperatorError):
            recal.batch_every("again", 2, fn=len)

    def test_describe_names_every_node(self):
        operators = OperatorGraph("g")
        source = operators.source("in")
        chain = source.map("m", lambda v: v)
        operators.tumbling_window("agg", [chain], 1.0, compute_fn=sum)
        description = operators.describe()
        assert description["sources"] == ["in"]
        assert any("agg" in str(v) for v in description.values())


class TestColumnStream:
    """A stream keeps columns; records are built only when asked for."""

    def test_elements_and_since_round_trip_publish_and_publish_batch(self):
        stream = DataStream("s")
        stream.publish(StreamElement(0.5, "a", "s0"))
        stream.publish_batch([1.0, 1.0, 2.0], ["b", {"k": 1}, None], "s1")
        assert stream.prune_upto(1.0) == 1
        assert stream.elements == [
            StreamElement(1.0, "b", "s1"),
            StreamElement(1.0, {"k": 1}, "s1"),
            StreamElement(2.0, None, "s1"),
        ]
        stream.publish(StreamElement(2.5, 3))
        stream.publish_batch([3.0], [4.5], "s2")
        assert stream.prune_upto(2.25) == 3
        stream.publish_batch([4.0, 5.0], ["x", "y"])
        expected = [
            StreamElement(2.5, 3, ""),
            StreamElement(3.0, 4.5, "s2"),
            StreamElement(4.0, "x", ""),
            StreamElement(5.0, "y", ""),
        ]
        assert stream.elements == expected
        assert all(type(e) is StreamElement for e in stream.elements)
        assert stream.since(2.25) == expected
        assert stream.since(3.0) == expected[1:]
        assert stream.since(6.0) == []
        assert stream.total_published == 8

    def test_columns_of_unequal_length_are_refused(self):
        stream = DataStream("s")
        with pytest.raises(ValueError, match="2 timestamps for 1 values"):
            stream.publish_batch([1.0, 2.0], ["a"])
        assert len(stream) == 0

    def test_closed_check_comes_before_the_empty_batch(self):
        stream = DataStream("s")
        stream.close()
        with pytest.raises(RuntimeError, match="closed"):
            stream.publish_batch([], [])


class TestHotPathAllocations:
    def test_a_sensor_campaign_leaves_the_collector_idle(self):
        """100k elements from four 250 Hz sensors through map, filter and a
        5 s window: the path from source to window bucket allocates no
        per-element container, so the cyclic GC almost never runs (about
        140 collections when every element was a record)."""
        engine = SimulationEngine()
        executor = TestOperatorGraphAndPlane._platform_executor(engine)
        operators = OperatorGraph("g")
        valves = [CreditValve(3750, policy="spill") for _ in range(4)]
        chains = [
            operators.source(f"sensor-{s}", valve=valves[s])
            .map(f"scale-{s}", lambda v: v * 100.0)
            .filter(f"qc-{s}", lambda v: v > 0.0)
            for s in range(4)
        ]
        operators.tumbling_window(
            "agg", chains, 5.0, compute_fn=lambda values: sum(values) / len(values),
            bytes_per_element=64.0,
        )
        duration = 100_000 / (4 * 250.0)
        for s, source in enumerate(operators.sources):
            SensorSource(
                engine, source.stream, name=source.name, period_s=1 / 250.0,
                until=duration, seed=s, batch=50, valve=valves[s],
            ).start()
        plane = DataflowPlane(operators, executor, ingest_node="fog-0")
        plane.start()
        plane.close_sources_at(duration + 5.0)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            engine.run()
        finally:
            gc.callbacks.remove(count)
        assert plane.elements_ingested >= 100_000
        assert len(collections) <= 10, collections
