"""Property-based tests for the newer subsystems (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TaskGraph
from repro.executor import SimulatedExecutor
from repro.frontends import CyclingSuite, SuiteTask
from repro.infrastructure import make_hpc_cluster
from repro.intelligence import DurationPredictor, TaskMemoizer
from repro.metrics.model import analyze_graph
from repro.simulation import SimulationEngine
from repro.streams import DataflowPlane, OperatorGraph, SensorSource


class TestSuiteProperties:
    @given(
        st.integers(min_value=1, max_value=6),   # task types
        st.integers(min_value=1, max_value=8),   # cycles
        st.integers(min_value=0, max_value=3),   # self-offset for chaining
        st.booleans(),
    )
    def test_expansion_counts_and_acyclicity(self, types, cycles, offset, chain_prev):
        suite = CyclingSuite("p")
        previous = None
        for index in range(types):
            depends = []
            if previous is not None:
                depends.append(previous)
            if chain_prev and offset > 0:
                depends.append(f"t{index}[-{offset}]")
            suite.add_task(SuiteTask(f"t{index}", duration=1.0, depends=depends))
            previous = f"t{index}"
        builder = suite.expand(cycles)
        assert len(builder.graph) == types * cycles
        assert builder.graph.validate_acyclic()

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_expanded_suites_always_executable(self, types, cycles):
        suite = CyclingSuite("q")
        previous = None
        for index in range(types):
            depends = [previous] if previous else []
            if index == 0:
                depends.append(f"t0[-1]")
            suite.add_task(SuiteTask(f"t{index}", duration=2.0, depends=depends))
            previous = f"t{index}"
        builder = suite.expand(cycles)
        report = SimulatedExecutor(builder.graph, make_hpc_cluster(2)).run()
        assert report.tasks_done == types * cycles


class TestMemoizerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["store", "lookup"]),
                st.integers(min_value=0, max_value=8),
                st.integers(),
            ),
            max_size=60,
        )
    )
    def test_matches_reference_dict(self, ops):
        memo = TaskMemoizer(max_entries=1000)
        reference = {}
        for op, arg, value in ops:
            key = f"task/x={arg}"
            if op == "store":
                memo.store(key, value)
                reference[key] = value
            else:
                found, got = memo.lookup(key)
                assert found == (key in reference)
                if found:
                    assert got == reference[key]

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=40))
    def test_eviction_bounds_size(self, max_entries, inserts):
        memo = TaskMemoizer(max_entries=max_entries)
        for i in range(inserts):
            memo.store(f"t/i={i}", i)
        assert len(memo) <= max_entries
        # The most recent insert always survives.
        found, value = memo.lookup(f"t/i={inserts - 1}")
        assert found and value == inserts - 1


class TestPredictorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_prediction_equals_mean_without_sizes(self, durations):
        predictor = DurationPredictor()
        for duration in durations:
            predictor.observe("work#1", duration)
        expected = sum(durations) / len(durations)
        assert abs(predictor.predict("work#2") - expected) < max(1e-6, 1e-9 * abs(expected))

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=4, max_size=30, unique=True),
    )
    def test_exact_linear_relation_recovered(self, slope, intercept, sizes):
        predictor = DurationPredictor()
        for size in sizes:
            predictor.observe("scan#1", duration=intercept + slope * size, size=size)
        probe = 123.0
        predicted = predictor.predict("scan#9", size=probe)
        expected = intercept + slope * probe
        assert abs(predicted - expected) <= max(1e-5, 1e-5 * expected)


class TestStreamProperties:
    @given(
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=10, max_value=60),
    )
    @settings(max_examples=20, deadline=None)
    def test_windows_partition_elements(self, period, window, campaign):
        engine = SimulationEngine()
        executor = SimulatedExecutor(TaskGraph(), make_hpc_cluster(1), engine=engine)
        operators = OperatorGraph("g")
        source = operators.source("r")
        source.tumbling_window("w", window, len)
        SensorSource(
            engine, source.stream, period_s=period, until=float(campaign)
        ).start()
        plane = DataflowPlane(
            operators, executor, ingest_node=executor.platform.nodes[0].name
        )
        plane.start()
        plane.close_sources_at(campaign + window)
        engine.run()
        results = plane.results_of("w")
        # Every element lands in exactly one window...
        assert sum(r.element_count for r in results) == source.stream.total_published
        assert [r.value for r in results] == [r.element_count for r in results]
        # ...and windows never overlap: ordered, disjoint spans (a start is
        # computed as end - width, so up to an ulp of the grid).
        spans = [(r.window_start, r.window_end) for r in results]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s1 < s2 and e1 <= s2 + 1e-9


class TestModelProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30),
        st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_model_bounds_are_consistent(self, durations, chain_mask):
        from repro.executor import SimWorkflowBuilder

        builder = SimWorkflowBuilder()
        previous = None
        for index, (duration, chained) in enumerate(zip(durations, chain_mask)):
            inputs = [previous] if (chained and previous) else []
            builder.add_task(
                f"t{index}", duration=duration, inputs=inputs,
                outputs={f"d{index}": 1.0},
            )
            previous = f"d{index}"
        model = analyze_graph(builder.graph)
        assert model.critical_path_s <= model.total_work_s + 1e-9
        assert model.average_parallelism >= 1.0 - 1e-9
        assert sum(model.level_widths) == model.task_count
        # Speedup bound is monotone in cores and capped by parallelism.
        assert model.speedup_bound(1) <= model.speedup_bound(8) + 1e-9
        assert model.speedup_bound(10_000) <= model.average_parallelism + 1e-6
