"""Tests for tracing, utilization, and store-vs-recompute metrics."""

import pytest

from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster
from repro.metrics import (
    CostModelPolicy,
    IntermediateDatum,
    RecomputeAllPolicy,
    StoreAllPolicy,
    TraceCollector,
    evaluate_policy,
    utilization,
)
from repro.metrics.data_metrics import StorageMedium


class TestTracing:
    @staticmethod
    def run_small():
        builder = SimWorkflowBuilder()
        builder.add_task("a", duration=10.0, outputs={"x": 1e6})
        builder.add_task("b", duration=20.0, inputs=["x"])
        builder.add_task("c", duration=10.0)
        platform = make_hpc_cluster(1, cores_per_node=4)
        SimulatedExecutor(builder.graph, platform).run()
        return builder.graph

    def test_rows_cover_done_tasks(self):
        graph = self.run_small()
        rows = TraceCollector(graph).rows()
        assert len(rows) == 3
        assert all(row.end >= row.start for row in rows)

    def test_makespan_matches_latest_end(self):
        graph = self.run_small()
        collector = TraceCollector(graph)
        assert collector.makespan() == pytest.approx(30.0)

    def test_rows_by_node_sorted(self):
        graph = self.run_small()
        by_node = TraceCollector(graph).rows_by_node()
        for rows in by_node.values():
            starts = [r.start for r in rows]
            assert starts == sorted(starts)

    def test_summary_fields(self):
        summary = TraceCollector(self.run_small()).summary()
        assert summary["tasks"] == 3
        assert summary["busy_core_seconds"] == pytest.approx(40.0)
        assert summary["mean_task_duration"] > 0

    def test_utilization_bounds(self):
        graph = self.run_small()
        value = utilization(graph, total_cores=4)
        assert 0.0 < value <= 1.0
        # Single-core chain on a huge machine: near-zero utilization.
        assert utilization(graph, total_cores=4800) < 0.01

    def test_utilization_requires_positive_cores(self):
        with pytest.raises(ValueError):
            utilization(self.run_small(), total_cores=0)


class TestStoreVsRecompute:
    def test_cheap_small_data_gets_stored(self):
        # Expensive to compute, tiny to store: store wins.
        datum = IntermediateDatum("d", compute_cost_s=100.0, size_bytes=1e6, accesses=3)
        assert CostModelPolicy().should_store(datum, StorageMedium())

    def test_huge_cheap_data_gets_recomputed(self):
        # Trivial to regenerate, enormous to store: recompute wins.
        datum = IntermediateDatum("d", compute_cost_s=0.1, size_bytes=1e12, accesses=2)
        assert not CostModelPolicy().should_store(datum, StorageMedium())

    def test_unaccessed_data_never_stored_by_cost_model(self):
        datum = IntermediateDatum("d", compute_cost_s=100.0, size_bytes=1e6, accesses=0)
        assert not CostModelPolicy().should_store(datum, StorageMedium())

    def test_cost_model_dominates_extremes(self):
        data = [
            IntermediateDatum(f"cheap-{i}", compute_cost_s=0.05, size_bytes=5e10, accesses=4)
            for i in range(10)
        ] + [
            IntermediateDatum(f"costly-{i}", compute_cost_s=500.0, size_bytes=1e7, accesses=4)
            for i in range(10)
        ]
        store = evaluate_policy(StoreAllPolicy(), data)
        recompute = evaluate_policy(RecomputeAllPolicy(), data)
        smart = evaluate_policy(CostModelPolicy(), data)
        assert smart.total_time_s <= store.total_time_s
        assert smart.total_time_s <= recompute.total_time_s
        assert smart.total_time_s < min(store.total_time_s, recompute.total_time_s)

    def test_evaluation_counts(self):
        data = [IntermediateDatum("d", compute_cost_s=1.0, size_bytes=1e6, accesses=5)]
        recompute = evaluate_policy(RecomputeAllPolicy(), data)
        assert recompute.recomputations == 5
        assert recompute.stored_bytes == 0
        store = evaluate_policy(StoreAllPolicy(), data)
        assert store.recomputations == 0
        assert store.stored_bytes == 1e6

    def test_invalid_datum_rejected(self):
        with pytest.raises(ValueError):
            IntermediateDatum("d", compute_cost_s=-1, size_bytes=0, accesses=0)
        with pytest.raises(ValueError):
            IntermediateDatum("d", compute_cost_s=0, size_bytes=-1, accesses=0)
        with pytest.raises(ValueError):
            IntermediateDatum("d", compute_cost_s=0, size_bytes=0, accesses=-1)


class TestParaverExport:
    def test_prv_and_csv_roundtrip(self):
        from repro.executor import SimulatedExecutor, SimWorkflowBuilder
        from repro.infrastructure import make_hpc_cluster
        from repro.metrics.paraver import export_prv, export_trace_csv, load_trace_csv

        builder = SimWorkflowBuilder()
        builder.add_task("a", duration=5.0, outputs={"x": 1.0})
        builder.add_task("b", duration=7.0, inputs=["x"])
        SimulatedExecutor(builder.graph, make_hpc_cluster(1)).run()

        prv, row_file = export_prv(builder.graph)
        assert prv.startswith("#Paraver-like trace: tasks=2")
        assert "LEVEL NODE SIZE 1" in row_file
        assert len(prv.splitlines()) == 3  # header + 2 state records

        csv_text = export_trace_csv(builder.graph)
        rows = load_trace_csv(csv_text)
        assert len(rows) == 2
        assert rows[0].start <= rows[1].start
        assert rows[1].end == pytest.approx(12.0)
