"""Tests for tracing, utilization, and store-vs-recompute metrics."""

import csv
import io

import pytest

from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster
from repro.metrics import (
    CostModelPolicy,
    IntermediateDatum,
    RecomputeAllPolicy,
    StoreAllPolicy,
    evaluate_policy,
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
        executor = SimulatedExecutor(builder.graph, platform)
        executor.run()
        return executor.log

    def test_rows_cover_done_tasks(self):
        rows = self.run_small().trace_rows()
        assert len(rows) == 3
        assert all(end >= start for _, _, _, start, end, _ in rows)

    def test_makespan_matches_latest_end(self):
        assert self.run_small().makespan() == pytest.approx(30.0)

    def test_rows_by_node_sorted(self):
        from repro.metrics.paraver import export_trace_csv

        by_node = {}
        for row in csv.DictReader(io.StringIO(export_trace_csv(self.run_small()))):
            by_node.setdefault(row["node"], []).append(float(row["start"]))
        for starts in by_node.values():
            assert starts == sorted(starts)

    def test_trace_rows_in_task_id_order(self):
        rows = self.run_small().trace_rows()
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_summary_fields(self):
        rows = self.run_small().trace_rows()
        durations = [end - start for _, _, _, start, end, _ in rows]
        assert len(rows) == 3
        assert sum(d * row[5] for d, row in zip(durations, rows)) == pytest.approx(40.0)
        assert sum(durations) / len(rows) > 0

    def test_utilization_bounds(self):
        log = self.run_small()
        value = log.utilization(total_cores=4)
        assert 0.0 < value <= 1.0
        # Single-core chain on a huge machine: near-zero utilization.
        assert log.utilization(total_cores=4800) < 0.01

    def test_utilization_requires_positive_cores(self):
        with pytest.raises(ValueError):
            self.run_small().utilization(total_cores=0)


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
        from repro.metrics.paraver import export_prv, export_trace_csv

        builder = SimWorkflowBuilder()
        builder.add_task("a", duration=5.0, outputs={"x": 1.0})
        builder.add_task("b", duration=7.0, inputs=["x"])
        executor = SimulatedExecutor(builder.graph, make_hpc_cluster(1))
        executor.run()

        prv, row_file = export_prv(executor.log)
        assert prv.startswith("#Paraver-like trace: tasks=2")
        assert "LEVEL NODE SIZE 1" in row_file
        assert len(prv.splitlines()) == 3  # header + 2 state records

        csv_text = export_trace_csv(executor.log)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(rows) == 2
        assert float(rows[0]["start"]) <= float(rows[1]["start"])
        assert float(rows[1]["end"]) == pytest.approx(12.0)

    def test_gang_task_counts_once_with_a_record_per_node(self):
        from repro.executor import SimulatedExecutor, SimWorkflowBuilder
        from repro.infrastructure import make_hpc_cluster
        from repro.metrics.paraver import export_prv

        builder = SimWorkflowBuilder()
        builder.add_task("gang", duration=5.0, nodes=2)
        executor = SimulatedExecutor(builder.graph, make_hpc_cluster(2))
        executor.run()

        prv, row_file = export_prv(executor.log)
        header, *records = prv.splitlines()
        assert header.startswith("#Paraver-like trace: tasks=1 nodes=2 ")
        # One state record per node of the gang, both for the same task.
        assert [r.split(":")[1] for r in records] == ["1", "2"]
        assert len({r.split(":")[2] for r in records}) == 1
        assert "LEVEL NODE SIZE 2" in row_file
