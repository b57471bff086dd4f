"""Tests for workflow modelling metrics (§VI-C)."""

import pytest

from repro.core.graph import TaskGraph, TaskInstance
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.metrics.model import analyze_graph
from repro.workloads import embarrassingly_parallel, fork_join_dag, task_chain


class TestWorkflowModel:
    def test_chain_metrics(self):
        builder = task_chain(10, duration=5.0)
        model = analyze_graph(builder.graph)
        assert model.task_count == 10
        assert model.total_work_s == pytest.approx(50.0)
        assert model.critical_path_s == pytest.approx(50.0)
        assert model.average_parallelism == pytest.approx(1.0)
        assert model.max_width == 1
        assert model.level_widths == [1] * 10

    def test_parallel_metrics(self):
        builder = embarrassingly_parallel(20, duration=5.0)
        model = analyze_graph(builder.graph)
        assert model.critical_path_s == pytest.approx(5.0)
        assert model.average_parallelism == pytest.approx(20.0)
        assert model.max_width == 20

    def test_fork_join_levels(self):
        builder = fork_join_dag(width=8, duration=1.0)
        model = analyze_graph(builder.graph)
        assert model.level_widths == [1, 8, 1]
        assert model.critical_path_s == pytest.approx(3.0)

    def test_speedup_bound_regimes(self):
        builder = embarrassingly_parallel(16, duration=10.0)
        model = analyze_graph(builder.graph)
        # Work-bound regime: p below parallelism -> speedup == p.
        assert model.speedup_bound(4) == pytest.approx(4.0)
        # Depth-bound regime: p above parallelism -> capped at T1/Tinf.
        assert model.speedup_bound(64) == pytest.approx(16.0)

    def test_bound_inputs_validated(self):
        model = analyze_graph(task_chain(2).graph)
        with pytest.raises(ValueError):
            model.speedup_bound(0)
        with pytest.raises(ValueError):
            model.makespan_lower_bound(-1)

    def test_a_forgotten_predecessor_counts_as_level_minus_one(self):
        # A real runtime's graph lets a DONE task go: its held successor
        # starts the levels, as it starts the critical path.
        graph = TaskGraph()
        graph.add_task(TaskInstance(task_id=1, label="a"))
        graph.mark_running(1, "n0")
        graph.mark_done(1)
        graph.forget(1)
        graph.add_task(TaskInstance(task_id=2, label="b"), depends_on=[1])
        model = analyze_graph(graph)
        assert model.level_widths == [1] and model.max_width == 1
        assert model.task_count == 2

    def test_simulated_makespan_respects_lower_bound(self):
        builder = fork_join_dag(width=32, duration=10.0)
        model = analyze_graph(builder.graph)
        platform = make_hpc_cluster(1, cores_per_node=8)
        report = SimulatedExecutor(builder.graph, platform).run()
        assert report.makespan >= model.makespan_lower_bound(8) - 1e-6
