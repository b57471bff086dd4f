"""Unit tests for the task graph: states, dependencies, failure propagation."""

import pytest

from repro.core.constraints import ResolvedRequirements
from repro.core.graph import (
    GraphError,
    SimProfile,
    TaskGraph,
    TaskInstance,
    TaskState,
)


def make_task(task_id, label=None):
    return TaskInstance(task_id=task_id, label=label or f"t{task_id}")


class TestGraphConstruction:
    def test_independent_tasks_immediately_ready(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2))
        assert graph.ready_count == 2

    def test_dependent_task_pending(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        assert graph.task(2).state is TaskState.PENDING

    def test_duplicate_id_rejected(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        with pytest.raises(GraphError):
            graph.add_task(make_task(1))

    def test_forgotten_id_rejected(self):
        """A forgotten id reads as DONE through ``admitted``: adding it again
        would make that answer ambiguous, so it is a duplicate."""
        graph = TaskGraph()
        for tid in range(3):
            graph.add_task(make_task(tid))
            graph.mark_running(tid, "n0")
            graph.mark_done(tid)
        graph.forget(2)
        for tid in range(3):
            with pytest.raises(GraphError, match="duplicate"):
                graph.add_task(make_task(tid))
        assert graph.highest_id == 2 and graph.admitted(2) and 2 not in graph
        graph.add_task(make_task(3))
        assert graph.task(3).state is TaskState.READY and graph.highest_id == 3

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(GraphError):
            graph.add_task(make_task(2), depends_on=[1])

    def test_forward_dependency_rejected(self):
        # Depending on a not-yet-registered (>= own id) task would allow
        # cycles; the graph forbids it structurally.
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2))
        with pytest.raises(GraphError):
            graph.add_task(make_task(3), depends_on=[3])

    def test_dependency_on_done_task_counts_satisfied(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.mark_running(1, "n0")
        graph.mark_done(1)
        graph.add_task(make_task(2), depends_on=[1])
        assert graph.task(2).state is TaskState.READY


class TestLifecycle:
    def test_completion_unblocks_successors(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        graph.add_task(make_task(3), depends_on=[1, 2])
        graph.mark_running(1, "n0", now=0.0)
        newly = graph.mark_done(1, now=1.0)
        assert [t.task_id for t in newly] == [2]
        graph.mark_running(2, "n0", now=1.0)
        newly = graph.mark_done(2, now=2.0)
        assert [t.task_id for t in newly] == [3]

    def test_cannot_complete_unstarted_task(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        with pytest.raises(GraphError):
            graph.mark_done(1)

    def test_cannot_start_pending_task(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        with pytest.raises(GraphError):
            graph.mark_running(2, "n0")

    def test_requeue_returns_task_to_ready(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.mark_running(1, "n0", now=1.0)
        graph.requeue(1)
        instance = graph.task(1)
        assert instance.state is TaskState.READY
        assert instance.assigned_node is None
        assert instance.attempts == 1
        graph.mark_running(1, "n1", now=2.0)
        assert instance.attempts == 2

    def test_finished_predicate(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        assert not graph.finished
        graph.mark_running(1, "n0")
        graph.mark_done(1)
        assert graph.finished


class TestFailurePropagation:
    def build_diamond(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        graph.add_task(make_task(3), depends_on=[1])
        graph.add_task(make_task(4), depends_on=[2, 3])
        return graph

    def test_failure_cancels_descendant_cone(self):
        graph = self.build_diamond()
        graph.mark_running(1, "n0")
        cancelled = graph.mark_failed(1, ValueError("boom"))
        assert sorted(cancelled) == [2, 3, 4]
        assert graph.finished
        assert graph.failed_count == 1
        assert graph.cancelled_count == 3

    def test_sibling_branch_survives(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2))
        graph.add_task(make_task(3), depends_on=[2])
        graph.mark_running(1, "n0")
        graph.mark_failed(1, ValueError("boom"))
        assert graph.task(2).state is TaskState.READY
        assert graph.task(3).state is TaskState.PENDING

    def test_new_task_on_failed_ancestor_cancelled_immediately(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.mark_running(1, "n0")
        graph.mark_failed(1, ValueError("boom"))
        graph.add_task(make_task(2), depends_on=[1])
        assert graph.task(2).state is TaskState.CANCELLED

    def test_ready_task_can_fail_directly(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.mark_failed(1, RuntimeError("lost inputs"))
        assert graph.task(1).state is TaskState.FAILED
        assert graph.ready_count == 0


class TestQueries:
    def test_critical_path(self):
        graph = TaskGraph()
        t1 = make_task(1)
        t1.profile = SimProfile(duration_s=10.0)
        t2 = make_task(2)
        t2.profile = SimProfile(duration_s=5.0)
        t3 = make_task(3)
        t3.profile = SimProfile(duration_s=7.0)
        graph.add_task(t1)
        graph.add_task(t2, depends_on=[1])
        graph.add_task(t3)  # independent
        length = graph.critical_path_length(lambda t: t.profile.duration_s)
        assert length == pytest.approx(15.0)

    def test_validate_acyclic(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        assert graph.validate_acyclic()

    def test_counts(self):
        graph = TaskGraph()
        graph.add_task(make_task(1))
        graph.add_task(make_task(2), depends_on=[1])
        assert graph.pending_count == 1
        graph.mark_running(1, "n")
        assert graph.running_count == 1


class TestSimProfile:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimProfile(duration_s=-1.0)


class TestResolvedRequirementsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ResolvedRequirements(cores=0)
        with pytest.raises(ValueError):
            ResolvedRequirements(memory_mb=-1)
        with pytest.raises(ValueError):
            ResolvedRequirements(gpus=-1)
        with pytest.raises(ValueError):
            ResolvedRequirements(nodes=0)
