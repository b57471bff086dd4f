"""One dependency rule, two front-ends (E23).

The Access Processor and the simulated workflow builder both register their
accesses with :class:`repro.core.data.DependencyTracker`.  This module feeds
one random access program through both and requires the same graph, node for
node: task ids, dependency sets, barrier ids and barrier predecessors, and
the ready order while completions are replayed.  The simulated side is also
held to the naive per-reader rule (the real side is in
``test_access_processor_equivalence.py``, whose oracle is reused here), so a
fault in the shared flush cannot hide behind the two sides agreeing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.access_processor import WAR_FANIN_BARRIER_THRESHOLD, AccessProcessor
from repro.core.data import DataRegistry
from repro.core.graph import TaskGraph
from repro.executor.workflow_builder import SimWorkflowBuilder
from tests.test_access_processor_equivalence import DEFINITIONS, NaiveWarReference

DATA = 3


def _barriers(graph):
    return {
        t.task_id: graph.predecessors(t.task_id) for t in graph.tasks if t.is_barrier
    }


def _run(program, threshold):
    """Feed ``program`` — ``(op, datum, repeat)`` triples — through both
    front-ends; returns ``(real graph, simulated graph, task ids in order)``
    after checking every task's dependency set on the way."""
    # Neither front-end has a threshold argument (no caller varies it): the
    # tracker's own attribute is what the small-threshold runs set.
    real_graph = TaskGraph()
    ap = AccessProcessor(DataRegistry(), graph=real_graph)
    ap._tracker.threshold = threshold
    builder = SimWorkflowBuilder()
    builder._tracker.threshold = threshold
    naive = NaiveWarReference()
    pool = [[i] for i in range(DATA)]
    for index in range(DATA):
        builder.add_initial_datum(f"d{index}", 1.0)
    ordinal_of = {}
    for op, datum, repeat in program:
        for _ in range(repeat):
            registered = ap.register_task(DEFINITIONS[op], (pool[datum],), {})
            real_graph.add_task(registered.instance, registered.depends_on)
            name = f"d{datum}"
            simulated = builder.add_task(
                op,
                1.0,
                inputs=[name] if op != "write" else [],
                outputs={name: 1.0} if op != "read" else None,
            )
            task_id = simulated.task_id
            assert task_id == registered.instance.task_id
            sim_deps = builder.graph.predecessors(task_id)
            assert sim_deps == registered.depends_on
            # The simulated side against the naive per-reader rule.
            ordinal = ordinal_of[task_id] = len(ordinal_of) + 1
            expanded, stack = set(), list(sim_deps)
            while stack:
                dep = stack.pop()
                if dep in ordinal_of:
                    expanded.add(ordinal_of[dep])
                else:  # a barrier stands for its own predecessors
                    assert builder.graph.task(dep).is_barrier
                    stack.extend(builder.graph.predecessors(dep))
            assert expanded == naive.access(ordinal, op, datum)
    return real_graph, builder.graph, list(ordinal_of)


def _assert_same_graph_and_ready_order(real_graph, sim_graph, task_ids):
    assert _barriers(real_graph) == _barriers(sim_graph)
    assert real_graph.task_count == sim_graph.task_count
    while True:
        ready = [t.task_id for t in real_graph.ready_tasks()]
        assert ready == [t.task_id for t in sim_graph.ready_tasks()]
        if not ready:
            break
        for graph in (real_graph, sim_graph):
            graph.mark_running(ready[0], "n")
            graph.mark_done(ready[0])
    assert real_graph.finished and sim_graph.finished
    assert real_graph.completed_count == len(task_ids)


ops = st.sampled_from(["read", "read", "write", "update"])
data = st.integers(min_value=0, max_value=DATA - 1)
small_programs = st.lists(
    st.tuples(ops, data, st.integers(1, 3)), min_size=1, max_size=30
)
#: Runs of reads long enough to fill, and overfill, a 64-reader tail.
wide_programs = st.lists(
    st.tuples(ops, data, st.sampled_from([1, 1, 2, 63, 64, 65, 130])),
    min_size=1,
    max_size=8,
)


class TestRealAndSimulatedFrontEndsBuildTheSameGraph:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(small_programs, st.integers(min_value=1, max_value=8))
    def test_small_thresholds(self, program, threshold):
        _assert_same_graph_and_ready_order(*_run(program, threshold))

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wide_programs)
    def test_default_threshold(self, program):
        _assert_same_graph_and_ready_order(*_run(program, WAR_FANIN_BARRIER_THRESHOLD))

    def test_wide_fan_in_mints_barriers_on_both_sides(self):
        # Not vacuous: the shapes above do reach the flush.
        program = [("read", 0, 130), ("update", 0, 1), ("read", 0, 65), ("write", 0, 1)]
        real_graph, sim_graph, task_ids = _run(program, WAR_FANIN_BARRIER_THRESHOLD)
        assert real_graph.barrier_count == sim_graph.barrier_count == 3
        # Chained: the second barrier of the first version waits on the first.
        first, second, third = sorted(_barriers(sim_graph))
        assert first in sim_graph.predecessors(second)
        assert second not in sim_graph.predecessors(third)
        _assert_same_graph_and_ready_order(real_graph, sim_graph, task_ids)
