"""One dependency rule, two front-ends (E23).

The Access Processor and the simulated workflow builder both register their
accesses with :class:`repro.core.data.DependencyTracker`.  This module feeds
one random access program through both and requires the same graph, node for
node: task ids, dependency sets, and the ready order while completions are
replayed.  The simulated side is also held to the naive per-reader rule (the
real side is in ``test_access_processor_equivalence.py``, whose oracle is
reused here), so a fault in the shared rule cannot hide behind the two sides
agreeing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.access_processor import AccessProcessor
from repro.core.data import DataRegistry
from repro.core.graph import TaskGraph
from repro.executor.workflow_builder import SimWorkflowBuilder
from tests.test_access_processor_equivalence import DEFINITIONS, NaiveWarReference

DATA = 3


def _run(program):
    """Feed ``program`` — ``(op, datum, repeat)`` triples — through both
    front-ends; returns ``(real graph, simulated graph, task ids in order)``
    after checking every task's dependency set on the way."""
    real_graph = TaskGraph()
    ap = AccessProcessor(DataRegistry(), graph=real_graph)
    builder = SimWorkflowBuilder()
    naive = NaiveWarReference()
    pool = [[i] for i in range(DATA)]
    for index in range(DATA):
        builder.add_initial_datum(f"d{index}", 1.0)
    task_ids = []
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
            # The simulated side against the naive per-reader rule: with
            # one id per task, the ids are the naive rule's ordinals.
            task_ids.append(task_id)
            assert task_id == len(task_ids)
            assert sim_deps == naive.access(task_id, op, datum)
    return real_graph, builder.graph, task_ids


def _assert_same_graph_and_ready_order(real_graph, sim_graph, task_ids):
    assert real_graph.task_count == sim_graph.task_count == len(task_ids)
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
#: Runs of reads long enough to reach, and pass, the 64-reader sweep point.
wide_programs = st.lists(
    st.tuples(ops, data, st.sampled_from([1, 1, 2, 63, 64, 65, 130])),
    min_size=1,
    max_size=8,
)


class TestRealAndSimulatedFrontEndsBuildTheSameGraph:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(small_programs)
    def test_small_programs(self, program):
        _assert_same_graph_and_ready_order(*_run(program))

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wide_programs)
    def test_default_sweep_floor_reached(self, program):
        _assert_same_graph_and_ready_order(*_run(program))

    def test_wide_fan_in_gives_each_writer_every_reader(self):
        # Not vacuous: the shapes above do reach a sweep point (the real
        # side sweeps, and finds nothing forgotten).
        program = [("read", 0, 130), ("update", 0, 1), ("read", 0, 65), ("write", 0, 1)]
        real_graph, sim_graph, task_ids = _run(program)
        assert sim_graph.predecessors(131) == set(range(1, 131))
        assert sim_graph.predecessors(197) == set(range(131, 197))
        _assert_same_graph_and_ready_order(real_graph, sim_graph, task_ids)
