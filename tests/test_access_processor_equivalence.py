"""The Access Processor against the naive per-reader rule.

The AP derives RAW / WAW / WAR dependencies through
:class:`repro.core.data.DependencyTracker`, which on the real runtime sweeps
the readers the graph has forgotten out of a long reader list.  This module
pins the *semantics* to a naive in-test reference that derives exact
per-reader dependencies:

* with nothing forgotten, every dependency set equals the naive one
  (hypothesis-driven random access programs);
* with tasks finishing, failing and being forgotten between submissions, as
  on the real runtime, every dependency set equals the naive one minus ids
  the graph has forgotten — and a FAILED reader is never left out;
* the graphs advance identically: the same set of tasks is ready after
  every completion, and failure cancels the same set.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import data
from repro.core.access_processor import AccessProcessor
from repro.core.data import DataRegistry
from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.core.parameter import IN, INOUT, OUT
from repro.core.task_definition import TaskDefinition


def _noop(x):
    return None


#: One definition per access direction; the explicit annotation forces the
#: list argument to be tracked as a mutable object (no collection scan).
DEFINITIONS = {
    "read": TaskDefinition(_noop, param_directions={"x": IN}),
    "write": TaskDefinition(_noop, param_directions={"x": OUT}),
    "update": TaskDefinition(_noop, param_directions={"x": INOUT}),
}


class NaiveWarReference:
    """Exact per-reader dependency derivation, one ordinal per submission."""

    def __init__(self):
        self._state = {}  # datum index -> [writer ordinal | None, readers]

    def access(self, ordinal, op, datum):
        writer, readers = self._state.setdefault(datum, [None, []])
        deps = set()
        if op in ("read", "update"):
            if writer is not None:
                deps.add(writer)
            readers.append(ordinal)
        if op in ("write", "update"):
            if writer is not None:
                deps.add(writer)
            deps.update(readers)
            self._state[datum] = [ordinal, []]
        deps.discard(ordinal)
        return deps


def _run_program(program):
    """Feed ``program`` through the AP and the naive reference.

    Returns (graph, per-task info) where info maps submission ordinal to
    ``(task id, AP deps, naive deps)``.
    """
    graph = TaskGraph()
    ap = AccessProcessor(DataRegistry(), graph=graph)
    naive = NaiveWarReference()
    pool = [[i] for i in range(3)]  # distinct mutable objects
    id_to_ordinal = {}
    info = {}
    for ordinal, (op, datum) in enumerate(program, start=1):
        registered = ap.register_task(DEFINITIONS[op], (pool[datum],), {})
        graph.add_task(registered.instance, registered.depends_on)
        real_id = registered.instance.task_id
        id_to_ordinal[real_id] = ordinal
        deps = {id_to_ordinal[tid] for tid in registered.depends_on}
        info[ordinal] = (real_id, deps, naive.access(ordinal, op, datum))
    return graph, id_to_ordinal, info


op_strategy = st.tuples(
    st.sampled_from(["read", "write", "update"]),
    st.integers(min_value=0, max_value=2),
)
programs = st.lists(op_strategy, min_size=1, max_size=40)

#: Submissions interleaved with settles of the oldest ready task: ``done``
#: completes and forgets it, as the real runtime does; ``fail`` fails it,
#: and it stays.
runtime_ops = st.one_of(
    op_strategy,
    op_strategy,
    st.tuples(st.sampled_from(["done", "done", "done", "fail"]), st.just(0)),
)
runtime_programs = st.lists(runtime_ops, min_size=1, max_size=80)


class TestBarrierApMatchesNaiveDependencies:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(programs)
    def test_expanded_dep_sets_are_exact(self, program):
        _, _, info = _run_program(program)
        for ordinal, (_, deps, naive_deps) in info.items():
            assert deps == naive_deps, (
                f"task #{ordinal}: AP deps {sorted(deps)} != "
                f"naive {sorted(naive_deps)}"
            )

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(runtime_programs)
    def test_dep_sets_are_naive_minus_forgotten_ids(self, program):
        # A sweep floor of 2 sweeps every reader list at 2, 4, 8, ... ids,
        # so short programs reach it.
        with mock.patch.object(data, "SWEEP_FLOOR", 2):
            graph = TaskGraph()
            ap = AccessProcessor(DataRegistry(), graph=graph)
            naive = NaiveWarReference()
            pool = [[i] for i in range(3)]
            ordinal = 0
            for op, datum in program:
                if op in ("done", "fail"):
                    ready = graph.ready_tasks()
                    if not ready:
                        continue
                    tid = ready[0].task_id
                    graph.mark_running(tid, "n")
                    if op == "done":
                        graph.mark_done(tid)
                        graph.forget(tid)
                    else:
                        graph.mark_failed(tid, RuntimeError("boom"))
                    continue
                registered = ap.register_task(DEFINITIONS[op], (pool[datum],), {})
                ordinal += 1
                assert registered.instance.task_id == ordinal
                deps = registered.depends_on
                naive_deps = naive.access(ordinal, op, datum)
                assert deps <= naive_deps
                assert all(graph.forgotten(tid) for tid in naive_deps - deps)
                graph.add_task(registered.instance, deps)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(programs)
    def test_ready_progression_matches_naive_graph(self, program):
        opt_graph, id_to_ordinal, info = _run_program(program)
        naive_graph = TaskGraph()
        for ordinal in sorted(info):
            _, _, naive_deps = info[ordinal]
            naive_graph.add_task(
                TaskInstance(task_id=ordinal, label=f"n{ordinal}"), naive_deps
            )
        ordinal_to_id = {o: rid for o, (rid, _, _) in info.items()}
        while True:
            opt_ready = sorted(
                id_to_ordinal[t.task_id] for t in opt_graph.ready_tasks()
            )
            naive_ready = sorted(t.task_id for t in naive_graph.ready_tasks())
            assert opt_ready == naive_ready
            if not opt_ready:
                break
            ordinal = opt_ready[0]
            opt_graph.mark_running(ordinal_to_id[ordinal], "n")
            opt_graph.mark_done(ordinal_to_id[ordinal])
            naive_graph.mark_running(ordinal, "n")
            naive_graph.mark_done(ordinal)
        assert opt_graph.finished
        assert naive_graph.finished

    def test_failed_reader_cancels_the_writer(self):
        # A full reader list whose first reader failed and whose others were
        # forgotten: the sweep drops only the forgotten ones, so the failed
        # reader still cancels the writer, as naive WAR deps would.
        graph = TaskGraph()
        ap = AccessProcessor(DataRegistry(), graph=graph)
        shared = []

        def register(op):
            registered = ap.register_task(DEFINITIONS[op], (shared,), {})
            graph.add_task(registered.instance, registered.depends_on)
            return registered

        readers = [register("read").instance.task_id for _ in range(data.SWEEP_FLOOR)]
        graph.mark_running(readers[0], "n")
        graph.mark_failed(readers[0], RuntimeError("boom"))
        for tid in readers[1:]:
            graph.mark_running(tid, "n")
            graph.mark_done(tid)
            graph.forget(tid)
        late = register("read").instance.task_id
        record = ap.registry.record_for_object(shared)
        assert record.readers == [readers[0], late]
        writer = register("write")
        assert writer.depends_on == {readers[0], late}
        assert writer.instance.state is TaskState.CANCELLED


class TestWideFaninStaysBounded:
    def test_writer_depends_on_every_reader_the_graph_holds(self):
        n_readers = 5_000
        graph = TaskGraph()
        ap = AccessProcessor(DataRegistry(), graph=graph)
        shared = []
        readers = []
        for _ in range(n_readers):
            registered = ap.register_task(DEFINITIONS["read"], (shared,), {})
            graph.add_task(registered.instance, registered.depends_on)
            readers.append(registered.instance.task_id)
        registered = ap.register_task(DEFINITIONS["write"], (shared,), {})
        # Nothing was forgotten, so nothing was swept: every reader.
        assert registered.depends_on == set(readers)
        graph.add_task(registered.instance, registered.depends_on)
        assert graph.task_count == n_readers + 1

    def test_without_graph_falls_back_to_exact_deps(self):
        ap = AccessProcessor(DataRegistry())  # no graph: nothing to sweep
        shared = []
        n_readers = 2 * data.SWEEP_FLOOR
        for _ in range(n_readers):
            ap.register_task(DEFINITIONS["read"], (shared,), {})
        registered = ap.register_task(DEFINITIONS["write"], (shared,), {})
        assert len(registered.depends_on) == n_readers
