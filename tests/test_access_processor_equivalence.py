"""Equivalence of the barrier-collapsing Access Processor vs naive WAR (PR 3).

The optimized AP bounds every writer's dependency set by flushing wide
reader fan-in behind structural barrier nodes.  This module pins the
*semantics* to a naive in-test reference that derives exact per-reader
RAW/WAW/WAR dependencies:

* the barrier-expanded dependency closure of every task must equal the
  naive dependency set exactly (hypothesis-driven random access programs,
  with a threshold low enough that barriers actually fire);
* the graphs must advance identically: the same set of (real) tasks is
  ready after every completion, and failure cancels the same set;
* structurally, an N-readers-then-1-writer program must give the writer
  O(threshold) direct dependencies — the sub-quadratic regression guard.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.access_processor import (
    WAR_FANIN_BARRIER_THRESHOLD,
    AccessProcessor,
)
from repro.core.data import DataRegistry
from repro.core.graph import TaskGraph
from repro.core.parameter import IN, INOUT, OUT
from repro.core.task_definition import TaskDefinition

#: Low threshold so short random programs exercise barrier flushes.
TEST_THRESHOLD = 3


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


def _run_program(program, threshold=TEST_THRESHOLD):
    """Feed ``program`` through the optimized AP and the naive reference.

    Returns (graph, per-task info) where info maps submission ordinal to
    ``(real task id, expanded optimized deps, naive deps)``.
    """
    graph = TaskGraph()
    ap = AccessProcessor(DataRegistry(), graph=graph)
    ap._tracker.threshold = threshold
    naive = NaiveWarReference()
    pool = [[i] for i in range(3)]  # distinct mutable objects
    id_to_ordinal = {}
    info = {}
    for ordinal, (op, datum) in enumerate(program, start=1):
        registered = ap.register_task(DEFINITIONS[op], (pool[datum],), {})
        graph.add_task(registered.instance, registered.depends_on)
        real_id = registered.instance.task_id
        id_to_ordinal[real_id] = ordinal
        expanded = set()
        stack = list(registered.depends_on)
        while stack:
            tid = stack.pop()
            mapped = id_to_ordinal.get(tid)
            if mapped is not None:
                expanded.add(mapped)
            else:  # barrier: stands for its own (already real) predecessors
                stack.extend(graph.predecessors(tid))
        info[ordinal] = (real_id, expanded, naive.access(ordinal, op, datum))
    return graph, id_to_ordinal, info


op_strategy = st.tuples(
    st.sampled_from(["read", "write", "update"]),
    st.integers(min_value=0, max_value=2),
)
programs = st.lists(op_strategy, min_size=1, max_size=40)


class TestBarrierApMatchesNaiveDependencies:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(programs)
    def test_expanded_dep_sets_are_exact(self, program):
        _, _, info = _run_program(program)
        for ordinal, (_, expanded, naive_deps) in info.items():
            assert expanded == naive_deps, (
                f"task #{ordinal}: optimized closure {sorted(expanded)} != "
                f"naive {sorted(naive_deps)}"
            )

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(programs)
    def test_ready_progression_matches_naive_graph(self, program):
        opt_graph, id_to_ordinal, info = _run_program(program)
        naive_graph = TaskGraph()
        for ordinal in sorted(info):
            _, _, naive_deps = info[ordinal]
            from repro.core.graph import TaskInstance

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

    def test_failed_reader_cancels_writer_through_barrier(self):
        # Enough readers to force a flush, then a writer: failing one
        # *flushed* reader must cancel the writer exactly as naive WAR
        # deps would, via the barrier's poisoning.
        program = [("read", 0)] * (2 * TEST_THRESHOLD) + [("write", 0)]
        graph, id_to_ordinal, info = _run_program(program)
        writer_ordinal = len(program)
        first_reader_id = info[1][0]
        writer_id = info[writer_ordinal][0]
        graph.mark_running(first_reader_id, "n")
        cancelled = graph.mark_failed(first_reader_id, RuntimeError("boom"))
        assert writer_id in cancelled
        # Barriers are internal: the cancellation report names real tasks only.
        assert all(tid in id_to_ordinal for tid in cancelled)


class TestWideFaninStaysBounded:
    def test_writer_dep_count_is_o_threshold_not_o_readers(self):
        n_readers = 5_000
        graph = TaskGraph()
        ap = AccessProcessor(DataRegistry(), graph=graph)
        shared = []
        for _ in range(n_readers):
            registered = ap.register_task(DEFINITIONS["read"], (shared,), {})
            graph.add_task(registered.instance, registered.depends_on)
        registered = ap.register_task(DEFINITIONS["write"], (shared,), {})
        # The whole point of PR 3's tentpole: O(1)-ish writer edges.
        assert len(registered.depends_on) <= WAR_FANIN_BARRIER_THRESHOLD + 2
        graph.add_task(registered.instance, registered.depends_on)
        assert graph.barrier_count >= (n_readers // WAR_FANIN_BARRIER_THRESHOLD) - 1
        # Correctness: the closure still dominates every reader.
        covered = set()
        stack = list(registered.depends_on)
        while stack:
            tid = stack.pop()
            if graph.task(tid).is_barrier:
                stack.extend(graph.predecessors(tid))
            else:
                covered.add(tid)
        assert len(covered) == n_readers

    def test_without_graph_falls_back_to_exact_deps(self):
        ap = AccessProcessor(DataRegistry())  # no graph: naive derivation
        shared = []
        n_readers = 2 * WAR_FANIN_BARRIER_THRESHOLD
        for _ in range(n_readers):
            ap.register_task(DEFINITIONS["read"], (shared,), {})
        registered = ap.register_task(DEFINITIONS["write"], (shared,), {})
        assert len(registered.depends_on) == n_readers

    def test_inout_on_wide_fanin_consumes_tail_directly(self):
        # An INOUT access must not flush (the barrier id would postdate the
        # task's own id); the tail is bounded, so deps stay bounded too.
        threshold = 4
        graph = TaskGraph()
        ap = AccessProcessor(DataRegistry(), graph=graph)
        ap._tracker.threshold = threshold
        shared = []
        for _ in range(threshold):  # exactly fills the tail, no flush yet
            registered = ap.register_task(DEFINITIONS["read"], (shared,), {})
            graph.add_task(registered.instance, registered.depends_on)
        registered = ap.register_task(DEFINITIONS["update"], (shared,), {})
        graph.add_task(registered.instance, registered.depends_on)
        assert len(registered.depends_on) == threshold  # the tail, no barrier
        assert graph.barrier_count == 0
