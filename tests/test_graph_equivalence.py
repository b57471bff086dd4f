"""Equivalence of the O(1) TaskGraph against a naive reference (PR 2).

The optimized graph keeps incrementally-maintained state counters and an
intrusive linked-list ready queue; this module pins its observable behavior
to :class:`NaiveTaskGraph`, a straight re-implementation of the seed's
O(tasks)-per-operation semantics (full-graph scans for ``finished`` /
``pending_count`` / ``running_count``, a plain list with ``list.remove``
for the ready queue).  A hypothesis-driven interpreter executes random
add/start/done/fail/requeue programs against both and asserts identical
ready order, counters and ``finished`` after every single step, plus the
order of ``mark_done``'s newly-ready list, of ``mark_failed``'s cancelled
cone and of every ``successors()`` set.  The optimized graph keeps a lone
successor as its bare id and a list of ids in arrival order from the
second on, read as a set built from that list; the model keeps a set from
the start.  Successor ids that collide in a set table land where the build
order puts them, so any drift in that order shows up as a different order
here.

Also here: regression coverage for ``dispatch_window`` head-of-line
semantics, which must survive the indexed-queue rewrite.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.graph import GraphError, SimProfile, TaskGraph, TaskInstance, TaskState
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster
from repro.metrics.model import analyze_graph

TERMINAL = (TaskState.DONE, TaskState.FAILED, TaskState.CANCELLED)


class NaiveTaskGraph:
    """Reference implementation with the seed's O(n) bookkeeping.

    Deliberately mirrors the original code path-for-path (including the
    exponential-on-diamonds cancellation walk, minus its runtime cost for
    the small graphs used here) so any behavioral drift in the optimized
    graph shows up as a divergence, not a silent reinterpretation.
    """

    def __init__(self):
        self._tasks = {}
        self._successors = {}
        self._predecessors = {}
        self._unfinished_preds = {}
        self._ready = []
        self.completed_count = 0
        self.failed_count = 0
        self.cancelled_count = 0

    def __len__(self):
        return len(self._tasks)

    def add_task(self, instance, depends_on=()):
        tid = instance.task_id
        deps = set(depends_on)
        self._tasks[tid] = instance
        self._predecessors[tid] = deps
        self._successors[tid] = set()
        poisoned = False
        unfinished = 0
        for dep in deps:
            self._successors[dep].add(tid)
            dep_state = self._tasks[dep].state
            if dep_state in (TaskState.FAILED, TaskState.CANCELLED):
                poisoned = True
            elif dep_state is not TaskState.DONE:
                unfinished += 1
        self._unfinished_preds[tid] = unfinished
        if poisoned:
            instance.state = TaskState.CANCELLED
            self.cancelled_count += 1
        elif unfinished == 0:
            instance.state = TaskState.READY
            self._ready.append(tid)

    def ready_ids(self):
        return list(self._ready)

    def successors(self, task_id):
        return set(self._successors[task_id])

    def mark_running(self, task_id, node_name, now=0.0):
        self._ready.remove(task_id)
        self._tasks[task_id].state = TaskState.RUNNING

    def requeue(self, task_id):
        self._tasks[task_id].state = TaskState.READY
        self._ready.append(task_id)

    def mark_done(self, task_id, now=0.0):
        self._tasks[task_id].state = TaskState.DONE
        self.completed_count += 1
        newly_ready = []
        for succ in self._successors[task_id]:
            successor = self._tasks[succ]
            if successor.state is not TaskState.PENDING:
                continue
            self._unfinished_preds[succ] -= 1
            if self._unfinished_preds[succ] == 0:
                successor.state = TaskState.READY
                self._ready.append(succ)
                newly_ready.append(succ)
        return newly_ready

    def mark_failed(self, task_id, error, now=0.0):
        instance = self._tasks[task_id]
        if instance.state is TaskState.READY:
            self._ready.remove(task_id)
        instance.state = TaskState.FAILED
        self.failed_count += 1
        cancelled = []
        frontier = list(self._successors[task_id])
        seen = set(frontier)  # bound the walk; cancellation set is identical
        while frontier:
            tid = frontier.pop()
            descendant = self._tasks[tid]
            if descendant.state in (TaskState.PENDING, TaskState.READY):
                if descendant.state is TaskState.READY:
                    self._ready.remove(tid)
                descendant.state = TaskState.CANCELLED
                self.cancelled_count += 1
                cancelled.append(tid)
                for succ in self._successors[tid]:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        return cancelled

    @property
    def finished(self):
        return all(t.state in TERMINAL for t in self._tasks.values())

    @property
    def pending_count(self):
        return sum(1 for t in self._tasks.values() if t.state is TaskState.PENDING)

    @property
    def running_count(self):
        return sum(1 for t in self._tasks.values() if t.state is TaskState.RUNNING)


# One program step: an opcode plus draws used to pick targets/dependencies.
dep_picks = st.lists(st.integers(min_value=0, max_value=10 ** 9), max_size=3)
op = st.tuples(
    st.sampled_from(["add", "start", "done", "fail", "requeue"]),
    st.integers(min_value=0, max_value=10 ** 9),
    dep_picks,
)
programs = st.lists(op, min_size=1, max_size=60)
#: Tasks added before a program runs, so most nodes have several successors.
prefixes = st.lists(dep_picks, max_size=24)


def check_agreement(optimized, naive):
    assert [t.task_id for t in optimized.ready_tasks()] == naive.ready_ids()
    assert optimized.ready_count == len(naive.ready_ids())
    assert optimized.pending_count == naive.pending_count
    assert optimized.running_count == naive.running_count
    assert optimized.completed_count == naive.completed_count
    assert optimized.failed_count == naive.failed_count
    assert optimized.cancelled_count == naive.cancelled_count
    assert optimized.finished == naive.finished
    for tid in naive._tasks:
        assert list(optimized.successors(tid)) == list(naive.successors(tid))


def _fan_out(graph, root, successors):
    graph.add_task(TaskInstance(task_id=root, label=f"t{root}"))
    for tid in successors:
        graph.add_task(TaskInstance(task_id=tid, label=f"t{tid}"), depends_on=[root])


class TestOptimizedGraphMatchesNaiveReference:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(programs, st.integers(min_value=1, max_value=64), prefixes)
    def test_random_programs_agree_at_every_step(self, program, first_id, prefix):
        # Ids from ``first_id`` on, dependencies on any earlier task: a
        # node's successor ids wrap and collide in a small set table, so a
        # set no longer iterates in insertion order and build order decides
        # where colliding ids land.
        optimized = TaskGraph()
        naive = NaiveTaskGraph()
        next_id = first_id
        running = []
        for opcode, pick, picks in [("add", 0, p) for p in prefix] + program:
            if opcode == "add":
                earlier = next_id - first_id
                deps = {first_id + p % earlier for p in picks} if earlier else set()
                optimized.add_task(
                    TaskInstance(task_id=next_id, label=f"t{next_id}"),
                    depends_on=deps,
                )
                naive.add_task(
                    TaskInstance(task_id=next_id, label=f"t{next_id}"),
                    depends_on=deps,
                )
                next_id += 1
            elif opcode == "start":
                ready = naive.ready_ids()
                if ready:
                    tid = ready[pick % len(ready)]
                    optimized.mark_running(tid, "n")
                    naive.mark_running(tid, "n")
                    running.append(tid)
            elif opcode == "done":
                if running:
                    tid = running.pop(pick % len(running))
                    newly_ready = optimized.mark_done(tid)
                    assert [t.task_id for t in newly_ready] == naive.mark_done(tid)
            elif opcode == "fail":
                candidates = naive.ready_ids() + running
                if candidates:
                    tid = candidates[pick % len(candidates)]
                    assert optimized.mark_failed(
                        tid, RuntimeError("boom")
                    ) == naive.mark_failed(tid, RuntimeError("boom"))
                    if tid in running:
                        running.remove(tid)
            elif opcode == "requeue":
                if running:
                    tid = running.pop(pick % len(running))
                    optimized.requeue(tid)
                    naive.requeue(tid)
            check_agreement(optimized, naive)

    @pytest.mark.parametrize(
        "successors, set_order",
        [
            ((13, 17), [17, 13]),  # 17 % 8 < 13 % 8: the set iterates 17 first
            # Both hash to slot 5: 13 keeps it, 21 probes on to slot 2 (built
            # as 21 then 13, the set would iterate 13 first).
            ((13, 21), [21, 13]),
        ],
    )
    def test_second_successor_builds_the_set_in_arrival_order(
        self, successors, set_order
    ):
        # The lone id and then the list must read as exactly the set
        # {first} + .add(second).
        for fail in (False, True):
            optimized, naive = TaskGraph(), NaiveTaskGraph()
            for graph in (optimized, naive):
                _fan_out(graph, 10, successors)
                graph.mark_running(10, "n")
            assert list(optimized.successors(10)) == set_order
            check_agreement(optimized, naive)
            if fail:
                cancelled = optimized.mark_failed(10, RuntimeError("boom"))
                assert cancelled == naive.mark_failed(10, RuntimeError("boom"))
                assert cancelled == set_order[::-1]  # popped from the tail
            else:
                newly_ready = [t.task_id for t in optimized.mark_done(10)]
                assert newly_ready == naive.mark_done(10) == set_order
                assert [t.task_id for t in optimized.ready_tasks()] == set_order
            check_agreement(optimized, naive)

    @pytest.mark.parametrize("fan_out", [5, 8, 19])
    def test_successor_order_survives_the_set_table_resizes(self, fan_out):
        # Ids 10 + 8k all hash to one slot of the first 8-slot table; the
        # 5th successor grows the table to 32 and the 19th to 128, and
        # ids re-collide at each size.  The graph stores them as a list in
        # arrival order, so only a set built by adding them one by one, as
        # the model does, lands each id where the model has it.
        successors = tuple(10 + 8 * k for k in range(1, fan_out + 1))
        for fail in (False, True):
            optimized, naive = TaskGraph(), NaiveTaskGraph()
            for graph in (optimized, naive):
                _fan_out(graph, 10, successors)
                graph.mark_running(10, "n")
            # The walks visit the model's own set; a copy of it, which is
            # what successors() returns, may be laid out in a smaller table.
            set_order = list(naive._successors[10])
            assert set_order != list(successors)  # the walk order is the set's
            assert list(optimized.successors(10)) == list(naive.successors(10))
            if fail:
                cancelled = optimized.mark_failed(10, RuntimeError("boom"))
                assert cancelled == naive.mark_failed(10, RuntimeError("boom"))
                assert cancelled == set_order[::-1]
            else:
                newly_ready = [t.task_id for t in optimized.mark_done(10)]
                assert newly_ready == naive.mark_done(10) == set_order
                assert [t.task_id for t in optimized.ready_tasks()] == set_order
            check_agreement(optimized, naive)

    def test_a_lone_successor_is_still_a_set(self):
        graph = TaskGraph()
        _fan_out(graph, 10, (13,))
        assert graph.successors(10) == {13} and graph.successors(13) == set()
        assert graph._successors[10] == 13  # no one-element set is kept

    def test_requeue_moves_task_to_queue_tail(self):
        graph = TaskGraph()
        for tid in (1, 2, 3):
            graph.add_task(TaskInstance(task_id=tid, label=f"t{tid}"))
        graph.mark_running(1, "n")
        graph.requeue(1)
        assert [t.task_id for t in graph.ready_tasks()] == [2, 3, 1]

    def test_iter_ready_tolerates_removal_of_yielded_task(self):
        graph = TaskGraph()
        for tid in (1, 2, 3, 4):
            graph.add_task(TaskInstance(task_id=tid, label=f"t{tid}"))
        seen = []
        for instance in graph.iter_ready():
            seen.append(instance.task_id)
            graph.mark_running(instance.task_id, "n")
        assert seen == [1, 2, 3, 4]
        assert graph.ready_count == 0

    def test_interleaved_start_and_fail_keeps_counters_exact(self):
        graph = TaskGraph()
        graph.add_task(TaskInstance(task_id=1, label="a"))
        graph.add_task(TaskInstance(task_id=2, label="b"), depends_on=[1])
        graph.add_task(TaskInstance(task_id=3, label="c"), depends_on=[2])
        graph.mark_running(1, "n")
        assert (graph.running_count, graph.pending_count) == (1, 2)
        graph.mark_failed(1, RuntimeError("boom"))
        assert (graph.running_count, graph.pending_count) == (0, 0)
        assert graph.cancelled_count == 2
        assert graph.finished

    def test_diamond_cancellation_counts_each_descendant_once(self):
        # Stacked diamonds: without a visited set the frontier re-expands
        # shared children exponentially; counters must still be exact.
        graph = TaskGraph()
        graph.add_task(TaskInstance(task_id=1, label="root"))
        tid = 2
        previous = [1]
        for _layer in range(8):
            left = TaskInstance(task_id=tid, label=f"l{tid}")
            right = TaskInstance(task_id=tid + 1, label=f"r{tid}")
            join = TaskInstance(task_id=tid + 2, label=f"j{tid}")
            graph.add_task(left, depends_on=previous)
            graph.add_task(right, depends_on=previous)
            graph.add_task(join, depends_on=[tid, tid + 1])
            previous = [tid + 2]
            tid += 3
        graph.mark_running(1, "n")
        cancelled = graph.mark_failed(1, RuntimeError("boom"))
        assert len(cancelled) == len(set(cancelled)) == 24
        assert graph.cancelled_count == 24
        assert graph.finished


#: One step of a real runtime's graph: add a task on one to three earlier
#: ones (held or forgotten; the first task is the only source), start one,
#: finish one and keep it, settle one (finish and forget it, as the runtime
#: does), fail one, or forget a kept DONE task.
forget_op = st.tuples(
    st.sampled_from(["add", "add", "start", "done", "settle", "fail", "forget"]),
    st.integers(min_value=0, max_value=10 ** 9),
    st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1, max_size=3),
)


def _duration(tid):
    # Whole seconds: sums and maxima are exact in any order.
    return float(tid % 5 + 1)


class TestPredecessorsAfterForgets:
    """A lone predecessor is kept as its bare id and any other count as a
    tuple; every reader must see the plain set of ids the task was added
    on, forgotten ones included, and the graph-wide walks must count a
    forgotten predecessor as adding nothing."""

    @staticmethod
    def _reference_model(graph, preds):
        held = sorted(t.task_id for t in graph.tasks)
        longest, level, widths = {}, {}, {}
        for tid in held:
            longest[tid] = _duration(tid) + max(
                (longest.get(p, 0.0) for p in preds[tid]), default=0.0
            )
            level[tid] = max((level.get(p, -1) for p in preds[tid]), default=-1) + 1
            widths[level[tid]] = widths.get(level[tid], 0) + 1
        critical = max(longest.values(), default=0.0)
        return critical, [widths[d] for d in sorted(widths)]

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.lists(forget_op, min_size=10, max_size=60))
    @example([("add", 0, [0]), ("add", 0, [0]), ("start", 0, [0]), ("settle", 0, [0])])
    def test_random_dags_with_forgets_match_a_plain_set_reference(self, program):
        graph = TaskGraph()
        preds = {}  # every task ever added -> the set of ids it depends on
        forgotten = set()
        running = []
        for opcode, pick, picks in program:
            if opcode == "add":
                tid = len(preds) + 1
                deps = {1 + p % (tid - 1) for p in picks} if tid > 1 else set()
                graph.add_task(
                    TaskInstance(
                        task_id=tid,
                        label=f"t{tid}",
                        profile=SimProfile(duration_s=_duration(tid)),
                    ),
                    depends_on=deps,
                )
                preds[tid] = deps
            elif opcode == "start":
                ready = [t.task_id for t in graph.ready_tasks()]
                if ready:
                    tid = ready[pick % len(ready)]
                    graph.mark_running(tid, "n")
                    running.append(tid)
            elif opcode in ("done", "settle") and running:
                tid = running.pop(pick % len(running))
                graph.mark_done(tid)
                if opcode == "settle":
                    graph.forget(tid)
                    forgotten.add(tid)
            elif opcode == "fail" and running:
                graph.mark_failed(running.pop(pick % len(running)), RuntimeError("x"))
            elif opcode == "forget":
                done = [t.task_id for t in graph.tasks if t.state is TaskState.DONE]
                if done:
                    tid = done[pick % len(done)]
                    graph.forget(tid)
                    forgotten.add(tid)
            for tid, deps in preds.items():
                if tid in forgotten:
                    assert tid not in graph and graph.forgotten(tid)
                    assert graph.predecessors(tid) == set()
                else:
                    assert graph.predecessors(tid) == deps
            assert graph.validate_acyclic()
            critical, level_widths = self._reference_model(graph, preds)
            assert graph.critical_path_length(lambda t: _duration(t.task_id)) == critical
            model = analyze_graph(graph)
            assert model.critical_path_s == critical
            assert model.level_widths == level_widths
            assert model.task_count == len(preds)
            assert model.total_work_s == sum(
                _duration(tid) for tid in preds if tid not in forgotten
            )

    def test_a_lone_predecessor_is_its_id(self):
        graph = TaskGraph()
        _fan_out(graph, 10, (13,))
        graph.add_task(TaskInstance(task_id=14, label="t14"), depends_on=[10, 13])
        assert graph._predecessors[13] == 10  # no one-element tuple is kept
        assert graph.predecessors(13) == {10} and graph.predecessors(10) == set()
        assert graph.predecessors(14) == {10, 13}
        assert graph.validate_acyclic()


class TestDispatchWindowSemantics:
    """``dispatch_window`` head-of-line behavior with the indexed queue."""

    @staticmethod
    def _blocked_head_workflow():
        # On one 48-core / 96 GB node: huge0 (90 GB) runs immediately and
        # huge1 (90 GB) blocks at the queue head; the four 1 GB smalls
        # queued behind it fit in the remaining 6 GB right away — iff the
        # dispatch window lets the scan look past the blocked head.
        builder = SimWorkflowBuilder()
        for i in range(2):
            builder.add_task(f"huge{i}", duration=100.0, memory_mb=90_000)
        for i in range(4):
            builder.add_task(f"small{i}", duration=1.0, memory_mb=1_000)
        return builder

    def test_large_window_places_past_blocked_prefix(self):
        builder = self._blocked_head_workflow()
        platform = make_hpc_cluster(1)  # one 48-core / 96 GB node
        report = SimulatedExecutor(
            builder.graph, platform, dispatch_window=64
        ).run()
        assert report.tasks_done == 6
        small_ends = sorted(
            t.end_time for t in builder.graph.tasks if t.label.startswith("small")
        )
        huge_ends = sorted(
            t.end_time for t in builder.graph.tasks if t.label.startswith("huge")
        )
        assert huge_ends == [100.0, 200.0]
        # With a wide window the scheduler looks past the blocked huge1 and
        # backfills the smalls immediately.
        assert small_ends == [1.0, 1.0, 1.0, 1.0]

    def test_window_of_one_enforces_strict_head_of_line(self):
        builder = self._blocked_head_workflow()
        platform = make_hpc_cluster(1)
        report = SimulatedExecutor(
            builder.graph, platform, dispatch_window=1
        ).run()
        assert report.tasks_done == 6
        small_starts = sorted(
            t.start_time for t in builder.graph.tasks if t.label.startswith("small")
        )
        # Strict FIFO: nothing may overtake the blocked huge1 head, so no
        # small task starts before both huge tasks have been dispatched.
        assert small_starts[0] >= 100.0

    def test_blocked_requirement_skip_counts_toward_window(self):
        # Three identically-shaped unplaceable tasks then a small one: with
        # dispatch_window=3 the repeated (cached) capacity failures must
        # still consume the window and stop the scan before the small task.
        builder = SimWorkflowBuilder()
        for i in range(3):
            builder.add_task(f"huge{i}", duration=10.0, memory_mb=200_000)
        builder.add_task("small", duration=1.0, memory_mb=1_000)
        platform = make_hpc_cluster(1)
        executor = SimulatedExecutor(builder.graph, platform, dispatch_window=3)
        executor._dispatch()
        assert builder.graph.task(4).state is TaskState.READY  # not started
        assert executor.graph.running_count == 0
