"""The placement pass on its own: no engine, no threads.

:class:`PlacementPass` is the one dispatch loop of both executors.  Its
blocked-demand frontier and blocked-prefix snapshot claim to place exactly
what a loop that probes every ready task would place, in the same order, on
the same nodes.  Here a hypothesis program drives a bare ``TaskGraph`` +
``TaskScheduler`` the way the real runtime does — completions, failures,
withdrawals and appends between passes, capacity fixed during one — and
compares every pass against that naive loop.  A real ``Runtime`` run then
checks that a kick replays a non-empty snapshot without oversubscribing a
node.
"""

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Runtime, compss_wait_on, constraint, task
from repro.core.constraints import ResolvedRequirements
from repro.core.graph import SimProfile, TaskGraph, TaskInstance, TaskState
from repro.infrastructure import Node
from repro.infrastructure.platform import Platform
from repro.scheduling.locations import DataLocationService
from repro.scheduling.policies import EarliestFinishTimePolicy, LoadBalancingPolicy
from repro.scheduling.scheduler import PlacementPass, TaskScheduler
from tests.test_placement_equivalence import DeclineOncePolicy

#: (cores, memory_mb, speed_factor) per node: no node dominates another.
_NODES = ((4, 8_000, 1.0), (2, 16_000, 0.75), (8, 4_000, 0.5))


def naive_pass(graph, scheduler, window, start):
    """The definitional loop: probe every ready task, remember nothing."""
    failures = 0
    for instance in graph.iter_ready():
        if scheduler.ledger.total_free_cores <= 0:
            break
        nodes = scheduler.try_place(instance)
        if nodes is None:
            failures += 1
            if failures >= window:
                break
            continue
        failures = 0
        start(instance, nodes)


class World:
    """One graph + scheduler + policy, and the placements made on it."""

    def __init__(self, policy_name):
        self.platform = Platform(name="pass")
        for index, (cores, memory_mb, speed) in enumerate(_NODES):
            self.platform.add_node(
                Node(name=f"n{index}", cores=cores, memory_mb=memory_mb, speed_factor=speed)
            )
        if policy_name == "load-balancing":
            policy = LoadBalancingPolicy()
        elif policy_name == "decline-once":
            policy = DeclineOncePolicy()
        else:
            policy = EarliestFinishTimePolicy(
                DataLocationService(), self.platform.network, decline_slowdown_factor=1.4
            )
        self.graph = TaskGraph()
        self.scheduler = TaskScheduler(self.platform, policy)
        self.placements = []
        self.next_id = 1

    def start(self, instance, nodes):
        self.graph.mark_running(instance.task_id, nodes[0])
        instance.assigned_nodes = tuple(nodes)
        self.placements.append((instance.task_id, tuple(nodes)))

    def running(self):
        return sorted(t.task_id for t in self.graph.tasks if t.state is TaskState.RUNNING)

    def apply(self, op):
        kind, a, b = op
        if kind == "append":
            task_id = self.next_id
            self.next_id += 1
            # Every third task waits on an earlier one: it joins the ready
            # queue's tail when that one completes.
            depends_on = [a % (task_id - 1) + 1] if task_id > 1 and b % 3 == 0 else []
            self.graph.add_task(
                TaskInstance(
                    task_id=task_id,
                    label=f"t{task_id}",
                    requirements=ResolvedRequirements(
                        cores=(1, 1, 1, 2, 2, 4, 8)[a % 7],
                        memory_mb=(0, 1_000, 3_000, 6_000, 12_000)[b % 5],
                    ),
                    profile=SimProfile(duration_s=10.0),
                ),
                depends_on,
            )
        elif kind in ("complete", "fail"):
            running = self.running()
            if running:
                instance = self.graph.task(running[a % len(running)])
                self.scheduler.release(instance)
                if kind == "complete":
                    self.graph.mark_done(instance.task_id)
                else:
                    self.graph.mark_failed(instance.task_id, RuntimeError("failed"))
        elif kind == "withdraw":
            ready = [t.task_id for t in self.graph.iter_ready()]
            if ready:
                self.graph.mark_failed(ready[a % len(ready)], RuntimeError("withdrawn"))


_OPS = st.tuples(
    st.sampled_from(["append", "append", "append", "complete", "complete", "fail", "withdraw"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


def _assert_same_placements(fast, naive, rounds, window):
    """Apply each round's ops to both worlds, then pass over each."""
    placement = PlacementPass(fast.graph, fast.scheduler, window)
    for ops in rounds:
        for op in ops:
            fast.apply(op)
            naive.apply(op)
        placement.run(fast.start)
        naive_pass(naive.graph, naive.scheduler, window, naive.start)
        assert fast.placements == naive.placements


class TestPassMatchesNaiveLoop:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rounds=st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=20),
        window=st.sampled_from([1, 3, 64]),
        policy=st.sampled_from(["load-balancing", "decline-once", "eft-decline"]),
    )
    def test_same_placements_in_the_same_order(self, rounds, window, policy):
        _assert_same_placements(World(policy), World(policy), rounds, window)

    def test_decline_during_replay_ends_the_certified_run(self):
        # Task 4 is blocked for memory, then declined on the node that grew:
        # it stays queued without a proof, so the next pass must ask again
        # instead of refuting it off the snapshot.
        fast, naive = World("decline-once"), World("decline-once")
        for world in (fast, naive):
            world.scheduler.policy._asked.update({1, 2, 3})  # never declined
        rounds = [[("append", 0, 8)] * 4, [("complete", 1, 0)], []]
        _assert_same_placements(fast, naive, rounds, 64)
        assert fast.placements[-1] == (4, ("n1",))

    def test_snapshot_replay_places_on_the_grown_node_only(self):
        world = World("load-balancing")
        placement = PlacementPass(world.graph, world.scheduler)
        for _ in range(6):  # one core and 6 GB each, no dependency
            world.apply(("append", 0, 8))
        placement.run(world.start)
        assert [nodes for _, nodes in world.placements] == [("n0",), ("n1",), ("n1",)]
        assert [demand[3] for demand in placement.prefix] == [4, 5, 6]
        world.apply(("complete", 0, 0))  # frees 6 GB on n0
        placement.run(world.start)
        assert world.placements[-1] == (4, ("n0",))
        assert [demand[3] for demand in placement.prefix] == [5, 6]


@constraint(cores=1, memory_mb=600)
@task(returns=1)
def hold_memory(index):
    time.sleep(0.001)
    return index


def test_real_runtime_replays_the_blocked_prefix():
    # Two nodes with spare cores but memory for one task each: every kick
    # after the first finds the blocked backlog in its snapshot.
    platform = Platform(name="two")
    for name in ("a", "b"):
        platform.add_node(Node(name=name, cores=2, memory_mb=1_000))
    with Runtime(platform=platform, pool_size=2) as rt:
        ledger = rt.scheduler.ledger
        grown_since = ledger.grown_since
        walks = []
        oversubscribed = []

        def counting_grown_since(seq):  # called only by a prefix replay
            walks.append(seq)
            return grown_since(seq)

        start = rt.executor._start

        def checked_start(instance, nodes):
            start(instance, nodes)
            used = {}
            for t in rt.graph.tasks:
                if t.state is TaskState.RUNNING:
                    node = t.assigned_nodes[0]
                    used[node] = used.get(node, 0) + t.requirements.memory_mb
            oversubscribed.extend(node for node, mb in used.items() if mb > 1_000)

        ledger.grown_since = counting_grown_since
        rt.executor._start = checked_start
        futures = rt.submit_many(hold_memory, [((i,),) for i in range(40)])
        assert compss_wait_on(futures, timeout=30) == list(range(40))
        stats = rt.statistics()
    assert stats["tasks_done"] == 40 and stats["tasks_failed"] == 0
    assert walks and not oversubscribed
