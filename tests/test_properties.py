"""Property-based tests (hypothesis) for the core invariants in DESIGN.md §4."""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Runtime, compss_wait_on, task
from repro.core.constraints import ResolvedRequirements
from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import Node, make_hpc_cluster
from repro.scheduling import LoadBalancingPolicy
from repro.scheduling.capacity import NodeCapacity
from repro.storage import ConsistentHashRing, KeyValueCluster, StorageDict

# ------------------------------------------------------------------ strategies

#: Edge structure for a random DAG: for each task i (1-based), a set of
#: predecessor offsets into earlier tasks.
random_dag = st.lists(
    st.lists(st.integers(min_value=1, max_value=8), max_size=3),
    min_size=1,
    max_size=30,
)


def build_graph(dep_offsets):
    graph = TaskGraph()
    for index, offsets in enumerate(dep_offsets, start=1):
        deps = {index - off for off in offsets if index - off >= 1}
        graph.add_task(
            TaskInstance(task_id=index, label=f"t{index}"), depends_on=deps
        )
    return graph


class TestGraphProperties:
    @given(random_dag)
    def test_graph_always_acyclic(self, dep_offsets):
        graph = build_graph(dep_offsets)
        assert graph.validate_acyclic()

    @given(random_dag)
    def test_ready_order_execution_completes_everything(self, dep_offsets):
        graph = build_graph(dep_offsets)
        steps = 0
        while not graph.finished:
            ready = graph.ready_tasks()
            assert ready, "graph stuck with unfinished tasks but nothing ready"
            for instance in ready:
                graph.mark_running(instance.task_id, "n", now=float(steps))
                graph.mark_done(instance.task_id, now=float(steps + 1))
            steps += 1
        assert graph.completed_count == len(graph)

    @given(random_dag)
    def test_ready_tasks_have_all_predecessors_done(self, dep_offsets):
        graph = build_graph(dep_offsets)
        while not graph.finished:
            ready = graph.ready_tasks()
            for instance in ready:
                for pred in graph.predecessors(instance.task_id):
                    assert graph.task(pred).state is TaskState.DONE
            instance = ready[0]
            graph.mark_running(instance.task_id, "n")
            graph.mark_done(instance.task_id)

    @given(random_dag, st.integers(min_value=0, max_value=29))
    def test_failure_cancels_exactly_descendant_cone(self, dep_offsets, victim_index):
        graph = build_graph(dep_offsets)
        victim = (victim_index % len(graph)) + 1
        # Compute the descendant cone independently.
        cone = set()
        frontier = [victim]
        while frontier:
            current = frontier.pop()
            for succ in graph.successors(current):
                if succ not in cone:
                    cone.add(succ)
                    frontier.append(succ)
        if graph.task(victim).state is TaskState.READY:
            graph.mark_failed(victim, RuntimeError("boom"))
            for tid in cone:
                assert graph.task(tid).state is TaskState.CANCELLED
            survivors = set(range(1, len(graph) + 1)) - cone - {victim}
            for tid in survivors:
                assert graph.task(tid).state in (TaskState.PENDING, TaskState.READY)


class TestSimulatorProperties:
    @staticmethod
    def builder_from(durations, chain_mask):
        builder = SimWorkflowBuilder()
        previous = None
        for index, (duration, chained) in enumerate(zip(durations, chain_mask)):
            inputs = [previous] if (chained and previous) else []
            builder.add_task(
                f"t{index}",
                duration=duration,
                inputs=inputs,
                outputs={f"d{index}": 10.0},
            )
            previous = f"d{index}"
        return builder

    @given(
        st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=1, max_size=25),
        st.lists(st.booleans(), min_size=25, max_size=25),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounded_by_critical_path_and_serial_time(
        self, durations, chain_mask, num_nodes
    ):
        builder = self.builder_from(durations, chain_mask)
        platform = make_hpc_cluster(num_nodes, cores_per_node=4)
        report = SimulatedExecutor(
            builder.graph, platform, policy=LoadBalancingPolicy()
        ).run()
        lower = builder.graph.critical_path_length(
            lambda t: t.profile.duration_s if t.profile else 0.0
        )
        serial = sum(durations)
        assert report.makespan >= lower - 1e-6
        # Transfers are tiny (10 bytes), so serial time (+slack) is an upper bound.
        assert report.makespan <= serial + 1.0
        assert report.tasks_done == len(durations)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_simulation_deterministic(self, durations, seed):
        def run():
            builder = SimWorkflowBuilder()
            for i, duration in enumerate(durations):
                builder.add_task(f"t{i}", duration=duration)
            platform = make_hpc_cluster(2, cores_per_node=3)
            return SimulatedExecutor(
                builder.graph, platform, policy=LoadBalancingPolicy()
            ).run()

        assert run().makespan == run().makespan


class TestCapacityProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=8_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_ledger_never_negative_and_restores(self, demands):
        node = Node("n", cores=16, memory_mb=32_000)
        state = NodeCapacity.for_node(node)
        held = []
        for index, (cores, memory) in enumerate(demands):
            demand = ResolvedRequirements(cores=cores, memory_mb=memory)
            if state.fits_now(demand):
                state.allocate(index, demand)
                held.append((index, demand))
            assert 0 <= state.free_cores <= node.cores
            assert 0 <= state.free_memory_mb <= node.memory_mb
        for index, demand in held:
            state.release(index, demand)
        assert state.free_cores == node.cores
        assert state.free_memory_mb == node.memory_mb


class TestRingProperties:
    @given(
        st.sets(st.text(min_size=1, max_size=8), min_size=2, max_size=8),
        st.lists(st.text(min_size=1, max_size=16), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=4),
    )
    def test_replicas_distinct_and_stable(self, nodes, keys, replication):
        ring = ConsistentHashRing(virtual_nodes=16)
        for node in sorted(nodes):
            ring.add_node(node)
        placements = {}
        for key in keys:
            replicas = ring.replicas_for(key, replication)
            assert len(replicas) == len(set(replicas)) == min(replication, len(nodes))
            placements[key] = replicas
        # Lookup is a pure function of the ring state.
        for key in keys:
            assert ring.replicas_for(key, replication) == placements[key]

    @given(
        st.sets(st.text(min_size=1, max_size=8), min_size=2, max_size=6),
        st.lists(st.text(min_size=1, max_size=16), min_size=5, max_size=40, unique=True),
    )
    def test_join_only_moves_keys_to_new_node(self, nodes, keys):
        ring = ConsistentHashRing(virtual_nodes=16)
        for node in sorted(nodes):
            ring.add_node(node)
        before = {key: ring.primary_for(key) for key in keys}
        ring.add_node("zz-new-node")
        for key in keys:
            now = ring.primary_for(key)
            assert now == before[key] or now == "zz-new-node"


class TestStorageDictModel:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "del", "get"]),
                st.integers(min_value=0, max_value=10),
                st.integers(),
            ),
            max_size=50,
        )
    )
    def test_matches_plain_dict(self, ops):
        cluster = KeyValueCluster([f"n{i}" for i in range(3)], replication=2)
        table = StorageDict(cluster, "model")
        model = {}
        for op, key, value in ops:
            if op == "set":
                table[key] = value
                model[key] = value
            elif op == "del" and key in model:
                del table[key]
                del model[key]
            elif op == "get":
                assert table.get(key, None) == model.get(key, None)
        assert sorted(table.keys()) == sorted(model.keys())
        assert dict(table.items()) == model


class TestRuntimeSemanticsProperty:
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_wait_on_equals_sequential(self, values):
        @task(returns=1)
        def square_plus(x):
            return x * x + 1

        expected = [v * v + 1 for v in values]
        with Runtime(workers=4):
            futures = [square_plus(v) for v in values]
            assert compss_wait_on(futures) == expected

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=25))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tree_reduce_equals_functools_reduce(self, values):
        @task(returns=1)
        def add(a, b):
            return a + b

        # A pairwise tree: each level's adds read the futures of the level
        # below, an odd tail is carried up unchanged.
        with Runtime(workers=4):
            level = list(values)
            while len(level) > 1:
                pairs = [add(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
                level = pairs + level[len(pairs) * 2:]
            total = compss_wait_on(level[0])
        assert total == functools.reduce(lambda a, b: a + b, values)
