"""Tests for the workload generators and the fragmented baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FragmentedPipeline, run_fragmented, run_holistic
from repro.core.graph import TaskState
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.workloads import (
    GuidanceConfig,
    build_guidance_workflow,
    build_nmmb_workflow,
    NmmbConfig,
    embarrassingly_parallel,
    fork_join_dag,
    layered_random_dag,
    task_chain,
)
from repro.simulation.random import DeterministicRandom
from repro.workloads import synthetic
from repro.workloads.guidance import WORST_CASE_MEMORY_MB


class TestGuidanceGenerator:
    def test_task_and_file_counts(self):
        cfg = GuidanceConfig(chromosomes=2, chunks_per_chromosome=3)
        wl = build_guidance_workflow(cfg)
        # 2*3 chunks * 4 stage-tasks + 2 merges + 1 summary
        assert wl.task_count == 2 * 3 * 4 + 2 + 1
        assert len(wl.graph) == wl.task_count
        assert wl.file_count == 2 * 3 * 5 + 2 + 1
        assert wl.graph.validate_acyclic()

    def test_deterministic_generation(self):
        cfg = GuidanceConfig(chromosomes=2, chunks_per_chromosome=4, seed=1)
        a, b = build_guidance_workflow(cfg), build_guidance_workflow(cfg)
        assert a.imputation_memory_mb == b.imputation_memory_mb

    def test_memory_demands_within_guidance_range(self):
        wl = build_guidance_workflow(GuidanceConfig(chromosomes=4, chunks_per_chromosome=8))
        assert all(1_000 <= m <= WORST_CASE_MEMORY_MB for m in wl.imputation_memory_mb)
        # The distribution should actually vary (variable memory claim).
        assert len(set(wl.imputation_memory_mb)) > 5

    def test_static_mode_reserves_worst_case(self):
        wl = build_guidance_workflow(
            GuidanceConfig(chromosomes=1, chunks_per_chromosome=4, memory_mode="static")
        )
        imputes = [t for t in wl.graph.tasks if t.label.startswith("imputation")]
        assert all(t.requirements.memory_mb == WORST_CASE_MEMORY_MB for t in imputes)

    def test_executes_on_cluster(self):
        wl = build_guidance_workflow(GuidanceConfig(chromosomes=2, chunks_per_chromosome=2))
        platform = make_hpc_cluster(4)
        report = SimulatedExecutor(
            wl.graph, platform, initial_data=wl.initial_data
        ).run()
        assert report.tasks_done == wl.task_count

    def test_dynamic_memory_beats_static(self):
        # The E2 claim in miniature: dynamic constraints pack more tasks per
        # node, roughly halving the makespan.
        platform_kwargs = dict(num_nodes=2)
        dyn = build_guidance_workflow(
            GuidanceConfig(chromosomes=2, chunks_per_chromosome=8, memory_mode="dynamic")
        )
        stat = build_guidance_workflow(
            GuidanceConfig(chromosomes=2, chunks_per_chromosome=8, memory_mode="static")
        )
        r_dyn = SimulatedExecutor(
            dyn.graph, make_hpc_cluster(**platform_kwargs), initial_data=dyn.initial_data
        ).run()
        r_stat = SimulatedExecutor(
            stat.graph, make_hpc_cluster(**platform_kwargs), initial_data=stat.initial_data
        ).run()
        assert r_dyn.makespan < r_stat.makespan

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GuidanceConfig(memory_mode="banana")
        with pytest.raises(ValueError):
            GuidanceConfig(chromosomes=0)


class TestNmmbGenerator:
    def test_structure(self):
        cfg = NmmbConfig(days=2, init_scripts=4, post_tasks=3)
        builder = build_nmmb_workflow(cfg)
        # per day: 4 init + 1 pre + 1 sim + 3 post + 1 archive = 10
        assert len(builder.graph) == 20
        assert builder.graph.validate_acyclic()

    def test_days_chained_by_restart_file(self):
        builder = build_nmmb_workflow(NmmbConfig(days=2, init_scripts=2))
        sims = [t for t in builder.graph.tasks if "simulation" in t.label]
        assert len(sims) == 2
        # Day 1's simulation reads day 0's restart.
        assert "d0/restart" in sims[1].reads

    def test_parallel_init_faster_than_sequential(self):
        common = dict(days=2, init_scripts=8, mpi_nodes=2)
        par = build_nmmb_workflow(NmmbConfig(sequential_init=False, **common))
        seq = build_nmmb_workflow(NmmbConfig(sequential_init=True, **common))
        r_par = SimulatedExecutor(
            par.graph, make_hpc_cluster(4), initial_data=par.initial_data
        ).run()
        r_seq = SimulatedExecutor(
            seq.graph, make_hpc_cluster(4), initial_data=seq.initial_data
        ).run()
        assert r_par.makespan < r_seq.makespan
        assert r_par.tasks_done == r_seq.tasks_done

    def test_simulation_is_gang_task(self):
        builder = build_nmmb_workflow(NmmbConfig(days=1, mpi_nodes=4))
        sim = next(t for t in builder.graph.tasks if "simulation" in t.label)
        assert sim.requirements.nodes == 4
        assert "mpi" in sim.requirements.software


class TestSyntheticGenerators:
    def test_embarrassingly_parallel_counts(self):
        builder = embarrassingly_parallel(10, duration=1.0)
        assert len(builder.graph) == 10
        assert builder.graph.ready_count == 10

    def test_chain_is_sequential(self):
        builder = task_chain(5)
        assert builder.graph.ready_count == 1
        report = SimulatedExecutor(builder.graph, make_hpc_cluster(2)).run()
        assert report.makespan >= 50.0

    def test_fork_join_shape(self):
        builder = fork_join_dag(width=6)
        graph = builder.graph
        assert len(graph) == 8
        sink = graph.task(len(graph))
        assert len(graph.predecessors(sink.task_id)) == 6

    def test_layered_dag_deterministic(self):
        a = layered_random_dag([4, 8, 4], seed=3)
        b = layered_random_dag([4, 8, 4], seed=3)
        assert [t.label for t in a.graph.tasks] == [t.label for t in b.graph.tasks]
        assert [sorted(t.reads) for t in a.graph.tasks] == [
            sorted(t.reads) for t in b.graph.tasks
        ]

    def test_layered_dag_runs(self):
        builder = layered_random_dag([8, 16, 8, 1], seed=5)
        report = SimulatedExecutor(builder.graph, make_hpc_cluster(2)).run()
        assert report.tasks_done == 33

    def test_layered_dag_rejects_a_negative_fan_in(self):
        with pytest.raises(ValueError, match="fan_in must be >= 0, got -1"):
            layered_random_dag([4, 4], fan_in=-1)


def _wiring(builder):
    return [(t.label, t.reads, t.profile.duration_s) for t in builder.graph.tasks]


class _CountingRandom(random.Random):
    """The standard generator, counting the ``getrandbits`` calls behind
    every index it draws (``lognormvariate`` goes through ``random()`` and is
    not counted)."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


class TestLayeredDagDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        layers=st.lists(st.integers(1, 200), min_size=1, max_size=3),
        fan_in=st.integers(0, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_each_task_reads_distinct_outputs_of_the_previous_layer(
        self, layers, fan_in, seed
    ):
        builder = layered_random_dag(layers, seed=seed, fan_in=fan_in)
        tasks = builder.graph.tasks
        assert len(tasks) == sum(layers)
        previous = set()
        for width in layers:
            layer, tasks = tasks[:width], tasks[width:]
            for task in layer:
                assert len(task.reads) == min(fan_in, len(previous))
                assert len(set(task.reads)) == len(task.reads)
                assert set(task.reads) <= previous
            previous = {name for task in layer for name in task.writes}
        again = layered_random_dag(layers, seed=seed, fan_in=fan_in)
        assert _wiring(again) == _wiring(builder)

    def test_draws_per_task_do_not_grow_with_the_previous_layer(self, monkeypatch):
        streams = []

        class CountingStream(DeterministicRandom):
            def __init__(self, seed=0, name="root"):
                super().__init__(seed, name)
                self._rng = _CountingRandom(seed)
                streams.append(self._rng)

        readers, fan_in = 200, 3
        per_task = {}
        for width in (5, 64, 1000):
            plain = layered_random_dag([width, readers], seed=3, fan_in=fan_in)
            with monkeypatch.context() as patch:
                patch.setattr(synthetic, "DeterministicRandom", CountingStream)
                counted = layered_random_dag([width, readers], seed=3, fan_in=fan_in)
            # The counter is a spectator: the same stream, the same DAG.
            assert _wiring(counted) == _wiring(plain)
            per_task[width] = streams.pop().draws / readers
        # Each pick costs a few draws (rejection sampling); a shuffle of the
        # whole layer would cost about one per previous output.
        assert max(per_task.values()) <= 4 * fan_in, per_task
        assert per_task[1000] <= 1.5 * per_task[5], per_task


class TestFragmentedBaseline:
    @staticmethod
    def make_pipeline(widths=(8, 8, 8), duration=10.0):
        # Stage k task i depends (data-wise) only on stage k-1 task i:
        # a holistic runtime can pipeline items, a fragmented one cannot.
        stages = []
        for s, width in enumerate(widths):
            stage = []
            for i in range(width):
                spec = {
                    "label": f"s{s}t{i}",
                    "duration": duration * (1 + i % 3),
                    "outputs": {f"s{s}d{i}": 1e6},
                }
                if s > 0:
                    spec["inputs"] = [f"s{s-1}d{i}"]
                stage.append(spec)
            stages.append(stage)
        return FragmentedPipeline(stages=stages)

    def test_holistic_not_slower(self):
        pipeline = self.make_pipeline()
        platform_a = make_hpc_cluster(1, cores_per_node=8)
        platform_b = make_hpc_cluster(1, cores_per_node=8)
        frag = run_fragmented(pipeline, platform_a)
        holi = run_holistic(pipeline, platform_b)
        assert holi.tasks_done == frag.tasks_done
        assert holi.makespan <= frag.makespan

    def test_holistic_strictly_faster_with_skew(self):
        # Heavy duration skew: barriers wait for stragglers at each stage.
        pipeline = self.make_pipeline(widths=(16, 16, 16), duration=10.0)
        frag = run_fragmented(pipeline, make_hpc_cluster(1, cores_per_node=4))
        holi = run_holistic(pipeline, make_hpc_cluster(1, cores_per_node=4))
        assert holi.makespan < frag.makespan

    def test_worst_case_memory_inflation(self):
        pipeline = self.make_pipeline(widths=(8, 8))
        builder = pipeline.build_fragmented(worst_case_memory_mb=48_000)
        assert all(t.requirements.memory_mb == 48_000 for t in builder.graph.tasks)
