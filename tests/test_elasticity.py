"""Tests for cloud-provider elasticity and the SLURM-like job manager (C6)."""

import pytest

from repro.executor import SimulatedExecutor
from repro.infrastructure import (
    CloudProvider,
    ElasticityPolicy,
    Platform,
    SlurmManager,
    make_hpc_cluster,
)
from repro.infrastructure.cloud import VmTemplate
from repro.infrastructure.slurm import JobState
from repro.simulation import SimulationEngine
from repro.workloads import embarrassingly_parallel


class TestCloudProvider:
    def test_provisioning_after_startup_delay(self):
        platform = Platform()
        engine = SimulationEngine()
        provider = CloudProvider(platform, engine, startup_delay_s=60.0)
        ready = []
        provider.request_nodes(2, on_ready=lambda n: ready.append((engine.now, n.name)))
        engine.run()
        assert len(ready) == 2
        assert all(t == pytest.approx(60.0) for t, _ in ready)
        assert platform.total_cores == 2 * provider.template.cores

    def test_max_nodes_cap(self):
        platform = Platform()
        engine = SimulationEngine()
        provider = CloudProvider(platform, engine, max_nodes=3)
        assert provider.request_nodes(5) == 3
        engine.run()
        assert len(provider.active_nodes) == 3
        assert provider.request_nodes(1) == 0

    def test_release_bills_usage(self):
        platform = Platform()
        engine = SimulationEngine()
        provider = CloudProvider(
            platform, engine, startup_delay_s=10.0, cost_per_node_second=1.0
        )
        provider.request_nodes(1)
        engine.run()
        engine.at(110.0, lambda: provider.release_node(provider.active_nodes[0]))
        engine.run()
        assert provider.total_cost == pytest.approx(100.0)
        assert platform.nodes == []

    def test_release_unknown_node_rejected(self):
        platform = Platform()
        engine = SimulationEngine()
        provider = CloudProvider(platform, engine)
        with pytest.raises(ValueError):
            provider.release_node("ghost")


class TestElasticityPolicy:
    def test_scales_out_under_backlog_and_in_when_idle(self):
        platform = Platform()
        engine = SimulationEngine()
        provider = CloudProvider(
            platform,
            engine,
            startup_delay_s=20.0,
            template=VmTemplate(cores=4),
            max_nodes=8,
        )
        backlog = {"value": 100}
        policy = ElasticityPolicy(
            provider,
            engine,
            backlog_fn=lambda: backlog["value"],
            idle_nodes_fn=lambda: provider.active_nodes,  # all idle (no real tasks)
            period_s=10.0,
            idle_grace_s=30.0,
        )
        policy.start()
        # Backlog disappears at t=200; after the grace period VMs drain.
        engine.at(200.0, lambda: backlog.update(value=0))
        engine.at(600.0, policy.stop)
        engine.run()
        assert policy.scale_out_actions > 0
        assert policy.scale_in_actions > 0
        assert len(provider.active_nodes) <= 1  # min_nodes=0, drained

    def test_elastic_execution_beats_fixed_small_cluster(self):
        def run_fixed():
            builder = embarrassingly_parallel(200, duration=30.0)
            platform = make_hpc_cluster(1, cores_per_node=4)
            return SimulatedExecutor(builder.graph, platform).run()

        def run_elastic():
            builder = embarrassingly_parallel(200, duration=30.0)
            platform = make_hpc_cluster(1, cores_per_node=4)
            engine = SimulationEngine()
            executor = SimulatedExecutor(builder.graph, platform, engine=engine)
            provider = CloudProvider(
                platform,
                engine,
                startup_delay_s=30.0,
                template=VmTemplate(cores=8),
                max_nodes=10,
            )
            policy = ElasticityPolicy(
                provider,
                engine,
                backlog_fn=lambda: executor.graph.ready_count,
                idle_nodes_fn=lambda: [
                    n for n in provider.active_nodes
                    if executor.scheduler.ledger.has_node(n)
                    and executor.scheduler.ledger.state(n).idle
                ],
                period_s=15.0,
                scale_out_backlog=1.0,
            )
            policy.start()
            report = executor.run()
            policy.stop()
            return report

        fixed = run_fixed()
        elastic = run_elastic()
        assert elastic.tasks_done == fixed.tasks_done == 200
        assert elastic.makespan < fixed.makespan


class TestSlurmManager:
    def test_job_starts_when_nodes_free(self):
        platform = make_hpc_cluster(4)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        started = []
        job = slurm.submit(2, on_start=lambda j: started.append(engine.now))
        engine.run()
        assert started == [0.0]
        assert slurm.job(job.job_id).state is JobState.RUNNING
        assert len(job.allocated) == 2
        assert slurm.free_node_count == 2

    def test_fifo_queueing(self):
        platform = make_hpc_cluster(4)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        order = []
        first = slurm.submit(3, on_start=lambda j: order.append("first"))
        second = slurm.submit(3, on_start=lambda j: order.append("second"))
        engine.run()
        assert order == ["first"]
        engine.at(100.0, lambda: slurm.release(first.job_id))
        engine.run()
        assert order == ["first", "second"]
        assert second.wait_time == pytest.approx(100.0)

    def test_oversized_job_rejected(self):
        platform = make_hpc_cluster(2)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        with pytest.raises(ValueError):
            slurm.submit(5)

    def test_grow_request_granted_when_free(self):
        platform = make_hpc_cluster(4)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        grown = []
        job = slurm.submit(
            2, on_grow=lambda j, nodes: grown.append(list(nodes))
        )
        engine.run()
        slurm.request_grow(job.job_id, 2)
        engine.run()
        assert len(job.allocated) == 4
        assert len(grown[0]) == 2

    def test_grow_does_not_starve_queued_jobs(self):
        platform = make_hpc_cluster(4)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        job_a = slurm.submit(2)
        engine.run()
        job_b = slurm.submit(4)  # queued: needs everything
        engine.run()
        slurm.request_grow(job_a.job_id, 2)
        engine.run()
        # The grow must wait: job_b is ahead in the queue.
        assert len(job_a.allocated) == 2
        slurm.release(job_a.job_id)
        engine.run()
        assert job_b.state is JobState.RUNNING

    def test_release_twice_rejected(self):
        platform = make_hpc_cluster(2)
        engine = SimulationEngine()
        slurm = SlurmManager(platform, engine)
        job = slurm.submit(1)
        engine.run()
        slurm.release(job.job_id)
        with pytest.raises(ValueError):
            slurm.release(job.job_id)
