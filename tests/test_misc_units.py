"""Unit tests for smaller components: futures, offloading policies, Gantt."""

import pytest

from repro.agents.offloading import (
    AlwaysOffload,
    LoadThresholdOffload,
    NeverOffload,
    PeerInfo,
)
from repro.core.data import Datum
from repro.core.futures import Future
from repro.core.graph import TaskInstance
from repro.metrics.gantt import render_gantt


class TestFuture:
    def test_resolution_lifecycle(self):
        future = Future(Datum("d1"), 1)
        assert not future.resolved
        with pytest.raises(RuntimeError):
            future.value()
        future.resolve(42)
        assert future.resolved
        assert future.value() == 42

    def test_double_resolution_rejected(self):
        future = Future(Datum("d1"), 1)
        future.resolve(1)
        with pytest.raises(RuntimeError):
            future.resolve(2)

    def test_failed_future_reraises(self):
        future = Future(Datum("d1"), 1)
        error = ValueError("boom")
        future.fail(error)
        assert future.resolved
        with pytest.raises(ValueError):
            future.value()

    def test_unique_ids(self):
        # A future is known by identity: two over the same datum stay two.
        datum = Datum("x")
        a, b = Future(datum, 1), Future(datum, 1)
        assert a != b and len({a, b}) == 2
        a.resolve(1)
        assert not b.resolved


def peer(name, cores=4, kind="fog", outstanding=0, speed=1.0):
    return PeerInfo(
        name=name, cores=cores, speed_factor=speed, kind=kind, outstanding=outstanding
    )


def fake_task():
    return TaskInstance(task_id=1, label="t1")


class TestOffloadingPolicies:
    def test_never_offload_ignores_peers(self):
        local = peer("local", outstanding=100)
        peers = [peer("cloud", kind="cloud")]
        assert NeverOffload().choose(fake_task(), local, peers) == "local"

    def test_always_offload_prefers_cloud(self):
        local = peer("local")
        peers = [peer("fog-1"), peer("cloud-1", kind="cloud", outstanding=50)]
        # Even a loaded cloud beats fog peers for AlwaysOffload.
        assert AlwaysOffload().choose(fake_task(), local, peers) == "cloud-1"

    def test_always_offload_without_peers_stays_local(self):
        assert AlwaysOffload().choose(fake_task(), peer("local"), []) == "local"

    def test_always_offload_balances_among_clouds(self):
        local = peer("local")
        peers = [
            peer("cloud-a", kind="cloud", outstanding=8),
            peer("cloud-b", kind="cloud", outstanding=2),
        ]
        assert AlwaysOffload().choose(fake_task(), local, peers) == "cloud-b"

    def test_threshold_keeps_local_until_saturated(self):
        policy = LoadThresholdOffload(threshold=2.0)
        local = peer("local", cores=4, outstanding=4)  # pressure 1.0 < 2.0
        peers = [peer("cloud", kind="cloud")]
        assert policy.choose(fake_task(), local, peers) == "local"

    def test_threshold_offloads_when_saturated(self):
        policy = LoadThresholdOffload(threshold=1.0)
        local = peer("local", cores=4, outstanding=8)  # pressure 2.0
        peers = [peer("cloud", kind="cloud", outstanding=0, cores=16)]
        assert policy.choose(fake_task(), local, peers) == "cloud"

    def test_threshold_avoids_peers_worse_than_local(self):
        policy = LoadThresholdOffload(threshold=1.0)
        local = peer("local", cores=4, outstanding=8)  # pressure 2.0
        peers = [peer("busy-fog", cores=2, outstanding=10)]  # pressure 5.0
        assert policy.choose(fake_task(), local, peers) == "local"

    def test_threshold_falls_back_to_fog_without_clouds(self):
        policy = LoadThresholdOffload(threshold=0.5)
        local = peer("local", cores=4, outstanding=8)
        peers = [peer("fog-2", cores=4, outstanding=0)]
        assert policy.choose(fake_task(), local, peers) == "fog-2"


class TestGantt:
    @staticmethod
    def run_graph():
        from repro.executor import SimulatedExecutor, SimWorkflowBuilder
        from repro.infrastructure import make_hpc_cluster

        builder = SimWorkflowBuilder()
        builder.add_task("a", duration=10.0, outputs={"x": 1.0})
        builder.add_task("b", duration=10.0, inputs=["x"])
        builder.add_task("c", duration=20.0)
        executor = SimulatedExecutor(builder.graph, make_hpc_cluster(1))
        executor.run()
        return executor.log

    def test_render_has_one_row_per_node_plus_header(self):
        chart = render_gantt(self.run_graph(), width=40)
        lines = chart.splitlines()
        assert len(lines) == 2  # header + 1 node
        assert "time" in lines[0]
        assert "█" in lines[1]

    def test_width_respected(self):
        chart = render_gantt(self.run_graph(), width=24)
        row = chart.splitlines()[1]
        body = row.split("|")[1]
        assert len(body) == 24

    def test_empty_graph(self):
        from repro.core.graph import TaskGraph
        from repro.executor import SimulatedExecutor
        from repro.infrastructure import make_hpc_cluster

        executor = SimulatedExecutor(TaskGraph(), make_hpc_cluster(1))
        executor.run()
        assert render_gantt(executor.log) == "(empty trace)"

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            render_gantt(self.run_graph(), width=2)

    def test_cli_timeline_command(self):
        import io

        from repro.tools.cli import main

        out = io.StringIO()
        code = main(
            ["timeline", "--workload", "ep", "--tasks", "20", "--nodes", "2"],
            out=out,
        )
        assert code == 0
        assert "time" in out.getvalue()
