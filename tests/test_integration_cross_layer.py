"""Cross-layer integration tests: the holistic flows the paper envisions.

Each test composes several subsystems end to end — programming model +
storage, simulation + storage-driven locality, dislib + memoization,
persisted objects across a node failure — checking the layers interoperate
the way §IV's "single flow" requires.
"""

import numpy as np
import pytest

from repro import INOUT, Runtime, compss_wait_on, task
from repro.dislib import KMeans, array
from repro.executor import SimulatedExecutor, SimWorkflowBuilder
from repro.infrastructure import make_hpc_cluster
from repro.intelligence import TaskMemoizer
from repro.scheduling import DataLocationService, LocalityPolicy
from repro.storage import (
    KeyValueCluster,
    StorageDict,
    StorageRuntime,
    set_storage_runtime,
)


class TestTasksOverStorageDict:
    """Real runtime tasks producing into / consuming from a Hecuba table."""

    def test_pipeline_persists_partition_results(self):
        cluster = KeyValueCluster([f"sn-{i}" for i in range(3)], replication=2)
        results_table = StorageDict(cluster, "qc-results")

        @task(returns=1)
        def quality_metric(chunk):
            return sum(chunk) / len(chunk)

        @task(table=INOUT)
        def persist(table, key, value):
            table[key] = value

        with Runtime(workers=4) as runtime:
            for index in range(12):
                chunk = list(range(index, index + 10))
                metric = quality_metric(chunk)
                persist(results_table, f"chunk-{index}", metric)
            runtime.barrier()

        assert len(results_table) == 12
        assert results_table["chunk-3"] == pytest.approx(7.5)
        # Every cell is replicated on the surviving cluster.
        for key in results_table.keys():
            assert len(results_table.location_of(key)) == 2

    def test_split_partitions_drive_locality_scheduling(self):
        # Hecuba split() -> per-node partitions -> locality-scheduled tasks.
        node_names = [f"mn-node-{i:04d}" for i in range(3)]
        cluster = KeyValueCluster(node_names, replication=1)
        table = StorageDict(cluster, "genome")
        for i in range(30):
            table[f"chunk-{i}"] = i
        partitions = table.split()

        builder = SimWorkflowBuilder()
        placements = {}
        for node, keys in partitions.items():
            datum = f"partition@{node}"
            builder.add_initial_datum(datum, 1e9 * len(keys))
            placements[datum] = node
            builder.add_task(
                f"analyze/{node}", duration=10.0, inputs=[datum],
                outputs={f"result@{node}": 1e6},
            )

        platform = make_hpc_cluster(3, name="mn")
        locations = DataLocationService()
        report = SimulatedExecutor(
            builder.graph,
            platform,
            policy=LocalityPolicy(locations),
            locations=locations,
            initial_data=builder.initial_data,
            initial_data_nodes=placements,
        ).run()
        assert report.tasks_done == len(partitions)
        assert report.bytes_transferred == 0.0


class TestMemoizedMlWorkflow:
    """dislib + memoization: repeated analyses reuse block results."""

    def test_repeated_kmeans_on_same_data_is_consistent(self):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [
                rng.normal(loc=(0, 0), scale=0.3, size=(50, 2)),
                rng.normal(loc=(4, 4), scale=0.3, size=(50, 2)),
            ]
        )
        with Runtime(workers=4, memoizer=TaskMemoizer()):
            ds = array(data, block_shape=(25, 2))
            first = KMeans(n_clusters=2, seed=1).fit(ds).centers_
            second = KMeans(n_clusters=2, seed=1).fit(ds).centers_
        np.testing.assert_allclose(first, second)


class TestSriBackedRecoveryData:
    """Persisted SOI objects survive the node their producer ran on."""

    def test_object_retrievable_after_producer_node_fails(self):
        node_names = [f"sn-{i}" for i in range(3)]
        cluster = KeyValueCluster(node_names, replication=2)
        sri = StorageRuntime()
        sri.register_backend(cluster, default=True)
        set_storage_runtime(sri)
        try:
            oid = sri.persist({"restart-state": list(range(100))})
            holders = sri.get_locations(oid)
            cluster.fail_node(next(iter(holders)))
            recovered = sri.retrieve(oid)
            assert recovered["restart-state"][-1] == 99
        finally:
            set_storage_runtime(None)
