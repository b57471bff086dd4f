"""Mixed StorageDict / ActiveObject traffic on 16 storage nodes: no engine.

``storage.*`` alone, and the writes-beside-reads workload: 80% of the
objects are StorageDict cells (bulk ``update``, per-key read-back, ``split()``
plus per-partition read), 20% are ActiveObjects (``make_persistent``, two
in-store calls, one fetch).  Each phase is timed on its own so a read-path
gain that costs writes, or in-store calls, shows.
"""

import random

from repro.storage import ActiveObject, ActiveObjectStore, KeyValueCluster, StorageDict

STORAGE_NODES = 16
REPLICATION = 2
PAYLOAD = 32


class Counter(ActiveObject):
    """Small stateful object: a payload plus a running total."""

    def __init__(self, payload):
        super().__init__()
        self.values = payload
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total


def setup(seed, size):
    rng = random.Random(seed)
    objects = size["objects"]
    cells = objects * 4 // 5
    return {
        "nodes": [f"dn-{i}" for i in range(STORAGE_NODES)],
        "cells": {f"cell-{i}": (i, rng.randrange(1 << 30)) for i in range(cells)},
        "payloads": [
            [rng.randrange(1000) for _ in range(PAYLOAD)] for _ in range(objects - cells)
        ],
    }


def run(state, phase):
    nodes, cells = state["nodes"], state["cells"]
    with phase("update"):
        cluster = KeyValueCluster(nodes, replication=REPLICATION)
        table = StorageDict(cluster, "perf")
        table.update(cells)
    with phase("get"):
        read_back = [(key, table[key]) for key in table.keys()]
    with phase("split_read"):
        by_partition = [
            (key, table[key]) for keys in table.split().values() for key in keys
        ]
    with phase("persist"):
        store = ActiveObjectStore(nodes, replication=REPLICATION)
        counters = [Counter(payload) for payload in state["payloads"]]
        for counter in counters:
            counter.make_persistent(store)
    with phase("call"):
        totals = [
            [counter.remote("add", amount) for counter in counters] for amount in (1, 2)
        ]
    with phase("fetch"):
        fetched = [store.fetch(counter.getID()) for counter in counters]
    return {
        "cluster": cluster,
        "store": store,
        "read_back": read_back,
        "by_partition": by_partition,
        "totals": totals,
        "fetched": fetched,
    }


def check(state, out, seconds):
    cells, payloads = state["cells"], state["payloads"]
    n_cells, n_active = len(cells), len(payloads)
    failed = 0
    for got in (out["read_back"], out["by_partition"]):
        failed += abs(n_cells - len(got))
        failed += sum(1 for key, value in got if cells.get(key) != value)
        failed += n_cells - len({key for key, _ in got})
    failed += sum(1 for total in out["totals"][0] if total != 1)
    failed += sum(1 for total in out["totals"][1] if total != 3)
    failed += sum(
        1
        for payload, obj in zip(payloads, out["fetched"])
        if obj.total != 3 or obj.values != payload
    )
    cluster, store = out["cluster"], out["store"]
    ops = 3 * n_cells + 4 * n_active
    moved = (
        cluster.bytes_written
        + cluster.bytes_read
        + store.bytes_moved_calls
        + store.bytes_moved_fetch
    )
    return {
        "ops": ops - failed,
        "attempted": ops,
        "failed": failed,
        "digest": {
            "kv_written": cluster.bytes_written,
            "kv_read": cluster.bytes_read,
            "call_bytes": store.bytes_moved_calls,
            "fetch_bytes": store.bytes_moved_fetch,
            "partitions": sorted(
                (node, len(cluster.keys_on_node(node))) for node in cluster.alive_nodes
            ),
        },
        "layers": {
            "storage.bytes_moved": moved,
            "storage.dict.update_us_per_op": seconds["update"] / n_cells * 1e6,
            "storage.dict.get_us_per_op": seconds["get"] / n_cells * 1e6,
            "storage.dict.split_read_us_per_op": seconds["split_read"] / n_cells * 1e6,
            "storage.activeobject.persist_us_per_op": seconds["persist"] / n_active * 1e6,
            "storage.activeobject.call_us_per_op": seconds["call"] / (2 * n_active) * 1e6,
            "storage.activeobject.fetch_us_per_op": seconds["fetch"] / n_active * 1e6,
        },
    }
