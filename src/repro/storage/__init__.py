"""Persistent storage integration (DESIGN.md S8–S10).

Implements the paper's storage interface (§VI-A1): the Storage Object
Interface (SOI) that application code uses (``make_persistent``), the Storage
Runtime Interface (SRI) the runtime uses (``getLocations`` → locality
scheduling), and two backends mirroring the BSC storage stack of Fig. 4:

* :mod:`repro.storage.keyvalue` — a Hecuba analogue: a partitioned,
  replicated key-value store with a consistent-hash ring (Cassandra-style)
  and a ``StorageDict`` mapping Python dictionaries onto its tables;
* :mod:`repro.storage.activeobject` — a dataClay analogue: an active object
  store with a class registry whose methods execute *inside* the store,
  minimizing data transfers.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "StorageBackend": "interface",
        "StorageObject": "interface",
        "StorageRuntime": "interface",
        "get_storage_runtime": "interface",
        "set_storage_runtime": "interface",
        "content_fingerprint": "interface",
        "estimate_size": "interface",
        "estimate_size_digest": "interface",
        "ConsistentHashRing": "keyvalue",
        "KeyValueCluster": "keyvalue",
        "StorageDict": "keyvalue",
        "ActiveObject": "activeobject",
        "ActiveObjectStore": "activeobject",
        "ClassRegistry": "activeobject",
    },
)
