"""Task-result memoization: reuse work across identical invocations.

The cheapest form of "learning from previous executions" (§VI-C): a
deterministic task invoked twice with equal arguments need not run twice.
The memoizer is consulted by the runtime *at* submission, once every future
among the arguments is resolved without error — a hit returns futures born
settled with the cached value (no task id, datum or graph node; nothing
retained once dropped; ``tasks_from_cache`` counts them) — and is
content-addressed, so it composes with the
store-vs-recompute metrics of :mod:`repro.metrics.data_metrics` (a cache
entry is a "stored intermediate" whose regeneration cost is the task).

Keys are the runtime's Merkle-style *content keys*
(:meth:`repro.core.compile.WorkflowCompiler.compile_call`), built on the
pickle-once primitive the data plane uses for size accounting
(:func:`repro.storage.interface.content_fingerprint`), so whole repeated
subgraphs — not just leaf calls — resolve through this cache.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.storage.interface import estimate_size


class _CacheEntry:
    """One cached result; slotted — caches hold tens of thousands of these."""

    __slots__ = ("value", "size_bytes", "hits")

    def __init__(self, value: Any, size_bytes: int) -> None:
        self.value = value
        self.size_bytes = size_bytes
        self.hits = 0


class TaskMemoizer:
    """A bounded, content-addressed, LRU cache of task results.

    Bounds are enforced on both entry count and (optionally) total bytes of
    cached values — a result cache shared by many tenants must not let one
    workflow with huge intermediates evict everyone else's budget silently,
    so evictions are counted and reported via :meth:`stats`.

    Counters distinguish three outcomes:

    * ``hits`` / ``misses`` — lookups with a real content key, i.e. the
      population the hit rate is a statement about;
    * ``skipped`` — invocations that were never content-addressable
      (unpicklable arguments, ``key is None``); these are *not* misses —
      no cache policy could ever convert them into hits.
    """

    def __init__(
        self, max_entries: int = 10_000, max_bytes: Optional[int] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Insertion order doubles as recency order: lookups re-append their
        # entry, so the first key is always the least recently used.
        self._cache: Dict[str, _CacheEntry] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, key: Optional[str]) -> Tuple[bool, Any]:
        """(found, value).  A None key (unhashable args) never hits."""
        if key is None:
            self.skipped += 1
            return False, None
        entry = self._cache.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        # Refresh recency: delete + re-insert keeps the dict ordered LRU.
        del self._cache[key]
        self._cache[key] = entry
        entry.hits += 1
        self.hits += 1
        return True, entry.value

    def store(
        self, key: Optional[str], value: Any, size_bytes: Optional[int] = None
    ) -> None:
        """Cache ``value`` under ``key`` (no-op for None keys).

        ``size_bytes`` lets callers that already serialized the value (the
        pickle-once accounting path) avoid a second pass; otherwise the
        size is estimated here.
        """
        if key is None:
            return
        if size_bytes is None:
            size_bytes = estimate_size(value)
        previous = self._cache.pop(key, None)
        if previous is not None:
            self.total_bytes -= previous.size_bytes
        self._cache[key] = _CacheEntry(value=value, size_bytes=int(size_bytes))
        self.total_bytes += int(size_bytes)
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used entries until both bounds hold.

        The newest entry always survives: a single value larger than
        ``max_bytes`` evicts everything else but is kept itself, so an
        oversized result degrades the cache instead of poisoning ``store``.
        """
        while len(self._cache) > self.max_entries or (
            self.max_bytes is not None
            and self.total_bytes > self.max_bytes
            and len(self._cache) > 1
        ):
            oldest_key = next(iter(self._cache))
            evicted = self._cache.pop(oldest_key)
            self.total_bytes -= evicted.size_bytes
            self.evictions += 1

    def key_stats(self, key: str) -> Optional[Dict[str, int]]:
        """Per-entry statistics, or None if the key is not cached."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        return {"hits": entry.hits, "size_bytes": entry.size_bytes}

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for benchmark/CLI summaries."""
        return {
            "entries": len(self._cache),
            "bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    @property
    def hit_rate(self) -> float:
        """Hits over content-addressable lookups (skips excluded)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
