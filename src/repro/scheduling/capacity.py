"""Per-node capacity accounting.

The ledger is the scheduler's source of truth for what is free *right now*.
Its invariant — allocations never exceed a node's capacity — is one of the
property-tested guarantees in DESIGN.md §4.

Everything the dispatch loop consults on every event is maintained
incrementally: each :class:`NodeCapacity` notifies its owning ledger on
allocate/release, which keeps ``total_free_cores`` exact and re-files the
node in two bucket indexes (exact free-core count, log2 free-memory).  One
placement query therefore touches only the nodes that plausibly fit the
demand, not the whole platform — the difference between O(nodes) and
O(candidates) per task at 100+ nodes (DESIGN.md §2, claim C1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.constraints import ResolvedRequirements
from repro.infrastructure.resources import Node

_by_order = attrgetter("order")


class CapacityError(RuntimeError):
    """Raised when an allocation or release would violate the ledger invariant."""


@dataclass
class NodeCapacity:
    """Mutable free-resource state of one node."""

    node: Node
    free_cores: int
    free_memory_mb: int
    free_gpus: int
    running_task_ids: Set[int]
    # Owning ledger (set by CapacityLedger.add_node) — notified on
    # allocate/release so its aggregates and indexes stay consistent in O(1).
    ledger: Optional["CapacityLedger"] = field(default=None, repr=False, compare=False)
    # Registration sequence number within the owning ledger: candidates()
    # restores registration order after collecting from the bucket indexes.
    order: int = field(default=0, compare=False)
    # Current bucket keys within the owning ledger (meaningless otherwise).
    cores_key: int = field(default=0, repr=False, compare=False)
    mem_key: int = field(default=0, repr=False, compare=False)
    # This node's entry in its cores bucket, ``(node.cores, order, self)``:
    # built once per registration, so a re-file allocates nothing.
    tie: Optional[Tuple[int, int, "NodeCapacity"]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def for_node(cls, node: Node) -> "NodeCapacity":
        return cls(
            node=node,
            free_cores=node.cores,
            free_memory_mb=node.memory_mb,
            free_gpus=node.gpu_count,
            running_task_ids=set(),
        )

    @property
    def busy_cores(self) -> int:
        return self.node.cores - self.free_cores

    @property
    def idle(self) -> bool:
        return not self.running_task_ids

    def ever_fits(self, req: ResolvedRequirements) -> bool:
        """Static feasibility: could the demand run here with the node empty?"""
        return req.fits_node(self.node)

    def fits_now(self, req: ResolvedRequirements) -> bool:
        """Dynamic feasibility against current free resources (``alive``
        read off the node's fields: the property is a call per probe)."""
        node = self.node
        return (
            self.free_cores >= req.cores
            and self.free_memory_mb >= req.memory_mb
            and self.free_gpus >= req.gpus
            and req.software <= node.software
            and not node.failed
            and (node.battery_joules is None or node.battery_joules > 0)
        )

    def allocate(self, task_id: int, req: ResolvedRequirements) -> None:
        if not self.fits_now(req):
            raise CapacityError(
                f"task {task_id} ({req.cores}c/{req.memory_mb}MB/{req.gpus}g) "
                f"does not fit on {self.node.name} "
                f"({self.free_cores}c/{self.free_memory_mb}MB/{self.free_gpus}g free)"
            )
        self.free_cores -= req.cores
        self.free_memory_mb -= req.memory_mb
        self.free_gpus -= req.gpus
        self.running_task_ids.add(task_id)
        ledger = self.ledger
        if ledger is not None:
            ledger._free_cores_total -= req.cores
            ledger._rebucket(self)

    def release(self, task_id: int, req: ResolvedRequirements) -> None:
        """Give back what ``task_id`` held; a refused release (unknown task,
        or more than the node's capacity) changes nothing."""
        node = self.node
        cores = self.free_cores + req.cores
        memory_mb = self.free_memory_mb + req.memory_mb
        gpus = self.free_gpus + req.gpus
        running = self.running_task_ids
        # Refuse before mutating anything; an unknown task is refused as
        # unknown (by ``remove``), whatever it would give back.
        if (
            cores > node.cores or memory_mb > node.memory_mb or gpus > len(node.gpus)
        ) and task_id in running:
            raise CapacityError(
                f"release of task {task_id} would overflow capacity on {node.name}"
            )
        try:
            running.remove(task_id)
        except KeyError:
            raise CapacityError(f"task {task_id} is not running on {node.name}") from None
        self.free_cores = cores
        self.free_memory_mb = memory_mb
        self.free_gpus = gpus
        ledger = self.ledger
        if ledger is not None:
            ledger._free_cores_total += req.cores
            ledger.grow_seq = seq = ledger.grow_seq + 1
            log = ledger.grow_log
            name = node.name
            if name in log:
                del log[name]  # re-insert at the end: iteration order = recency
            log[name] = (seq, self)
            ledger._rebucket(self)


class CapacityLedger:
    """Capacity state for every node the scheduler can use.

    Placement queries run against two bucket indexes instead of the full
    node map:

    * ``_cores_buckets`` files each node under its exact free-core count,
      in a list kept sorted in tie order ``(node.cores, order)`` — the
      load-balancing tie-break — so the first fitting member of a bucket
      is its winner;
    * ``_mem_buckets`` files it under ``free_memory_mb.bit_length()`` (log2
      buckets — memory values are too fine-grained for exact keys).

    ``candidates()`` walks the memory axis when fewer than half the nodes
    are memory-plausible (the GUIDANCE regime: free cores everywhere, no
    free memory anywhere) and the registration-ordered state map otherwise;
    ``best_balanced`` descends the cores axis.  The top nonempty key of
    each index doubles as the O(1) ``might_fit`` bound: exact for cores,
    within 2x for memory (log buckets never under-estimate).
    """

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._states: Dict[str, NodeCapacity] = {}
        # Incremental aggregate: free cores summed over every tracked node.
        self._free_cores_total = 0
        # Bucket indexes (cores key -> tie-ordered ``state.tie`` list,
        # memory key -> {node name -> state}) and their top nonempty keys,
        # maintained eagerly on every capacity change: a change is one
        # bisect-delete plus one insort.
        self._cores_buckets: Dict[int, List[Tuple[int, int, NodeCapacity]]] = {}
        self._mem_buckets: Dict[int, Dict[str, NodeCapacity]] = {}
        self._top_cores_key = 0
        self._top_mem_key = 0
        # Monotonic registration counter (candidates() ordering contract).
        self._order_counter = 0
        # Capacity-growth journal.  ``grow_seq`` ticks whenever any node's
        # free resources *grow* (a release or a node arrival — never an
        # allocation), and ``grow_log`` maps node name -> (tick, state) in
        # recency order (most recent last).  A dispatcher that proved "this
        # demand fits nowhere" at tick S needs to re-test only the nodes
        # whose entry is newer than S: every other node has only shrunk
        # since the proof, so the conclusion still stands.
        self.grow_seq = 0
        self.grow_log: Dict[str, Tuple[int, NodeCapacity]] = {}
        for node in nodes:
            self.add_node(node)

    # ---------------------------------------------------------- bucket index

    def _bucket_insert(self, state: NodeCapacity) -> None:
        cores_key = state.free_cores
        mem_key = state.free_memory_mb.bit_length()
        state.cores_key = cores_key
        state.mem_key = mem_key
        insort(self._cores_buckets.setdefault(cores_key, []), state.tie)
        self._mem_buckets.setdefault(mem_key, {})[state.node.name] = state
        if cores_key > self._top_cores_key:
            self._top_cores_key = cores_key
        if mem_key > self._top_mem_key:
            self._top_mem_key = mem_key

    def _bucket_remove(self, state: NodeCapacity) -> None:
        bucket = self._cores_buckets[state.cores_key]
        del bucket[bisect_left(bucket, state.tie)]
        del self._mem_buckets[state.mem_key][state.node.name]
        self._settle_tops()

    def _rebucket(self, state: NodeCapacity) -> None:
        """Re-file a node whose free resources just changed.

        The top keys only need settling when this move emptied the bucket
        currently holding a top key — checked inline so the steady state
        pays one list move and one dict move and nothing else.
        """
        cores_key = state.free_cores
        old_cores_key = state.cores_key
        if cores_key != old_cores_key:
            buckets = self._cores_buckets
            tie = state.tie
            old = buckets[old_cores_key]
            del old[bisect_left(old, tie)]
            new = buckets.get(cores_key)
            if new is None:
                buckets[cores_key] = [tie]
            else:
                insort(new, tie)
            state.cores_key = cores_key
            if cores_key > self._top_cores_key:
                self._top_cores_key = cores_key
            elif old_cores_key == self._top_cores_key and not old:
                top = old_cores_key
                while top > 0 and not buckets.get(top):
                    top -= 1
                self._top_cores_key = top
        mem_key = state.free_memory_mb.bit_length()
        old_mem_key = state.mem_key
        if mem_key != old_mem_key:
            name = state.node.name
            buckets = self._mem_buckets
            old = buckets[old_mem_key]
            del old[name]
            # Not setdefault: that allocates a throwaway dict on every call,
            # and nearly every rebucket lands in an existing bucket.
            new = buckets.get(mem_key)
            if new is None:
                buckets[mem_key] = new = {}
            new[name] = state
            state.mem_key = mem_key
            if mem_key > self._top_mem_key:
                self._top_mem_key = mem_key
            elif old_mem_key == self._top_mem_key and not old:
                top = old_mem_key
                while top > 0 and not buckets.get(top):
                    top -= 1
                self._top_mem_key = top

    def _settle_tops(self) -> None:
        """Walk each top key down past emptied buckets (amortized O(1):
        a key only needs re-walking after the removal that emptied it,
        and the walk length is bounded by the size of that removal)."""
        buckets = self._cores_buckets
        top = self._top_cores_key
        while top > 0 and not buckets.get(top):
            top -= 1
        self._top_cores_key = top
        buckets = self._mem_buckets
        top = self._top_mem_key
        while top > 0 and not buckets.get(top):
            top -= 1
        self._top_mem_key = top

    # --------------------------------------------------------- growth journal

    def grown_since(self, seq: int) -> List[NodeCapacity]:
        """Nodes whose free resources grew after tick ``seq``, most recent
        first — the only nodes a demand proven unplaceable at ``seq`` can
        have started to fit on."""
        grown: List[NodeCapacity] = []
        for tick, state in reversed(self.grow_log.values()):
            if tick <= seq:
                break
            grown.append(state)
        return grown

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        if node.name in self._states:
            raise CapacityError(f"node {node.name!r} already tracked")
        state = NodeCapacity.for_node(node)
        state.ledger = self
        state.order = self._order_counter
        state.tie = (node.cores, state.order, state)
        self._order_counter += 1
        self._states[node.name] = state
        self._free_cores_total += state.free_cores
        # A new node is pure capacity growth (NodeCapacity.release journals
        # the other kind).
        self.grow_seq += 1
        self.grow_log[node.name] = (self.grow_seq, state)
        self._bucket_insert(state)

    def remove_node(self, node_name: str) -> NodeCapacity:
        """Forget a node; returns its final state (running tasks included)."""
        try:
            state = self._states.pop(node_name)
        except KeyError:
            raise CapacityError(f"unknown node {node_name!r}") from None
        state.ledger = None
        self._free_cores_total -= state.free_cores
        # A departed node cannot host anything: drop its journal entry so
        # blocked-demand re-checks never probe it.  (Removal is a shrink,
        # so no growth tick is owed.)
        self.grow_log.pop(node_name, None)
        self._bucket_remove(state)
        return state

    def state(self, node_name: str) -> NodeCapacity:
        try:
            return self._states[node_name]
        except KeyError:
            raise CapacityError(f"unknown node {node_name!r}") from None

    def has_node(self, node_name: str) -> bool:
        return node_name in self._states

    @property
    def states(self) -> List[NodeCapacity]:
        return list(self._states.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._states)

    # -------------------------------------------------------------- placement

    def might_fit(self, req: ResolvedRequirements) -> bool:
        """O(1) necessary condition: a demand above the top bucket keys
        cannot fit anywhere right now.  The core key is the exact max free
        cores of any tracked node; the memory key over-estimates by at most
        2x (log buckets), so neither can reject a placeable demand."""
        return (
            req.cores <= self._top_cores_key
            and req.memory_mb.bit_length() <= self._top_mem_key
        )

    def candidates(self, req: ResolvedRequirements) -> List[NodeCapacity]:
        """Nodes where ``req`` fits right now, in registration order.

        Every call walks the indexes afresh — aliveness is read off the node
        itself, so a node that died without the ledger being told is never
        returned.  Callers must not mutate the returned list (the empty
        result is shared).
        """
        if (
            req.cores > self._top_cores_key
            or req.memory_mb.bit_length() > self._top_mem_key
        ):
            return _EMPTY_CANDIDATES
        # Count the memory-plausible nodes (at most ~log2(node memory)
        # keys) to pick the walk: both filter with fits_now, so the choice
        # affects cost, never the result.
        mem_floor = req.memory_mb.bit_length()
        mem_plausible = 0
        for key, bucket in self._mem_buckets.items():
            if key >= mem_floor:
                mem_plausible += len(bucket)
        if not mem_plausible:
            return _EMPTY_CANDIDATES
        # The filters below are fits_now() unrolled: at up to ~platform
        # size probes per query, the method call and the ``alive`` property
        # are a measurable share of the simulation loop.  Memory is tested
        # first because it is the binding resource in the saturated regimes
        # this index exists for.
        need_mem = req.memory_mb
        need_cores = req.cores
        need_gpus = req.gpus
        software = req.software
        states = self._states
        found: List[NodeCapacity] = []
        if 2 * mem_plausible >= len(states):
            # Dense regime (idle or draining platform): most nodes are
            # plausible anyway, so walking the state map — already in
            # registration order, so no sort afterwards — beats the bucket
            # walk plus the O(n log n) order restoration.
            for state in states.values():
                if (
                    state.free_memory_mb >= need_mem
                    and state.free_cores >= need_cores
                    and state.free_gpus >= need_gpus
                    and software <= (node := state.node).software
                    and not node.failed
                    and (node.battery_joules is None or node.battery_joules > 0)
                ):
                    found.append(state)
            return found
        # Sparse regime: only the memory-plausible buckets can hold a fit,
        # and the sort below restores registration order.
        for key, bucket in self._mem_buckets.items():
            if key >= mem_floor:
                for state in bucket.values():
                    if (
                        state.free_memory_mb >= need_mem
                        and state.free_cores >= need_cores
                        and state.free_gpus >= need_gpus
                        and software <= (node := state.node).software
                        and not node.failed
                        and (node.battery_joules is None or node.battery_joules > 0)
                    ):
                        found.append(state)
        if len(found) > 1:
            found.sort(key=_by_order)
        return found

    def best_balanced(self, req: ResolvedRequirements) -> Optional[NodeCapacity]:
        """Most-free-cores-first winner for ``req``, straight off the index.

        Implements the :class:`~repro.scheduling.policies.LoadBalancingPolicy`
        ranking — max free cores, ties to the smaller node, full ties to
        registration order — without materializing the candidate list.  The
        winner has the highest free-core count of any fitting node, so it
        lives in the highest cores bucket that contains one: descend the
        cores keys from the top and return the first fitting member of the
        first bucket that has any — each bucket is kept in tie order, so
        that member is the min-(total cores, order) one.  The walk prices a
        placement at the few top buckets actually inspected instead of the
        O(nodes) full-platform filter, which is what restores flat per-event
        cost on wide platforms (the 400-node regime of E1d).  Returns None
        iff no node fits right now.

        A memory-starved platform (few mem-plausible nodes) is served by
        ``candidates()``'s sparse memory-axis walk instead: descending the
        cores buckets there would wade through memory-poor nodes, while the
        walk touches only the plausible few.
        """
        if (
            req.cores > self._top_cores_key
            or req.memory_mb.bit_length() > self._top_mem_key
        ):
            return None
        mem_floor = req.memory_mb.bit_length()
        mem_plausible = 0
        for key, bucket in self._mem_buckets.items():
            if key >= mem_floor:
                mem_plausible += len(bucket)
        if not mem_plausible:
            return None
        if 2 * mem_plausible < len(self._states):
            # Sparse regime: filter by the memory axis, then single-pass max.
            best = best_key = None
            for state in self.candidates(req):
                key = (-state.free_cores, state.node.cores, state.order)
                if best is None or key < best_key:
                    best, best_key = state, key
            return best
        need_mem = req.memory_mb
        need_gpus = req.gpus
        software = req.software
        buckets = self._cores_buckets
        for cores_key in range(self._top_cores_key, req.cores - 1, -1):
            # An underloaded platform piles hundreds of equal-free-cores
            # nodes into one bucket; its head is the tie winner, so the
            # walk stops at the first member that fits.
            for _, _, state in buckets.get(cores_key, ()):
                if (
                    state.free_memory_mb >= need_mem
                    and state.free_gpus >= need_gpus
                    and software <= (node := state.node).software
                    and not node.failed
                    and (node.battery_joules is None or node.battery_joules > 0)
                ):
                    return state
        return None

    def any_ever_fits(self, req: ResolvedRequirements) -> bool:
        return any(s.ever_fits(req) for s in self._states.values())

    def idle_nodes(self) -> List[str]:
        return [name for name, s in self._states.items() if s.idle]

    @property
    def total_free_cores(self) -> int:
        """Free cores summed over tracked nodes, maintained incrementally.

        Failed nodes leave the ledger via the scheduler's leave listener, so
        in the steady state this equals the alive-node sum without paying
        O(nodes) per dispatch.  A dead-but-still-tracked node (no listener
        wired) can only over-count, which at worst costs a bounded scan —
        never a missed placement.
        """
        return self._free_cores_total


#: Shared empty result: the common case on a saturated platform, where a
#: fresh list per rejected demand would be pure allocator churn.
_EMPTY_CANDIDATES: List[NodeCapacity] = []
