"""Data-location tracking: which nodes hold which datum.

This is the scheduler-facing half of the paper's Storage Runtime Interface:
"the ``getLocations`` method will enable the runtime to exploit the locality
of the data by scheduling tasks in the location where the data resides"
(§VI-A1).  Both the simulated executor (task outputs stay on the producing
node) and the storage backends (partition replicas) publish locations here;
the locality policy consumes them.

Beside the forward datum->holders map (holders kept in publication
order, so everything derived from them is independent of the process's
hash seed) the service keeps an inverted node->data index, each node's
datum ids listed in the order it came to hold them: evicting or re-homing
a failed node touches only the data it held, not every datum ever
registered.  Locality is summed from the live holders when a policy asks
(``local_bytes_map``), so no mutation has a score to keep up to date.

:class:`TransferPlanner` prices moving a datum to a node from these live
holders and the network's zone-pair links; it keeps nothing per datum, so
no mutation here has anything to invalidate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.infrastructure.network import DEFAULT_ZONE, Link, NetworkTopology

_INF = float("inf")


class DataLocationService:
    """Registry mapping datum ids to the node names that hold a copy."""

    def __init__(self) -> None:
        # Holders in publication order, as a tuple: ordered (the planner's
        # tie-break), a quarter of a one-key dict, and untracked by the
        # cyclic GC once it has seen it — one per datum adds up.  Mutations
        # replace it: publishing appends, eviction filters.
        self._locations: Dict[str, Tuple[str, ...]] = {}
        self._sizes: Dict[str, float] = {}
        # Inverted index: node name -> datum ids it currently holds, each
        # once, in the order it became their holder.
        self._node_data: Dict[str, List[str]] = {}
        # Data whose every copy was evicted (the is_lost() predicate),
        # counted so failure-free hot paths can skip per-task lost checks.
        self._lost_count = 0

    # -------------------------------------------------------------- mutation

    def publish(self, datum_id: str, node_name: str, size_bytes: float = 0.0) -> None:
        """Record that ``node_name`` now holds a copy of ``datum_id``."""
        holders = self._locations.get(datum_id)
        if holders is None:
            holders = ()
        elif not holders:
            # Every copy had been evicted; this publish recovers the datum.
            self._lost_count -= 1
        if size_bytes:
            self._sizes[datum_id] = float(size_bytes)
        if node_name in holders:
            return
        self._locations[datum_id] = holders + (node_name,)
        data = self._node_data.get(node_name)
        if data is None:
            data = self._node_data[node_name] = []
        data.append(datum_id)

    def evict_node(self, node_name: str) -> None:
        """Drop every copy held by a node (node failure / scale-in).

        O(data held by the node) via the inverted index, not O(all data).
        """
        data = self._node_data.pop(node_name, None)
        if not data:
            return
        for datum_id in data:
            holders = self._locations.get(datum_id)
            if holders is None or node_name not in holders:
                continue
            holders = self._locations[datum_id] = tuple(
                holder for holder in holders if holder != node_name
            )
            if not holders:
                self._lost_count += 1

    def rehome_node(self, dead_node: str, target_node: str) -> int:
        """Re-point every copy held by a failed node at ``target_node``.

        The recovery-storm primitive: where :meth:`evict_node` drops a dead
        node's copies, rehome redirects them — persisted objects whose
        canonical copy died are served from the store or a replica — in
        ONE pass over the inverted index (O(data held), not one lookup +
        publish round-trip per datum).  The moved data join the target's
        index in the order the dead node came to hold them.  Returns the
        number of data re-homed.
        """
        data = self._node_data.pop(dead_node, None)
        if not data:
            return 0
        target_data = self._node_data.get(target_node)
        if target_data is None:
            target_data = self._node_data[target_node] = []
        moved = 0
        for datum_id in data:
            holders = self._locations.get(datum_id)
            if holders is None or dead_node not in holders:
                continue
            holders = tuple(holder for holder in holders if holder != dead_node)
            # A target that already held a copy keeps its earlier position.
            if target_node not in holders:
                holders += (target_node,)
                target_data.append(datum_id)
            self._locations[datum_id] = holders
            moved += 1
        return moved

    # --------------------------------------------------------------- queries

    def get_locations(self, datum_id: str) -> Set[str]:
        """SRI getLocations: every node holding a copy (empty set if unknown)."""
        return set(self._locations.get(datum_id, ()))

    def holders_of(self, datum_id: str) -> Tuple[str, ...]:
        """Like :meth:`get_locations` but a snapshot, in publication order.

        Zero-copy read for hot paths: the tuple the service holds, which
        later ``publish``/``evict_node``/``rehome_node`` calls replace
        rather than change.  A re-homed copy counts as published at the
        time of the re-homing unless the target already held one.
        """
        return self._locations.get(datum_id, ())

    def size_of(self, datum_id: str, default: float = 0.0) -> float:
        return self._sizes.get(datum_id, default)

    def is_lost(self, datum_id: str) -> bool:
        """True if the datum once had holders but every copy was evicted.

        Distinct from "never registered": un-registered data is assumed to
        be ambient (not simulated); lost data makes its readers unrunnable
        unless a persistent store re-publishes a location.
        """
        return datum_id in self._locations and not self._locations[datum_id]

    @property
    def has_lost_data(self) -> bool:
        """O(1): any datum currently lost?  False on every failure-free run,
        which lets dispatch skip the per-task lost-input scan entirely."""
        return self._lost_count > 0

    def local_bytes_map(self, datum_ids: Sequence[str]) -> Dict[str, float]:
        """Per-node locally-held bytes for one input tuple, as a fresh dict.

        Summed from the live holders in read order, so a datum read twice
        counts twice.  Nodes holding none of the data are absent (callers
        use ``.get(name, 0.0)``).
        """
        scores: Dict[str, float] = {}
        for datum_id in datum_ids:
            size = self._sizes.get(datum_id, 0.0)
            if not size:
                continue
            for holder in self._locations.get(datum_id, ()):
                scores[holder] = scores.get(holder, 0.0) + size
        return scores


class TransferPlanner:
    """Cheapest-source pricing of moving data to a node, by zone pair.

    Both the finish-time policies (while *estimating* placements) and the
    simulated executor (while *staging in* the chosen placement) ask the
    same question — which current holder of this datum reaches this node
    fastest?  Transfer time depends on the two nodes' zones alone, so the
    answer is a ``min`` over the links the live holders sit behind, taken
    afresh on every query: the planner keeps one ``{dst zone: {src zone:
    Link}}`` table for the current ``topology_version`` and nothing per
    datum, per node or per pair, so ``publish`` / ``evict_node`` /
    ``rehome_node`` have nothing to invalidate.

    Holders are visited in publication order and only a strictly cheaper
    one replaces the incumbent: **the earliest publisher among the
    cheapest holders is the source**, whatever the process's hash seed.
    """

    def __init__(self, locations: DataLocationService, network: NetworkTopology) -> None:
        self.locations = locations
        self.network = network
        self._links: Dict[str, Dict[str, Link]] = {}
        self._links_version = network.topology_version

    def _routes(
        self, datum_ids: Iterable[str], dst_node: str
    ) -> List[Tuple[str, str, float, float, Link]]:
        """``(datum, source, bytes, seconds, link)`` per datum to fetch, in
        read order; data already on ``dst_node`` and ambient data (no
        holders) are skipped."""
        network = self.network
        if self._links_version != network.topology_version:
            self._links = {}
            self._links_version = network.topology_version
        zones = network.node_zones
        dst_zone = zones.get(dst_node, DEFAULT_ZONE)
        links = self._links.get(dst_zone)
        if links is None:
            links = self._links[dst_zone] = {}
        holders_of = self.locations._locations.get
        sizes = self.locations._sizes
        routes = []
        for datum_id in datum_ids:
            holders = holders_of(datum_id)
            if not holders or dst_node in holders:
                continue
            size = sizes.get(datum_id, 0.0)
            best_src = best_link = link = None
            best = _INF
            for src in holders:
                previous = link
                src_zone = zones.get(src, DEFAULT_ZONE)
                link = links.get(src_zone)
                if link is None:
                    link = links[src_zone] = network.zone_link(src_zone, dst_zone)
                if link is previous:
                    continue  # same link, same price: the earlier holder stands
                if size > 0.0:
                    seconds = link.latency_s + size / link.bandwidth_bps
                else:
                    seconds = link.transfer_time(size)  # 0.0; raises if negative
                if seconds < best:
                    best = seconds
                    best_src = src
                    best_link = link
            routes.append((datum_id, best_src, size, best, best_link))
        return routes

    def best_source(self, datum_id: str, dst_node: str) -> Tuple[Optional[str], float]:
        """(source node, seconds) of the cheapest current holder.

        Returns ``(None, 0.0)`` when the datum has no holders (ambient
        data) or the destination already holds a copy (no transfer).
        """
        routes = self._routes((datum_id,), dst_node)
        if not routes:
            return (None, 0.0)
        return (routes[0][1], routes[0][3])

    def read_seconds(self, datum_ids: Iterable[str], dst_node: str) -> List[float]:
        """Solo fetch time of every datum ``dst_node`` would have to fetch.

        The batch form of :meth:`best_source` for placement estimates, in
        read order; local and ambient reads (0.0 s) are left out, which
        changes neither a sum nor a max.
        """
        return [route[3] for route in self._routes(datum_ids, dst_node)]

    def stage_in_plan(
        self, datum_ids: Iterable[str], dst_node: str
    ) -> Tuple[float, List[Tuple[str, str, float, float]]]:
        """Coalesced stage-in pricing for one task's missing inputs.

        Each missing datum still fetches from its cheapest source, but
        same-link transfers are batched: one latency charge plus the
        summed bandwidth term per physical link (``Link`` instances are
        shared per zone pair, so grouping by link is per-link shared-
        bandwidth accounting — two holders in one remote zone do not each
        get the full pipe).  Distinct links run in parallel, so the plan
        duration is the max over links.

        Returns ``(duration, moves)`` where each move is
        ``(datum_id, src_node, size_bytes, seconds)`` — ``seconds`` being
        the coalesced duration of the move's link group, which is what the
        executor records per transfer (all members of a batch complete
        together).  Byte totals and source choices are identical to the
        per-holder path; only the latency accounting is coalesced.
        """
        routes = self._routes(datum_ids, dst_node)
        if len(routes) < 2:
            # Nothing to coalesce: a solo transfer costs its point-to-point
            # time, no transfer costs nothing.
            moves = [route[:4] for route in routes]
            return (moves[0][3] if moves else 0.0, moves)
        # One latency + summed bytes per link the routes resolved to, links
        # told apart by identity (equal-valued links are still two pipes).
        link_totals: Dict[int, List] = {}
        for _datum, _src, size, _solo, link in routes:
            entry = link_totals.get(id(link))
            if entry is None:
                link_totals[id(link)] = [link, size]
            else:
                entry[1] += size
        durations = {
            key: link.coalesced_transfer_time(total)
            for key, (link, total) in link_totals.items()
        }
        moves = [
            (datum_id, src, size, durations[id(link)])
            for datum_id, src, size, _solo, link in routes
        ]
        return (max(durations.values()), moves)
