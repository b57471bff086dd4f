"""Network topology and data-transfer model.

The topology is a latency/bandwidth description between *zones* (groups of
nodes: a rack, a fog area, a cloud region).  Transfer time for a payload is

    latency(src_zone, dst_zone) + size_bytes / bandwidth(src_zone, dst_zone)

which is coarse but captures the property the paper's locality claims (C4)
depend on: moving data across the continuum costs orders of magnitude more
than reading it where it lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Link:
    """Directed connectivity between two zones."""

    latency_s: float
    bandwidth_bps: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency_s}")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_bps}")

    def transfer_time(self, size_bytes: float) -> float:
        """Seconds needed to move ``size_bytes`` over this link."""
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        if size_bytes == 0:
            return 0.0
        return self.latency_s + size_bytes / self.bandwidth_bps

    def coalesced_transfer_time(self, total_bytes: float) -> float:
        """Seconds for a batch of payloads sharing this link.

        One latency charge for the whole batch plus the summed bandwidth
        term: the transfers ride one connection setup and split the link's
        bandwidth, which is both cheaper to evaluate and physically more
        sensible than pricing each payload as if it had the link to itself.
        """
        return self.transfer_time(total_bytes)


#: Zone of a node that was never placed with ``add_node``.
DEFAULT_ZONE = "default"

#: Link used when source and destination are the same node: in-memory access.
LOCAL_LINK = Link(latency_s=0.0, bandwidth_bps=float("inf"))


class NetworkTopology:
    """Zone-based network model.

    Nodes are assigned to zones; links connect zone pairs.  A same-zone
    default link (e.g. rack-local 10 GbE) applies within a zone, and an
    explicit link or the ``default_link`` applies across zones.
    """

    def __init__(
        self,
        intra_zone_link: Link = Link(latency_s=50e-6, bandwidth_bps=10e9 / 8),
        default_link: Link = Link(latency_s=20e-3, bandwidth_bps=1e9 / 8),
    ) -> None:
        #: node name -> zone, for every placed node.  Read-only for callers:
        #: the transfer planner resolves holders' zones straight from it
        #: (unplaced nodes are in ``DEFAULT_ZONE``); mutate via ``add_node``.
        self.node_zones: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self.intra_zone_link = intra_zone_link
        self.default_link = default_link
        # A transfer is two running totals and nothing retained: who moved
        # what when belongs in a trace event (ROADMAP item 1), not in a
        # list that grows with the run.
        self._total_bytes_moved = 0.0
        self._remote_transfer_count = 0
        #: Bumped by every route-affecting mutation; anything derived from
        #: the zone/link structure (the planner's link table) checks it.
        self.topology_version = 0

    def add_node(self, node_name: str, zone: str) -> None:
        """Place ``node_name`` in ``zone`` (re-placing is allowed).

        Every route-affecting mutation — first placement *and* zone
        reassignment — bumps ``topology_version`` so the link table in
        :class:`~repro.scheduling.locations.TransferPlanner` is rebuilt; a
        re-add with an unchanged zone is a no-op and leaves it intact.
        """
        if self.node_zones.get(node_name) == zone:
            return
        self.node_zones[node_name] = zone
        self.topology_version += 1

    def add_nodes(self, node_names: Iterable[str], zone: str) -> None:
        for name in node_names:
            self.add_node(name, zone)

    def zone_of(self, node_name: str) -> str:
        """Return the zone a node belongs to (default zone if unplaced)."""
        return self.node_zones.get(node_name, DEFAULT_ZONE)

    def connect(self, zone_a: str, zone_b: str, link: Link, symmetric: bool = True) -> None:
        """Install a link between two zones."""
        self._links[(zone_a, zone_b)] = link
        if symmetric:
            self._links[(zone_b, zone_a)] = link
        self.topology_version += 1

    def link_between(self, src_node: str, dst_node: str) -> Link:
        """Resolve the link used for a transfer from src to dst node.

        A function of the two nodes' zones alone: two zone lookups and one
        link-table lookup, nothing kept per node pair.
        """
        if src_node == dst_node:
            return LOCAL_LINK
        zones = self.node_zones
        return self.zone_link(
            zones.get(src_node, DEFAULT_ZONE), zones.get(dst_node, DEFAULT_ZONE)
        )

    def transfer_time(self, src_node: str, dst_node: str, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` from src to dst (0 if same node)."""
        return self.link_between(src_node, dst_node).transfer_time(size_bytes)

    # ------------------------------------------------------- zone structure
    #
    # The sharded simulation engine partitions the platform by zone and
    # derives its conservative lookahead from the latency structure below:
    # an event produced in zone A cannot affect zone B sooner than the
    # effective (shortest-path) latency from A to B, so each zone's clock
    # may safely run ahead of the others by that margin.

    def zones(self) -> List[str]:
        """All zones with at least one placed node, in first-placement order."""
        seen: Dict[str, None] = {}
        for zone in self.node_zones.values():
            seen.setdefault(zone)
        return list(seen)

    def zone_link(self, src_zone: str, dst_zone: str) -> Link:
        """The direct link used between two zones (intra-zone for A->A)."""
        if src_zone == dst_zone:
            return self.intra_zone_link
        return self._links.get((src_zone, dst_zone), self.default_link)

    def zone_latency_matrix(
        self, zones: Optional[List[str]] = None
    ) -> Dict[Tuple[str, str], float]:
        """Effective latency between every zone pair (Floyd-Warshall).

        The *direct* link latency between two zones over-states how soon one
        zone can influence another when a cheaper relay exists (A->C->B with
        two 1 ms hops undercuts a 20 ms default A->B link) — and an event
        relayed through C's queue really can arrive that early.  A lookahead
        bound must therefore use the all-pairs shortest-path closure, not
        the raw link table.  Diagonal entries are 0: a zone influences
        itself immediately.
        """
        names = zones if zones is not None else self.zones()
        dist: Dict[Tuple[str, str], float] = {}
        for a in names:
            for b in names:
                dist[(a, b)] = 0.0 if a == b else self.zone_link(a, b).latency_s
        for via in names:
            for a in names:
                through = dist[(a, via)]
                for b in names:
                    relayed = through + dist[(via, b)]
                    if relayed < dist[(a, b)]:
                        dist[(a, b)] = relayed
        return dist

    def record_transfer(
        self,
        src_node: str,
        dst_node: str,
        size_bytes: float,
        start_time: float,
        duration: float,
        datum: str = "",
    ) -> None:
        """Count a completed transfer (same-node moves count for nothing)."""
        if src_node != dst_node:
            self._total_bytes_moved += size_bytes
            self._remote_transfer_count += 1

    @property
    def total_bytes_moved(self) -> float:
        """Bytes moved across distinct nodes (locality metric for E4/E5)."""
        return self._total_bytes_moved

    @property
    def remote_transfer_count(self) -> int:
        return self._remote_transfer_count
