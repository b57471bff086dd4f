"""The Platform: the set of resources a runtime schedules onto.

A platform bundles nodes, the network topology connecting them, and an energy
accountant.  It is mutable at runtime — nodes can join (cloud elasticity,
agents discovering fog devices) and leave (failures, battery death, scale-in)
— mirroring the paper's requirement that "the set of available resources can
be updated" while applications run (§VI-B).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.infrastructure.energy import EnergyAccountant
from repro.infrastructure.network import NetworkTopology
from repro.infrastructure.resources import Node, NodeKind


class PlatformError(RuntimeError):
    """Raised for invalid platform mutations (duplicate node names, etc.)."""


class Platform:
    """A named collection of nodes plus network and energy models."""

    def __init__(
        self,
        name: str = "platform",
        network: Optional[NetworkTopology] = None,
    ) -> None:
        self.name = name
        self.network = network if network is not None else NetworkTopology()
        self.energy = EnergyAccountant()
        self._nodes: Dict[str, Node] = {}
        # Insertion-ordered live index: nodes registered and not yet
        # failed/removed through the platform API.  A node failed in place
        # (``fail_node``) stays listed in ``_nodes``, so scans keyed on this
        # index cost O(live), not O(listed).  A dead agent's node leaves
        # through ``remove_node`` instead, so under fleet churn ``_nodes``
        # follows the live fleet too.
        self._alive_index: Dict[str, None] = {}
        # Observers notified on node join/leave (schedulers subscribe).
        self._join_listeners: List[Callable[[Node], None]] = []
        self._leave_listeners: List[Callable[[Node], None]] = []

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node, zone: str = "default", at: float = 0.0) -> Node:
        """Register a node, place it in a network zone, start its energy meter."""
        if node.name in self._nodes:
            raise PlatformError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        if node.alive:
            self._alive_index[node.name] = None
        self.network.add_node(node.name, zone)
        self.energy.register_node(node, on_since=at)
        for listener in self._join_listeners:
            listener(node)
        return node

    def add_nodes(self, nodes: Iterable[Node], zone: str = "default", at: float = 0.0) -> None:
        for node in nodes:
            self.add_node(node, zone=zone, at=at)

    def remove_node(self, name: str, at: float = 0.0) -> Node:
        """Remove a node (scale-in / permanent failure)."""
        if name not in self._nodes:
            raise PlatformError(f"unknown node {name!r}")
        node = self._nodes.pop(name)
        self._alive_index.pop(name, None)
        self.energy.power_off(name, at)
        for listener in self._leave_listeners:
            listener(node)
        return node

    def fail_node(self, name: str, at: float = 0.0) -> Node:
        """Mark a node failed in place (it stays listed, but is not alive)."""
        node = self.node(name)
        node.fail()
        self._alive_index.pop(name, None)
        self.energy.power_off(name, at)
        for listener in self._leave_listeners:
            listener(node)
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise PlatformError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> List[Node]:
        """All registered nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def alive_nodes(self) -> List[Node]:
        # The ``n.alive`` re-check covers battery-dead nodes whose death has
        # not yet been routed through ``fail_node`` (a one-event window).
        nodes = self._nodes
        return [n for n in (nodes[name] for name in self._alive_index) if n.alive]

    @property
    def alive_count(self) -> int:
        """Number of live nodes, without materialising the list."""
        nodes = self._nodes
        return sum(1 for name in self._alive_index if nodes[name].alive)

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind is kind]

    @property
    def total_cores(self) -> int:
        return sum(n.cores for n in self.alive_nodes)

    # -------------------------------------------------------------- listeners

    def on_node_join(self, listener: Callable[[Node], None]) -> None:
        self._join_listeners.append(listener)

    def on_node_leave(self, listener: Callable[[Node], None]) -> None:
        self._leave_listeners.append(listener)

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for n in self._nodes.values():
            kinds[n.kind.value] = kinds.get(n.kind.value, 0) + 1
        return f"Platform({self.name!r}, nodes={kinds}, cores={self.total_cores})"
