"""Cloud provider connectors and elasticity (claim C6).

The paper: "COMPSs runtime also supports elasticity in clouds, federated
clouds and in SLURM managed clusters."  A :class:`CloudProvider` can provision
VM nodes after a startup delay and charges per node-second; an
:class:`ElasticityPolicy` watches scheduler pressure and decides when to scale
out/in.  Both operate in virtual time against a :class:`SimulationEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node, NodeKind, PowerProfile
from repro.simulation.engine import SimulationEngine


@dataclass
class VmTemplate:
    """The instance type a provider provisions."""

    cores: int = 8
    memory_mb: int = 32_000
    speed_factor: float = 1.0
    software: tuple = ("python",)
    power: PowerProfile = field(
        default_factory=lambda: PowerProfile(idle_watts=80.0, busy_watts_per_core=8.0)
    )


class CloudProvider:
    """A cloud connector: provisions and releases VM nodes in virtual time.

    Mirrors the paper's connector component "each bridging to each provider
    API"; here the API is the platform itself.  Provisioning takes
    ``startup_delay_s`` of virtual time (VM boot), and usage is billed per
    node-second so the elasticity bench (E8) can report cost.
    """

    def __init__(
        self,
        platform: Platform,
        engine: SimulationEngine,
        name: str = "cloud",
        template: Optional[VmTemplate] = None,
        startup_delay_s: float = 60.0,
        cost_per_node_second: float = 0.0001,
        max_nodes: int = 1_000,
        zone: str = "cloud",
    ) -> None:
        self.platform = platform
        self.engine = engine
        self.name = name
        self.template = template if template is not None else VmTemplate()
        self.startup_delay_s = startup_delay_s
        self.cost_per_node_second = cost_per_node_second
        self.max_nodes = max_nodes
        self.zone = zone
        self._next_id = 0
        self._provisioned: Dict[str, float] = {}  # node name -> provision time
        # Active = provisioned AND still on the platform.  Kept incrementally
        # (a leave listener catches out-of-band removals) so active_nodes /
        # ownership checks don't rescan the fleet per elasticity tick.
        self._active: Dict[str, None] = {}
        self._pending = 0
        self.total_cost = 0.0
        platform.on_node_leave(self._on_platform_leave)

    def _on_platform_leave(self, node: Node) -> None:
        # fail_node leaves the node listed (still "active" in the billing
        # sense, matching has_node); remove_node takes it off the platform.
        if not self.platform.has_node(node.name):
            self._active.pop(node.name, None)

    @property
    def active_nodes(self) -> List[str]:
        return list(self._active)

    @property
    def active_node_count(self) -> int:
        return len(self._active)

    def owns(self, node_name: str) -> bool:
        """O(1): is this VM active under this provider?"""
        return node_name in self._active

    def request_nodes(
        self, count: int, on_ready: Optional[Callable[[Node], None]] = None
    ) -> int:
        """Ask for ``count`` new VMs; returns how many were actually started.

        Each VM joins the platform after the startup delay.  ``on_ready`` is
        called per node once it has joined (schedulers also learn via the
        platform's join listeners).
        """
        budget = self.max_nodes - len(self._provisioned) - self._pending
        granted = max(0, min(count, budget))
        for _ in range(granted):
            self._pending += 1
            vm_id = self._next_id
            self._next_id += 1
            self.engine.after(
                self.startup_delay_s,
                lambda vm_id=vm_id, cb=on_ready: self._boot(vm_id, cb),
            )
        return granted

    def _boot(self, vm_id: int, on_ready: Optional[Callable[[Node], None]]) -> None:
        self._pending -= 1
        node = Node(
            name=f"{self.name}-vm-{vm_id:04d}",
            kind=NodeKind.CLOUD,
            cores=self.template.cores,
            memory_mb=self.template.memory_mb,
            speed_factor=self.template.speed_factor,
            software=frozenset(self.template.software),
            power=self.template.power,
        )
        self.platform.add_node(node, zone=self.zone, at=self.engine.now)
        self._provisioned[node.name] = self.engine.now
        self._active[node.name] = None
        if on_ready is not None:
            on_ready(node)

    def release_node(self, node_name: str) -> None:
        """Terminate a VM: bill its lifetime and remove it from the platform."""
        if node_name not in self._provisioned:
            raise ValueError(f"{node_name!r} was not provisioned by {self.name!r}")
        started = self._provisioned.pop(node_name)
        self._active.pop(node_name, None)
        self.total_cost += (self.engine.now - started) * self.cost_per_node_second
        if self.platform.has_node(node_name):
            self.platform.remove_node(node_name, at=self.engine.now)

    def shutdown(self) -> None:
        """Release every VM still running (end-of-experiment accounting)."""
        for name in list(self._provisioned):
            self.release_node(name)


class ElasticityPolicy:
    """Reactive scale-out/scale-in controller.

    Scales out when the ready-task backlog per active core exceeds
    ``scale_out_backlog``; scales in idle VMs after ``idle_grace_s``.  The
    policy polls on a fixed period in virtual time — the same structure as
    COMPSs' resource optimizer, reduced to its observable behaviour.
    """

    def __init__(
        self,
        provider: CloudProvider,
        engine: SimulationEngine,
        backlog_fn: Callable[[], int],
        idle_nodes_fn: Callable[[], List[str]],
        period_s: float = 30.0,
        scale_out_backlog: float = 2.0,
        max_step: int = 4,
        idle_grace_s: float = 120.0,
        min_nodes: int = 0,
    ) -> None:
        self.provider = provider
        self.engine = engine
        self.backlog_fn = backlog_fn
        self.idle_nodes_fn = idle_nodes_fn
        self.period_s = period_s
        self.scale_out_backlog = scale_out_backlog
        self.max_step = max_step
        self.idle_grace_s = idle_grace_s
        self.min_nodes = min_nodes
        self._idle_since: Dict[str, float] = {}
        self._running = False
        self.scale_out_actions = 0
        self.scale_in_actions = 0

    def start(self) -> None:
        """Begin polling; call before ``engine.run()``."""
        self._running = True
        self.engine.after(self.period_s, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        backlog = self.backlog_fn()
        active = self.provider.active_nodes
        capacity = max(
            1,
            sum(
                self.provider.platform.node(n).cores
                for n in active
                if self.provider.platform.has_node(n)
            ),
        )
        if backlog / capacity > self.scale_out_backlog:
            want = min(self.max_step, 1 + backlog // (self.provider.template.cores * 4))
            granted = self.provider.request_nodes(int(want))
            if granted:
                self.scale_out_actions += 1
        else:
            self._maybe_scale_in(active)
        if self._running:
            self.engine.after(self.period_s, self._tick)

    def _maybe_scale_in(self, active: List[str]) -> None:
        now = self.engine.now
        idle = set(self.idle_nodes_fn())
        for name in active:
            if name in idle:
                self._idle_since.setdefault(name, now)
            else:
                self._idle_since.pop(name, None)
        releasable = [
            name
            for name, since in self._idle_since.items()
            if now - since >= self.idle_grace_s
        ]
        for name in releasable:
            if self.provider.active_node_count <= self.min_nodes:
                break
            self._idle_since.pop(name, None)
            self.provider.release_node(name)
            self.scale_in_actions += 1
