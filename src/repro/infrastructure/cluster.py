"""Prefab platform builders: HPC clusters and fog-to-cloud continuums.

These mirror the two concrete deployments in the paper's §VI: MareNostrum-like
supercomputers (48-core nodes, fast interconnect) for the GUIDANCE and
NMMB-Monarch case studies, and the OpenFog-style edge/fog/cloud stack of
Fig. 5 for the mF2C agents work.
"""

from __future__ import annotations

from typing import Optional

from repro.infrastructure.network import Link, NetworkTopology
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node, NodeKind, PowerProfile


def make_hpc_cluster(
    num_nodes: int,
    cores_per_node: int = 48,
    memory_mb_per_node: int = 96_000,
    name: str = "marenostrum-sim",
    nodes_per_rack: int = 24,
    software: tuple = ("mpi", "python"),
) -> Platform:
    """Build a MareNostrum-like cluster: racks of fat nodes on a fast fabric.

    Defaults approximate MareNostrum 4 (48 cores, 96 GB per node), the machine
    the GUIDANCE case study ran on (claim C1: 100 nodes = 4,800 cores).
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
    network = NetworkTopology(
        # Intra-rack: ~100 Gbit/s fabric, microsecond latency.
        intra_zone_link=Link(latency_s=1e-6, bandwidth_bps=100e9 / 8),
        # Cross-rack: same fabric, slightly higher latency.
        default_link=Link(latency_s=5e-6, bandwidth_bps=100e9 / 8),
    )
    platform = Platform(name=name, network=network)
    power = PowerProfile(idle_watts=150.0, busy_watts_per_core=6.0)
    for i in range(num_nodes):
        rack = f"rack-{i // nodes_per_rack}"
        platform.add_node(
            Node(
                name=f"{name}-node-{i:04d}",
                kind=NodeKind.HPC,
                cores=cores_per_node,
                memory_mb=memory_mb_per_node,
                speed_factor=1.0,
                software=frozenset(software),
                power=power,
            ),
            zone=rack,
        )
    return platform


def make_fog_platform(
    num_edge: int = 4,
    num_fog: int = 3,
    num_cloud: int = 2,
    name: str = "fog-to-cloud",
    fog_battery_joules: Optional[float] = 50_000.0,
) -> Platform:
    """Build the three-layer OpenFog architecture of Fig. 5.

    Edge devices are tiny (sensors with a weak core), fog devices are
    phone/tablet class (battery-powered), cloud nodes are big VMs.  The WAN
    between fog and cloud is slow relative to the fog-local network, which is
    what makes the offloading trade-off (E6) non-trivial.
    """
    network = NetworkTopology(
        # Fog-area local network: WiFi-class.
        intra_zone_link=Link(latency_s=2e-3, bandwidth_bps=100e6 / 8),
        default_link=Link(latency_s=50e-3, bandwidth_bps=20e6 / 8),
    )
    # Cloud-internal network is fast.
    network.connect("cloud", "cloud", Link(latency_s=0.5e-3, bandwidth_bps=10e9 / 8))
    # Fog <-> cloud WAN.
    wan = Link(latency_s=40e-3, bandwidth_bps=50e6 / 8)
    network.connect("fog-area", "cloud", wan)

    platform = Platform(name=name, network=network)
    for i in range(num_edge):
        platform.add_node(
            Node(
                name=f"edge-{i}",
                kind=NodeKind.EDGE,
                cores=1,
                memory_mb=512,
                speed_factor=0.1,
                power=PowerProfile(idle_watts=1.0, busy_watts_per_core=2.0),
                battery_joules=5_000.0,
            ),
            zone="fog-area",
        )
    for i in range(num_fog):
        platform.add_node(
            Node(
                name=f"fog-{i}",
                kind=NodeKind.FOG,
                cores=4,
                memory_mb=4_000,
                speed_factor=0.25,
                power=PowerProfile(idle_watts=2.0, busy_watts_per_core=3.0),
                battery_joules=fog_battery_joules,
            ),
            zone="fog-area",
        )
    for i in range(num_cloud):
        platform.add_node(
            Node(
                name=f"cloud-{i}",
                kind=NodeKind.CLOUD,
                cores=16,
                memory_mb=64_000,
                speed_factor=1.0,
                power=PowerProfile(idle_watts=120.0, busy_watts_per_core=8.0),
            ),
            zone="cloud",
        )
    return platform
