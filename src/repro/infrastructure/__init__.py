"""Computing-continuum infrastructure model (DESIGN.md S7).

Models the Advanced Cyberinfrastructure Platforms of the paper's §III: edge
devices, fog devices, cloud providers with elasticity, HPC clusters managed by
a SLURM-like job manager, the network connecting them, and an energy model.
Everything is a plain-Python description consumed by the schedulers and the
simulated executor; nothing here talks to real hardware.
"""

from repro.infrastructure.resources import (
    Node,
    NodeKind,
    PowerProfile,
    GpuSpec,
)
from repro.infrastructure.network import NetworkTopology, Link
from repro.infrastructure.energy import EnergyAccountant
from repro.infrastructure.platform import Platform
from repro.infrastructure.cluster import make_hpc_cluster, make_fog_platform
from repro.infrastructure.cloud import CloudProvider, ElasticityPolicy
from repro.infrastructure.slurm import SlurmManager, SlurmJob

__all__ = [
    "Node",
    "NodeKind",
    "PowerProfile",
    "GpuSpec",
    "NetworkTopology",
    "Link",
    "EnergyAccountant",
    "Platform",
    "make_hpc_cluster",
    "make_fog_platform",
    "CloudProvider",
    "ElasticityPolicy",
    "SlurmManager",
    "SlurmJob",
]
