"""Computing-continuum infrastructure model (DESIGN.md S7).

Models the Advanced Cyberinfrastructure Platforms of the paper's §III: edge
devices, fog devices, cloud providers with elasticity, HPC clusters managed by
a SLURM-like job manager, the network connecting them, and an energy model.
Everything is a plain-Python description consumed by the schedulers and the
simulated executor; nothing here talks to real hardware.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "Node": "resources",
        "NodeKind": "resources",
        "PowerProfile": "resources",
        "GpuSpec": "resources",
        "NetworkTopology": "network",
        "Link": "network",
        "EnergyAccountant": "energy",
        "Platform": "platform",
        "make_hpc_cluster": "cluster",
        "make_fog_platform": "cluster",
        "CloudProvider": "cloud",
        "ElasticityPolicy": "cloud",
        "SlurmManager": "slurm",
        "SlurmJob": "slurm",
    },
)
