"""Task scheduling: capacity tracking and placement policies (DESIGN.md S4).

The paper's COMPSs engine "implement[s] various optimizations, either to
schedule in parallel the workflow to be executed, to improve data locality,
to be able to exploit heterogeneous computing platforms".  This package
provides that engine's scheduler: a per-node capacity ledger plus pluggable
placement policies (FIFO first-fit, load balancing, data locality,
energy-aware, earliest-finish-time).
"""

from repro.scheduling.capacity import NodeCapacity, CapacityLedger
from repro.scheduling.locations import DataLocationService, TransferPlanner
from repro.scheduling.policies import (
    SchedulingPolicy,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
    EnergyAwarePolicy,
    EarliestFinishTimePolicy,
)
from repro.scheduling.scheduler import BlockedDemandFrontier, PlacementPass, TaskScheduler

__all__ = [
    "NodeCapacity",
    "CapacityLedger",
    "DataLocationService",
    "TransferPlanner",
    "BlockedDemandFrontier",
    "PlacementPass",
    "SchedulingPolicy",
    "FifoPolicy",
    "LoadBalancingPolicy",
    "LocalityPolicy",
    "EnergyAwarePolicy",
    "EarliestFinishTimePolicy",
    "TaskScheduler",
]
