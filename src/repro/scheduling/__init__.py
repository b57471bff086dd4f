"""Task scheduling: capacity tracking and placement policies (DESIGN.md S4).

The paper's COMPSs engine "implement[s] various optimizations, either to
schedule in parallel the workflow to be executed, to improve data locality,
to be able to exploit heterogeneous computing platforms".  This package
provides that engine's scheduler: a per-node capacity ledger plus pluggable
placement policies (FIFO first-fit, load balancing, data locality,
energy-aware, earliest-finish-time).
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "NodeCapacity": "capacity",
        "CapacityLedger": "capacity",
        "DataLocationService": "locations",
        "TransferPlanner": "locations",
        "BlockedDemandFrontier": "scheduler",
        "PlacementPass": "scheduler",
        "SchedulingPolicy": "policies",
        "FifoPolicy": "policies",
        "LoadBalancingPolicy": "policies",
        "LocalityPolicy": "policies",
        "EnergyAwarePolicy": "policies",
        "EarliestFinishTimePolicy": "policies",
        "TaskScheduler": "scheduler",
    },
)
