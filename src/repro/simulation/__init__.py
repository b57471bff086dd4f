"""Discrete-event simulation (DES) kernel.

This package is the substitute substrate for the real testbeds used by the
paper (MareNostrum, fog devices, clouds): a deterministic, seeded event loop
that advances a virtual clock through task starts/ends, data transfers, node
failures and elasticity actions.  See DESIGN.md (S6).
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "SimClock": "clock",
        "EventQueue": "events",
        "SimulationEngine": "engine",
        "SimulationError": "engine",
        "DeterministicRandom": "random",
        "ShardedSimulationEngine": "sharded",
        "ChannelMessage": "parallel",
        "ParallelShardedSimulationEngine": "parallel",
        "ShardApi": "parallel",
        "run_programs_sharded": "parallel",
        "run_zone_programs": "parallel",
    },
)
