"""Discrete-event simulation (DES) kernel.

This package is the substitute substrate for the real testbeds used by the
paper (MareNostrum, fog devices, clouds): a deterministic, seeded event loop
that advances a virtual clock through task starts/ends, data transfers, node
failures and elasticity actions.  See DESIGN.md (S6).
"""

from repro.simulation.clock import SimClock
from repro.simulation.events import Event, EventQueue
from repro.simulation.engine import SimulationEngine, SimulationError
from repro.simulation.random import DeterministicRandom
from repro.simulation.sharded import ShardedSimulationEngine
from repro.simulation.parallel import (
    ChannelMessage,
    ParallelShardedSimulationEngine,
    ShardApi,
    run_programs_sharded,
    run_zone_programs,
)

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "SimulationEngine",
    "SimulationError",
    "DeterministicRandom",
    "ShardedSimulationEngine",
    "ChannelMessage",
    "ParallelShardedSimulationEngine",
    "ShardApi",
    "run_programs_sharded",
    "run_zone_programs",
]
