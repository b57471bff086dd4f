"""COMPSs Agents: the fog-to-cloud runtime of §VI-B (DESIGN.md S11).

"The runtime is deployed as a microservice ... Each Agent is independent of
the other and can execute the same application code acting as a worker
whenever needed. ... the runtime interacts with a remote agent using the
same operation of the REST interface."  (§VI-B, Fig. 6)

The Docker/REST substitution (DESIGN.md §2) is an in-process
:class:`MessageBus` that delivers REST-shaped messages between
:class:`Agent` objects in virtual time, charging the platform's network
model for payload movement.  Agents orchestrate profiled task graphs,
offload tasks fog→cloud (and cloud→fog) under an
:class:`OffloadingPolicy`, persist task data through the storage runtime,
and recover work lost to agent failures from those persisted copies
(claims C5, E6, E7, E13).
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "Message": "messages",
        "Op": "messages",
        "MessageBus": "bus",
        "OffloadingPolicy": "offloading",
        "NeverOffload": "offloading",
        "AlwaysOffload": "offloading",
        "LoadThresholdOffload": "offloading",
        "Agent": "agent",
        "AgentReport": "agent",
    },
)
