"""REST-shaped messages exchanged between agents.

The paper's agents expose a REST API ("Start Application", task submission,
resource updates, result queries).  Each :class:`Op` below corresponds to one
of those operations; :class:`Message` is the envelope the bus moves around.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict


class Op(enum.Enum):
    """The agent REST operations (Fig. 6)."""

    START_APPLICATION = "POST /COMPSs/startApplication"
    EXECUTE_TASK = "POST /COMPSs/task"
    TASK_DONE = "PUT /COMPSs/result"
    ADD_RESOURCES = "PUT /COMPSs/resources/add"
    REMOVE_RESOURCES = "PUT /COMPSs/resources/remove"
    QUERY_STATUS = "GET /COMPSs/status"
    STATUS_REPLY = "200 /COMPSs/status"
    AGENT_DOWN = "NOTIFY /monitor/agentDown"


_message_ids = itertools.count(1)


@dataclass
class Message:
    """One message on the bus.

    ``payload_bytes`` is what the network model charges for delivery; control
    messages default to a small fixed envelope, data-carrying messages add
    their data size explicitly.
    """

    op: Op
    sender: str
    recipient: str
    payload: Dict[str, Any] = field(default_factory=dict)
    payload_bytes: float = 512.0
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __repr__(self) -> str:
        return (
            f"Message#{self.message_id}({self.op.value}, "
            f"{self.sender} -> {self.recipient})"
        )
