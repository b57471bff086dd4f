"""Parameter directions for task annotations.

PyCOMPSs tasks declare how each parameter is accessed; the Access Processor
uses the declared direction to derive data dependencies:

* ``IN``      — read-only object (default for positional parameters);
* ``OUT``     — object produced by the task, previous value ignored;
* ``INOUT``   — object read and mutated in place;
* ``FILE_IN`` / ``FILE_OUT`` / ``FILE_INOUT`` — the parameter is a *path*;
  the dependency is on the file behind it, not on the string.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Direction(enum.Enum):
    """How a task accesses one of its parameters.

    ``is_file``, ``reads`` and ``writes`` are plain per-member attributes:
    the Access Processor reads them for every argument of every task.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    FILE_IN = "file_in"
    FILE_OUT = "file_out"
    FILE_INOUT = "file_inout"

    def __init__(self, value: str) -> None:
        access = value.rpartition("_")[2]
        self.is_file = value.startswith("file_")
        self.reads = access != "out"
        self.writes = access != "in"


@dataclass(frozen=True)
class Parameter:
    """A parameter annotation attached to a task definition."""

    direction: Direction

    def __repr__(self) -> str:
        return f"Parameter({self.direction.value})"


# The annotation constants user code imports, PyCOMPSs-style:
#     @task(c=INOUT, returns=1)
#     def accumulate(c, x): ...
IN = Parameter(Direction.IN)
OUT = Parameter(Direction.OUT)
INOUT = Parameter(Direction.INOUT)
FILE_IN = Parameter(Direction.FILE_IN)
FILE_OUT = Parameter(Direction.FILE_OUT)
FILE_INOUT = Parameter(Direction.FILE_INOUT)
