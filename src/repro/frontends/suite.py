"""Cycling suites: the Cylc/Autosubmit/ecFlow front-end (§II).

Climate and weather centres (the paper cites BSC's Autosubmit and the
Cylc/ecFlow assessment) describe experiments as a small set of task types
repeated over *cycles* (forecast days, ensemble dates), with dependencies
that may point into previous cycles — "the workflows compose large MPI
simulations" chained by restart files.

A :class:`CyclingSuite` declares task types once; :meth:`expand` unrolls
them over N cycles into the same :class:`SimWorkflowBuilder` graphs every
other front-end produces.  Dependency syntax:

* ``"preprocess"``   — the task of the *same* cycle;
* ``"sim[-1]"``      — the task one cycle earlier (dropped at cycle 0);
* ``"init[-2]"``     — two cycles earlier, etc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.executor.workflow_builder import SimWorkflowBuilder

_DEP_PATTERN = re.compile(r"^(?P<name>[\w./-]+)(\[(?P<offset>-\d+)\])?$")


class SuiteError(ValueError):
    """Raised for malformed suite definitions."""


@dataclass
class SuiteTask:
    """One task type of the suite (repeated every cycle)."""

    name: str
    duration: float
    depends: Sequence[str] = ()
    cores: int = 1
    memory_mb: int = 0
    nodes: int = 1
    software: Sequence[str] = ()
    output_bytes: float = 1e6

    def parsed_depends(self) -> List[Tuple[str, int]]:
        """[(task_name, cycle_offset <= 0), ...]"""
        parsed = []
        for dep in self.depends:
            match = _DEP_PATTERN.match(dep)
            if match is None:
                raise SuiteError(f"bad dependency syntax {dep!r} in task {self.name!r}")
            offset = int(match.group("offset") or 0)
            if offset > 0:
                raise SuiteError(
                    f"dependency {dep!r} points to a future cycle; only "
                    "same-cycle or earlier-cycle dependencies are allowed"
                )
            parsed.append((match.group("name"), offset))
        return parsed


class CyclingSuite:
    """A suite definition: task types + cycle expansion."""

    def __init__(self, name: str = "suite") -> None:
        self.name = name
        self._tasks: Dict[str, SuiteTask] = {}
        self._order: List[str] = []

    def add_task(self, task: SuiteTask) -> "CyclingSuite":
        if task.name in self._tasks:
            raise SuiteError(f"duplicate suite task {task.name!r}")
        for dep_name, _offset in task.parsed_depends():
            if dep_name not in self._tasks and dep_name != task.name:
                raise SuiteError(
                    f"task {task.name!r} depends on undeclared task {dep_name!r}; "
                    "declare tasks in dependency order"
                )
        self._tasks[task.name] = task
        self._order.append(task.name)
        return self

    def _datum(self, task_name: str, cycle: int) -> str:
        return f"{self.name}/{task_name}@{cycle}"

    def expand(self, cycles: int) -> SimWorkflowBuilder:
        """Unroll the suite over ``cycles`` cycles into a workflow graph.

        Same-cycle dependencies become reads of the producer's cycle output;
        ``[-k]`` dependencies read the output from ``cycle - k`` (silently
        dropped when that cycle predates the experiment, the Cylc
        convention for initial cycles).
        """
        if cycles < 1:
            raise SuiteError(f"cycles must be >= 1, got {cycles}")
        builder = SimWorkflowBuilder()
        for cycle in range(cycles):
            for name in self._order:
                suite_task = self._tasks[name]
                inputs: List[str] = []
                for dep_name, offset in suite_task.parsed_depends():
                    dep_cycle = cycle + offset
                    if dep_cycle < 0:
                        continue  # before the first cycle: no dependency
                    if dep_name == name and offset == 0:
                        raise SuiteError(
                            f"task {name!r} cannot depend on itself in the "
                            "same cycle"
                        )
                    inputs.append(self._datum(dep_name, dep_cycle))
                builder.add_task(
                    f"{name}@{cycle}",
                    duration=suite_task.duration,
                    inputs=inputs,
                    outputs={self._datum(name, cycle): suite_task.output_bytes},
                    cores=suite_task.cores,
                    memory_mb=suite_task.memory_mb,
                    nodes=suite_task.nodes,
                    software=suite_task.software,
                )
        return builder
