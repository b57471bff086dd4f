"""Builder for simulated workflows: profiled task DAGs without decorators.

Benchmarks describe workloads as tasks with synthetic profiles (duration,
cores, memory, named data inputs/outputs).  The builder registers every
access with the same code the Access Processor registers real programs'
accesses with — :class:`repro.core.data.DependencyTracker` over one
:class:`repro.core.data.Datum` per name — so the simulated graphs carry the
identical RAW/WAR/WAW edges.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, Optional, Set

from repro.core.constraints import ResolvedRequirements
from repro.core.data import Datum, DependencyTracker
from repro.core.graph import SimProfile, TaskGraph, TaskInstance

#: The software set of every task that names none (since Python 3.10 each
#: empty ``frozenset(...)`` is a new object).
_NO_SOFTWARE: frozenset = frozenset()


class SimWorkflowBuilder:
    """Accumulates profiled tasks into a :class:`TaskGraph`.

    Data dependencies are derived from datum names: a task reading ``"x"``
    depends on the last task that declared ``"x"`` among its outputs (RAW);
    re-writing a datum adds WAR/WAW edges exactly like the real AP.
    """

    def __init__(self) -> None:
        self.graph = TaskGraph()
        self._data: Dict[str, Datum] = {}
        self._ids = itertools.count(1)
        # The simulated graph forgets nothing: no reader to sweep.
        self._tracker = DependencyTracker()
        # Simulated workloads submit thousands of tasks sharing a handful of
        # distinct resource demands; interning the frozen requirements
        # objects keeps per-task build allocations (and the blocked-reqs
        # dispatch skip, which hashes them) cheap.
        self._requirements_cache: Dict[tuple, ResolvedRequirements] = {}
        #: sizes of data that exist before the workflow starts (initial data)
        self.initial_data: Dict[str, float] = {}

    def add_initial_datum(self, name: str, size_bytes: float) -> None:
        """Declare a datum that exists before any task runs (e.g. input files)."""
        self._data[name] = Datum(name, size_bytes=float(size_bytes))
        self.initial_data[name] = float(size_bytes)

    def add_task(
        self,
        label: str,
        duration: float,
        inputs: Iterable[str] = (),
        outputs: Optional[Mapping[str, float]] = None,
        cores: int = 1,
        memory_mb: int = 0,
        gpus: int = 0,
        nodes: int = 1,
        software: Iterable[str] = (),
        depends_on: Iterable[int] = (),
    ) -> TaskInstance:
        """Append a task; returns its instance (its ``task_id`` can be used
        in later ``depends_on`` for pure control dependencies)."""
        task_id = next(self._ids)
        deps: Set[int] = set(depends_on)
        # Each input once, in first-read order, with the size it has now:
        # naming one twice neither registers a second read nor fetches it
        # twice.  Its keys, the datums' own names, are the task's reads.
        input_sizes: Dict[str, float] = {}
        output_names = outputs or {}
        output_sizes = tuple(float(size) for size in output_names.values())
        data = self._data
        read = self._tracker.read
        for name in inputs:
            if name in input_sizes:
                continue
            datum = data.get(name)
            if datum is None:
                raise ValueError(
                    f"task {label!r} reads unknown datum {name!r}; declare it "
                    "with add_initial_datum or produce it with an earlier task"
                )
            read(datum, task_id, deps)
            input_sizes[datum.datum_id] = datum.size_bytes

        for name, size in zip(output_names, output_sizes):
            datum = data.get(name)
            if datum is None:
                # Born written, as a task result is on the real runtime.
                datum = data[name] = Datum(name, 1, task_id)
            else:
                self._tracker.write(datum, task_id, deps)
            datum.size_bytes = size

        # One input lends its own size object: no fresh float, same value.
        sizes = input_sizes.values()
        instance = TaskInstance(
            task_id=task_id,
            label=f"{label}#{task_id}",
            requirements=self._intern_requirements(
                cores, memory_mb, gpus, frozenset(software) or _NO_SOFTWARE, nodes
            ),
            reads=input_sizes,
            writes=output_names,
            profile=SimProfile(
                duration_s=duration,
                input_bytes=next(iter(sizes)) if len(sizes) == 1 else sum(sizes),
                output_sizes=output_sizes,
            ),
        )
        self.graph.add_task(instance, depends_on=deps)
        return instance

    def _intern_requirements(
        self,
        cores: int,
        memory_mb: int,
        gpus: int,
        software: frozenset,
        nodes: int,
    ) -> ResolvedRequirements:
        key = (cores, memory_mb, gpus, software, nodes)
        cached = self._requirements_cache.get(key)
        if cached is None:
            cached = ResolvedRequirements(
                cores=cores,
                memory_mb=memory_mb,
                gpus=gpus,
                software=software,
                nodes=nodes,
            )
            self._requirements_cache[key] = cached
        return cached
