"""The run log: one row per application task that reached a terminal state.

:class:`~repro.executor.simulated.SimulatedExecutor` appends a row at each
of its settle points — a completion, a failure with the cancellations it
cascades into, a task admitted already CANCELLED — so what is read after a
run (the Gantt chart, the Paraver exports, per-node busy time, the zone
digests) reads these columns and never walks the graph.  The real runtime
keeps no log: it forgets DONE tasks, and nothing reads one there.

A row holds references to the instance's own objects (label, node tuple,
the very floats of its start and end), never copies: the zone digests
pickle the rows, and pickle's memo writes a repeated object as a
back-reference, so equal but distinct objects would change the bytes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional


class RunLog:
    """Columns of settled application tasks, in settle order."""

    COLUMNS = ("task_id", "label", "nodes", "state", "start", "end", "cores", "cache_key")
    __slots__ = COLUMNS

    def __init__(self) -> None:
        for column in self.COLUMNS:
            setattr(self, column, [])

    def append(self, instance) -> None:
        """Record ``instance``, which has just reached a terminal state."""
        self.task_id.append(instance.task_id)
        self.label.append(instance.label)
        self.nodes.append(instance.assigned_nodes)
        self.state.append(instance.state.name)
        self.start.append(instance.start_time)
        self.end.append(instance.end_time)
        self.cores.append(instance.requirements.cores)
        self.cache_key.append(instance.cache_key)

    def rows(self, *columns: str) -> Iterator[tuple]:
        """The named columns (all of them by default), row by row."""
        return zip(*(getattr(self, column) for column in columns or self.COLUMNS))

    def makespan(self) -> float:
        """The latest end of a completed or failed task (0.0 if none)."""
        return max((end for end in self.end if end is not None), default=0.0)

    def trace_rows(self) -> List[tuple]:
        """``(task_id, label, node, start, end, cores)`` for every node of
        every completed task, in task-id order (a graph's registration
        order), nodes in allocation order."""
        return [
            (task_id, label, node, start, end, cores)
            for task_id, label, nodes, state, start, end, cores, _ in sorted(
                self.rows(), key=lambda row: row[0]
            )
            if state == "DONE"
            for node in nodes
        ]

    def busy_seconds(self) -> Dict[str, float]:
        """Seconds each node spent running tasks that completed, summed in
        completion order."""
        busy: Dict[str, float] = {}
        for state, nodes, start, end in self.rows("state", "nodes", "start", "end"):
            if state == "DONE":
                for node in nodes:
                    busy[node] = busy.get(node, 0.0) + (end - start)
        return busy

    def utilization(self, total_cores: int, makespan: Optional[float] = None) -> float:
        """Fraction of available core-time spent executing tasks.

        The scalability experiments (E1) report this alongside speedup: good
        scalability == utilization stays high as nodes are added.
        """
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        horizon = makespan if makespan is not None else self.makespan()
        if horizon <= 0:
            return 0.0
        busy = sum((end - start) * cores for _, _, _, start, end, cores in self.trace_rows())
        return min(1.0, busy / (total_cores * horizon))
