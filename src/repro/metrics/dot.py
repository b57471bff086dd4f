"""Graphviz (DOT) export of task graphs.

COMPSs deployments visualize their workflow DAGs; this is the equivalent
observability hook.  The output is plain DOT text — render with
``dot -Tsvg`` if graphviz is installed, or read it as-is.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.graph import TaskGraph, TaskState

_STATE_COLORS: Dict[TaskState, str] = {
    TaskState.PENDING: "gray80",
    TaskState.READY: "khaki",
    TaskState.RUNNING: "lightblue",
    TaskState.DONE: "palegreen",
    TaskState.FAILED: "salmon",
    TaskState.CANCELLED: "gray50",
}


def graph_to_dot(
    graph: TaskGraph,
    name: str = "workflow",
    max_label_length: int = 32,
    group_by_node: bool = False,
) -> str:
    """Render a task graph as a DOT digraph string.

    Args:
        graph: the graph to render (any state; colors encode task states).
            A real runtime's graph holds no DONE task once it has settled,
            so neither those tasks nor their edges are drawn.
        name: the digraph's name.
        max_label_length: task labels longer than this are truncated.
        group_by_node: cluster tasks by the node that executed them.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=box, style=filled];']

    def node_line(instance) -> str:
        label = instance.label
        if len(label) > max_label_length:
            label = label[: max_label_length - 1] + "…"
        color = _STATE_COLORS[instance.state]
        return (
            f'  t{instance.task_id} [label="{label}", fillcolor="{color}"];'
        )

    if group_by_node:
        by_node: Dict[Optional[str], list] = {}
        for instance in graph.tasks:
            by_node.setdefault(instance.assigned_node, []).append(instance)
        cluster = 0
        for node_name, instances in by_node.items():
            if node_name is None:
                for instance in instances:
                    lines.append(node_line(instance))
                continue
            lines.append(f"  subgraph cluster_{cluster} {{")
            lines.append(f'    label="{node_name}";')
            for instance in instances:
                lines.append("  " + node_line(instance))
            lines.append("  }")
            cluster += 1
    else:
        for instance in graph.tasks:
            lines.append(node_line(instance))

    for instance in graph.tasks:
        for pred in sorted(graph.predecessors(instance.task_id)):
            if pred in graph:
                lines.append(f"  t{pred} -> t{instance.task_id};")
    lines.append("}")
    return "\n".join(lines)
