"""Paraver-flavoured trace export.

BSC analyses COMPSs executions with Paraver; this module writes the same
information from a simulated run's log in two interchange forms:

* a ``.prv``-like record stream (``state`` records per task occupancy:
  ``1:<node>:<task_id>:<start_us>:<end_us>:<label>``) plus a row file
  mapping node ids to names;
* plain CSV for spreadsheet/pandas analysis.

Only completed tasks appear; both exports are deterministic.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Tuple

from repro.telemetry import RunLog


def _by_start(row: tuple) -> tuple:
    return row[3], row[0]


def export_prv(log: RunLog) -> Tuple[str, str]:
    """Return (prv_body, row_file) strings for a finished run."""
    rows = log.trace_rows()
    node_ids: Dict[str, int] = {}
    for row in rows:
        node_ids.setdefault(row[2], len(node_ids) + 1)
    header = (
        f"#Paraver-like trace: tasks={len({row[0] for row in rows})} "
        f"nodes={len(node_ids)} makespan_us={int(log.makespan() * 1e6)}"
    )
    lines = [header]
    for task_id, label, node, start, end, _ in sorted(rows, key=_by_start):
        lines.append(
            f"1:{node_ids[node]}:{task_id}:{int(start * 1e6)}:{int(end * 1e6)}:{label}"
        )
    row_lines = [f"LEVEL NODE SIZE {len(node_ids)}"]
    for name, node_id in sorted(node_ids.items(), key=lambda kv: kv[1]):
        row_lines.append(f"{node_id} {name}")
    return "\n".join(lines), "\n".join(row_lines)


def export_trace_csv(log: RunLog) -> str:
    """CSV dump of every completed task's trace row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["task_id", "label", "node", "start", "end", "cores"])
    for task_id, label, node, start, end, cores in sorted(log.trace_rows(), key=_by_start):
        writer.writerow([task_id, label, node, f"{start:.6f}", f"{end:.6f}", cores])
    return buffer.getvalue()
