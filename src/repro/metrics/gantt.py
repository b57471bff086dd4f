"""ASCII Gantt rendering of execution traces.

A terminal-friendly view of where time went: one row per node, one glyph
per time bucket, '█'-shaded by how busy the node was in that bucket.  Used
by the CLI's ``timeline`` command and handy in notebooks/tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.telemetry import RunLog

_SHADES = " ░▒▓█"


def render_gantt(log: RunLog, width: int = 72, label_width: int = 18) -> str:
    """Render a finished run's schedule as an ASCII Gantt chart.

    Each row is a node; each column is ``makespan / width`` seconds; the
    glyph encodes the node's core-occupancy fraction in that bucket
    relative to its own peak (darker = busier).
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    makespan = log.makespan()
    by_node: Dict[str, List[tuple]] = {}
    for row in log.trace_rows():
        by_node.setdefault(row[2], []).append(row)
    if makespan <= 0 or not by_node:
        return "(empty trace)"
    bucket_s = makespan / width
    lines: List[str] = [
        f"{'node':<{label_width}} |{'time →'.ljust(width)}| 0..{makespan:.0f}s"
    ]
    for node_name in sorted(by_node):
        occupancy = [0.0] * width
        # Stable: equal starts keep task-id order.
        for _, _, _, start, end, cores in sorted(by_node[node_name], key=lambda r: r[3]):
            first = min(width - 1, int(start / bucket_s))
            last = min(width - 1, int(max(start, end - 1e-9) / bucket_s))
            for bucket in range(first, last + 1):
                bucket_start = bucket * bucket_s
                bucket_end = bucket_start + bucket_s
                overlap = min(end, bucket_end) - max(start, bucket_start)
                if overlap > 0:
                    occupancy[bucket] += cores * overlap / bucket_s
        peak = max(occupancy) or 1.0
        glyphs = "".join(
            _SHADES[min(len(_SHADES) - 1, int(round(v / peak * (len(_SHADES) - 1))))]
            for v in occupancy
        )
        display = node_name if len(node_name) <= label_width else node_name[: label_width - 1] + "…"
        lines.append(f"{display:<{label_width}} |{glyphs}|")
    return "\n".join(lines)
