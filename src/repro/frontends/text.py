"""Textual workflow descriptions (Pegasus/ASKALON style, §II).

Grammar (one declaration per line, ``#`` comments):

    data  <name> size=<bytes>
    task  <label> duration=<seconds> [cores=N] [memory_mb=N] [gpus=N]
          [nodes=N] [software=a,b] [reads=d1,d2] [writes=d1:size,d2:size]

Example::

    # a tiny two-stage pipeline
    data raw size=2e9
    task filter duration=30 reads=raw writes=clean:1e9
    task analyze duration=60 cores=4 reads=clean writes=report:1e6

Dependencies are derived from the data declarations exactly like the
programmatic Access Processor derives them from argument accesses, so the
two front-ends produce identical graphs for identical dataflow.
"""

from __future__ import annotations

import shlex
from typing import Dict, List, Tuple

from repro.executor.workflow_builder import SimWorkflowBuilder


class WorkflowSyntaxError(ValueError):
    """Raised with a line number when a description cannot be parsed."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_TASK_INT_FIELDS = {"cores", "memory_mb", "gpus", "nodes"}


def _parse_kv(token: str, line_number: int) -> Tuple[str, str]:
    if "=" not in token:
        raise WorkflowSyntaxError(line_number, f"expected key=value, got {token!r}")
    key, value = token.split("=", 1)
    if not key or not value:
        raise WorkflowSyntaxError(line_number, f"malformed key=value {token!r}")
    return key, value


def _parse_writes(value: str, line_number: int) -> Dict[str, float]:
    outputs: Dict[str, float] = {}
    for item in value.split(","):
        if ":" in item:
            name, size = item.split(":", 1)
            try:
                outputs[name] = float(size)
            except ValueError:
                raise WorkflowSyntaxError(
                    line_number, f"bad output size in {item!r}"
                ) from None
        else:
            outputs[item] = 0.0
    return outputs


def parse_workflow_text(text: str) -> SimWorkflowBuilder:
    """Parse a textual workflow description into a builder (graph + data)."""
    builder = SimWorkflowBuilder()
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = shlex.split(line)
        kind = tokens[0]
        if kind == "data":
            if len(tokens) < 3:
                raise WorkflowSyntaxError(line_number, "data needs a name and size=")
            name = tokens[1]
            fields = dict(_parse_kv(t, line_number) for t in tokens[2:])
            if "size" not in fields:
                raise WorkflowSyntaxError(line_number, "data needs size=<bytes>")
            try:
                size = float(fields["size"])
            except ValueError:
                raise WorkflowSyntaxError(
                    line_number, f"bad data size {fields['size']!r}"
                ) from None
            builder.add_initial_datum(name, size)
        elif kind == "task":
            if len(tokens) < 3:
                raise WorkflowSyntaxError(
                    line_number, "task needs a label and duration="
                )
            label = tokens[1]
            fields = dict(_parse_kv(t, line_number) for t in tokens[2:])
            if "duration" not in fields:
                raise WorkflowSyntaxError(line_number, "task needs duration=<seconds>")
            kwargs: Dict = {"label": label}
            try:
                kwargs["duration"] = float(fields.pop("duration"))
            except ValueError:
                raise WorkflowSyntaxError(line_number, "bad duration") from None
            for field_name in list(fields):
                value = fields.pop(field_name)
                if field_name in _TASK_INT_FIELDS:
                    try:
                        kwargs[field_name] = int(value)
                    except ValueError:
                        raise WorkflowSyntaxError(
                            line_number, f"bad integer for {field_name}={value!r}"
                        ) from None
                elif field_name == "software":
                    kwargs["software"] = tuple(value.split(","))
                elif field_name == "reads":
                    kwargs["inputs"] = value.split(",")
                elif field_name == "writes":
                    kwargs["outputs"] = _parse_writes(value, line_number)
                else:
                    raise WorkflowSyntaxError(
                        line_number, f"unknown task field {field_name!r}"
                    )
            try:
                builder.add_task(**kwargs)
            except ValueError as error:
                raise WorkflowSyntaxError(line_number, str(error)) from None
        else:
            raise WorkflowSyntaxError(
                line_number, f"unknown declaration {kind!r} (expected data/task)"
            )
    return builder
