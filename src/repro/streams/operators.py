"""Operator graphs: the dataflow plane's logical layer.

An :class:`OperatorGraph` *describes* a dataflow — sources feeding chains
of element-wise operators (``map`` / ``filter``) into window-level
operators (``tumbling_window`` / ``keyed_join`` / ``batch_every``) with
arbitrary fan-in (a window over several chains) and fan-out (one chain
feeding several windows, every window's output stream subscribable by any
number of consumers).  Nothing here executes: the
:class:`~repro.streams.dataflow.DataflowPlane` lowers window-level
operators into :class:`~repro.core.graph.TaskGraph` tasks at window-close
time, and fuses each element chain into a single per-batch ingestion
callback — which is why element operators cost O(1) per element and never
touch the event queue.

This is the Hybrid Workflows unification (Ramon-Cortes et al., FGCS 2020):
the same task runtime runs batch DAGs and stream operators, so campaigns
can feed window results into batch stages and batch outputs back into
stream parameters.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.constraints import ResolvedRequirements
from repro.streams.sources import CreditValve
from repro.streams.stream import DataStream


class OperatorError(ValueError):
    """Malformed operator graph."""


#: Default simulated cost of one window task: linear in element count.
def _default_duration(count: int) -> float:
    return 0.0005 * max(1, count)


class SourceNode:
    """A raw input stream entering the dataflow."""

    kind = "source"

    def __init__(
        self, graph: "OperatorGraph", name: str, stream: DataStream,
        valve: Optional[CreditValve],
    ) -> None:
        self.graph = graph
        self.name = name
        self.stream = stream
        self.valve = valve


class ElementNode:
    """An element-wise transform (map) or predicate (filter) on a chain."""

    def __init__(
        self,
        graph: "OperatorGraph",
        name: str,
        kind: str,
        parent: Union[SourceNode, "ElementNode"],
        fn: Callable[[Any], Any],
    ) -> None:
        self.graph = graph
        self.name = name
        self.kind = kind  # "map" | "filter"
        self.parent = parent
        self.fn = fn


class WindowNode:
    """A tumbling window over one or more element chains (fan-in).

    Closes lower into one task per non-empty window; ``key_fn`` groups the
    window's elements and applies ``compute_fn`` per group (a keyed
    window), otherwise ``compute_fn`` sees the whole window's values.
    """

    kind = "window"

    def __init__(
        self,
        graph: "OperatorGraph",
        name: str,
        inputs: Sequence[Union[SourceNode, ElementNode]],
        window_s: float,
        compute_fn: Callable[[List[Any]], Any],
        duration_fn: Optional[Callable[[int], float]] = None,
        key_fn: Optional[Callable[[Any], Any]] = None,
        bytes_per_element: float = 0.0,
        output_bytes: float = 1024.0,
        requirements: Optional[ResolvedRequirements] = None,
    ) -> None:
        if not 0 < window_s < float("inf"):  # NaN fails too
            raise OperatorError(f"window_s must be positive and finite, got {window_s}")
        if not inputs:
            raise OperatorError(f"window {name!r} needs at least one input")
        self.graph = graph
        self.name = name
        self.inputs = tuple(inputs)
        self.window_s = window_s
        self.compute_fn = compute_fn
        self.duration_fn = duration_fn or _default_duration
        self.key_fn = key_fn
        self.bytes_per_element = bytes_per_element
        self.output_bytes = output_bytes
        self.requirements = requirements or ResolvedRequirements()
        self.output = DataStream(f"{name}.out")


class JoinNode:
    """A keyed tumbling join of two chains.

    Both sides bucket into the same window grid; at close, groups present
    on *both* sides join through ``join_fn(key, left_values, right_values)``
    and the window's value is the key-sorted dict of join results.
    """

    kind = "join"

    def __init__(
        self,
        graph: "OperatorGraph",
        name: str,
        left: Union[SourceNode, ElementNode],
        right: Union[SourceNode, ElementNode],
        window_s: float,
        key_fn: Callable[[Any], Any],
        join_fn: Callable[[Any, List[Any], List[Any]], Any],
        right_key_fn: Optional[Callable[[Any], Any]] = None,
        duration_fn: Optional[Callable[[int], float]] = None,
        bytes_per_element: float = 0.0,
        output_bytes: float = 1024.0,
        requirements: Optional[ResolvedRequirements] = None,
    ) -> None:
        if not 0 < window_s < float("inf"):  # NaN fails too
            raise OperatorError(f"window_s must be positive and finite, got {window_s}")
        self.graph = graph
        self.name = name
        self.left = left
        self.right = right
        self.inputs = (left, right)
        self.window_s = window_s
        self.key_fn = key_fn
        self.right_key_fn = right_key_fn or key_fn
        self.join_fn = join_fn
        self.duration_fn = duration_fn or _default_duration
        self.bytes_per_element = bytes_per_element
        self.output_bytes = output_bytes
        self.requirements = requirements or ResolvedRequirements()
        self.output = DataStream(f"{name}.out")


class BatchNode:
    """A batch stage fed by a window operator: streams feeding batch.

    Every ``every`` upstream window results, one batch task is lowered
    *depending on those window tasks* — a DAG edge from the streaming side
    into the batch side of a hybrid campaign.  Its output stream closes the
    loop the other way (batch feeding streams): subscribers can use the
    batch result to retune element operators or source rates mid-campaign.
    """

    kind = "batch"

    def __init__(
        self,
        graph: "OperatorGraph",
        name: str,
        upstream: Union[WindowNode, JoinNode],
        every: int,
        fn: Callable[[List[Any]], Any],
        duration_fn: Optional[Callable[[int], float]] = None,
        output_bytes: float = 1024.0,
        requirements: Optional[ResolvedRequirements] = None,
    ) -> None:
        if every < 1:
            raise OperatorError(f"every must be >= 1, got {every}")
        self.graph = graph
        self.name = name
        self.upstream = upstream
        self.every = every
        self.fn = fn
        self.duration_fn = duration_fn or _default_duration
        self.output_bytes = output_bytes
        self.requirements = requirements or ResolvedRequirements()
        self.output = DataStream(f"{name}.out")


WindowLevelNode = Union[WindowNode, JoinNode, BatchNode]


class StreamHandle:
    """Fluent handle over an element-level node (source or chain tail)."""

    def __init__(self, graph: "OperatorGraph", node: Union[SourceNode, ElementNode]):
        self.graph = graph
        self.node = node

    @property
    def stream(self) -> DataStream:
        """The underlying raw stream (walks the chain back to its source)."""
        node = self.node
        while isinstance(node, ElementNode):
            node = node.parent
        return node.stream

    def map(self, name: str, fn: Callable[[Any], Any]) -> "StreamHandle":
        node = ElementNode(self.graph, self.graph._register(name), "map", self.node, fn)
        return StreamHandle(self.graph, node)

    def filter(self, name: str, fn: Callable[[Any], bool]) -> "StreamHandle":
        node = ElementNode(
            self.graph, self.graph._register(name), "filter", self.node, fn
        )
        return StreamHandle(self.graph, node)

    def tumbling_window(self, name: str, window_s: float, compute_fn, **kwargs):
        return self.graph.tumbling_window(name, [self], window_s, compute_fn, **kwargs)


class WindowHandle:
    """Fluent handle over a window-level node."""

    def __init__(self, graph: "OperatorGraph", node: WindowLevelNode):
        self.graph = graph
        self.node = node

    @property
    def output(self) -> DataStream:
        return self.node.output

    def batch_every(
        self, name: str, every: int, fn: Callable[[List[Any]], Any], **kwargs
    ) -> "WindowHandle":
        if isinstance(self.node, BatchNode):
            raise OperatorError("batch_every cannot stack on a batch stage")
        node = BatchNode(
            self.graph, self.graph._register(name), self.node, every, fn, **kwargs
        )
        self.graph.window_nodes.append(node)
        return WindowHandle(self.graph, node)


class OperatorGraph:
    """A named dataflow description: sources, chains, window operators."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._names: set = set()
        self.sources: List[SourceNode] = []
        self.window_nodes: List[WindowLevelNode] = []

    def _register(self, name: str) -> str:
        if name in self._names:
            raise OperatorError(f"duplicate operator name {name!r}")
        self._names.add(name)
        return name

    def source(
        self,
        name: str,
        stream: Optional[DataStream] = None,
        valve: Optional[CreditValve] = None,
    ) -> StreamHandle:
        node = SourceNode(
            self, self._register(name), stream or DataStream(name), valve
        )
        self.sources.append(node)
        return StreamHandle(self, node)

    def tumbling_window(
        self,
        name: str,
        inputs: Sequence[StreamHandle],
        window_s: float,
        compute_fn: Callable[[List[Any]], Any],
        **kwargs,
    ) -> WindowHandle:
        node = WindowNode(
            self,
            self._register(name),
            [handle.node for handle in inputs],
            window_s,
            compute_fn,
            **kwargs,
        )
        self.window_nodes.append(node)
        return WindowHandle(self, node)

    def keyed_join(
        self,
        name: str,
        left: StreamHandle,
        right: StreamHandle,
        window_s: float,
        key_fn: Callable[[Any], Any],
        join_fn: Callable[[Any, List[Any], List[Any]], Any],
        **kwargs,
    ) -> WindowHandle:
        node = JoinNode(
            self,
            self._register(name),
            left.node,
            right.node,
            window_s,
            key_fn,
            join_fn,
            **kwargs,
        )
        self.window_nodes.append(node)
        return WindowHandle(self, node)

    def chain_of(
        self, node: Union[SourceNode, ElementNode]
    ) -> Tuple[SourceNode, List[Tuple[str, Callable[[Any], Any]]]]:
        """Resolve an input node to (source, fused op list, source-first)."""
        ops: List[Tuple[str, Callable[[Any], Any]]] = []
        while isinstance(node, ElementNode):
            ops.append((node.kind, node.fn))
            node = node.parent
        ops.reverse()
        return node, ops

    def describe(self) -> Dict[str, Any]:
        """Structural summary (for logs and docs, not execution)."""
        return {
            "name": self.name,
            "sources": [s.name for s in self.sources],
            "windows": [
                {"name": n.name, "kind": n.kind} for n in self.window_nodes
            ],
        }
