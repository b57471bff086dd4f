"""The dataflow plane: operator graphs lowered into the task runtime.

This is where streams stop being a demo and become part of the workflow
runtime (§I, §III — one environment for batch tasks and continuous data):

* **Element path, a batch at a time** — each window operator's input
  chains are fused into one callback taking a batch's timestamp and value
  columns.  The timestamp column splits into runs of equal window index
  (usually one); map/filter are applied to a run's value slice and the
  window bucket, counts and credits are updated once per run.  No engine
  events, no rescans, no per-element record between publication and close.
* **Lowering** — a window close builds one :class:`TaskInstance` per
  non-empty window and appends it through the executor's batched
  submission path (:meth:`SimulatedExecutor.submit_tasks`), so window
  tasks ride the *same* placement, locality, and content-addressing
  machinery as batch tasks: their input datum is registered at the ingest
  node (stage-in is priced by the network model), their ``cache_key`` is a
  deterministic content identity (:func:`stream_task_key`),
  and batch stages depend on window tasks through ordinary DAG edges.
* **Incremental accounting** — window buffers are built at ingestion time
  (seeded from :meth:`DataStream.since_columns`' bisection for elements
  published before the plane attached), so a close is a dict pop, never a scan of
  the stream history.
* **Backpressure + retention** — completed window tasks grant credits back
  to their source valves (drop/spill policies applied at the source), and
  every close advances the consumed-prefix watermark on its input streams,
  pruning retained memory down to the in-flight window span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.graph import SimProfile, TaskInstance
from repro.storage.interface import content_fingerprint
from repro.streams.operators import (
    BatchNode,
    JoinNode,
    OperatorGraph,
    WindowNode,
)
from repro.streams.sources import CreditValve
from repro.streams.stream import DataStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor layer)
    from repro.executor.simulated import SimulatedExecutor


def stream_task_key(
    operator: str,
    window_index: int,
    window_start: float,
    window_end: float,
    payload: Any,
) -> str:
    """Deterministic identity of one lowered stream-window task.

    The dataflow plane stamps every window task's ``cache_key`` with this:
    a content digest over the operator, the window's position on the grid,
    and the window's element payload.  Two windows with identical contents
    — across engines, runs, or replayed campaigns — therefore carry the
    same identity, which is what lets stream tasks ride the same
    content-addressing machinery as batch tasks (and what the cross-engine
    byte-identity checks compare).
    """
    _size, key = content_fingerprint(
        ("repro-stream/v1", operator, window_index, window_start, window_end, payload)
    )
    if key is None:
        # Unpicklable window payloads opt out of content identity but keep
        # a stable positional one.
        return f"stream-opaque/{operator}/{window_index}"
    return key


@dataclass(frozen=True)
class WindowResult:
    """Output of processing one window."""

    window_start: float
    window_end: float
    completed_at: float
    value: Any
    element_count: int

    @property
    def latency(self) -> float:
        """Freshness: produced-result age relative to the window close."""
        return self.completed_at - self.window_end

    @property
    def worst_element_latency(self) -> float:
        """Age of the *oldest* element when its result became available."""
        return self.completed_at - self.window_start


def _run_end(stamps, lo: int, index: int, index_of) -> int:
    """End of the run of window ``index`` that starts at ``stamps[lo]``.

    Bisects the timestamp column, whose last element lies in a later window,
    on the index function itself: a computed boundary ``origin + (index + 1)
    * window_s`` can round to the other side of an element.
    """
    hi = len(stamps) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if index_of(stamps[mid]) > index:
            hi = mid
        else:
            lo = mid
    return hi


class _WindowRuntime:
    """Mutable execution state of one window-level operator."""

    __slots__ = (
        "op",
        "window_s",
        "next_index",
        "buffers",
        "counts",
        "credit_counts",
        "results",
        "input_streams",
        "dependents",
        "finished",
    )

    def __init__(self, op: Any, window_s: float) -> None:
        self.op = op
        self.window_s = window_s
        self.next_index = 0
        self.buffers: Dict[int, Any] = {}
        self.counts: Dict[int, int] = {}
        self.credit_counts: Dict[int, Dict[CreditValve, int]] = {}
        self.results: List[WindowResult] = []
        self.input_streams: List[DataStream] = []
        self.dependents: List["_BatchRuntime"] = []
        self.finished = False


class _BatchRuntime:
    """Accumulates window results until a batch stage's quota fills."""

    __slots__ = ("op", "pending", "dep_ids", "results", "batches")

    def __init__(self, op: BatchNode) -> None:
        self.op = op
        self.pending: List[WindowResult] = []
        self.dep_ids: List[int] = []
        self.results: List[WindowResult] = []
        self.batches = 0


class DataflowPlane:
    """Executes an :class:`OperatorGraph` on a :class:`SimulatedExecutor`.

    The plane owns no engine and no platform — it attaches to an existing
    executor (whose engine is a :class:`SimulationEngine` or one zone's
    ``ShardApi``), holds its run open
    across momentary graph quiescence, and lowers window tasks as virtual
    time crosses window boundaries.
    """

    def __init__(
        self,
        operators: OperatorGraph,
        executor: "SimulatedExecutor",
        ingest_node: str,
        start_at: float = 0.0,
    ) -> None:
        self.operators = operators
        self.executor = executor
        self.engine = executor.engine
        self.ingest_node = ingest_node
        self.start_at = start_at
        self._runtimes: Dict[str, _WindowRuntime] = {}
        self._batch_runtimes: Dict[str, _BatchRuntime] = {}
        self._inflight: Dict[int, tuple] = {}
        self._stream_consumers: Dict[int, Tuple[DataStream, List[_WindowRuntime]]] = {}
        self._next_task_id = 0
        self._started = False
        # Counters (per-scenario stream stats ride these into the sweep).
        self.elements_ingested = 0
        self.late_elements = 0
        self.windows_closed = 0
        self.tasks_lowered = 0
        self.batch_tasks = 0
        self._buffered = 0
        self.buffered_high_water = 0

    # ----------------------------------------------------------------- setup

    def start(self) -> None:
        """Attach to the executor and schedule the first window closes."""
        if self._started:
            raise RuntimeError("dataflow plane already started")
        self._started = True
        executor = self.executor
        executor.hold_open = True
        executor.on_task_done(self._on_task_done)
        self._next_task_id = executor.graph.highest_id + 1
        owners: Dict[int, _WindowRuntime] = {}
        for op in self.operators.window_nodes:
            if isinstance(op, BatchNode):
                runtime = _BatchRuntime(op)
                self._batch_runtimes[op.name] = runtime
                continue
            window = _WindowRuntime(op, op.window_s)
            self._runtimes[op.name] = window
            if isinstance(op, JoinNode):
                sides: List[Optional[int]] = [0, 1]
            else:
                sides = [None] * len(op.inputs)
            for node, side in zip(op.inputs, sides):
                source, ops = self.operators.chain_of(node)
                stream = source.stream
                window.input_streams.append(stream)
                consumers = self._stream_consumers.setdefault(
                    id(stream), (stream, [])
                )[1]
                consumers.append(window)
                valve = source.valve
                if valve is not None:
                    # First consumer of a valved source owns its credits:
                    # it counts admissions per window and grants them back
                    # on task completion (or immediately when its chain
                    # filters the element out before buffering).
                    owner = owners.setdefault(id(valve), window)
                    if owner is not window:
                        valve = None
                ingest = self._make_ingest(window, ops, valve, side)
                stream.subscribe_batch(ingest)
                # Seed from elements published before the plane attached —
                # the retained columns' bisection instead of a history scan.
                stamps, values, _sources = stream.since_columns(self.start_at)
                if stamps:
                    ingest(stamps, values)
            self._schedule_close(window)
        # Link batch stages to their upstream window runtimes (batch-on-batch
        # stacking is rejected at graph-construction time).
        for runtime in self._batch_runtimes.values():
            self._runtimes[runtime.op.upstream.name].dependents.append(runtime)
        executor.prime()

    def run(self, until: Optional[float] = None):
        """Convenience driver for plane-owned engines: start, run, report."""
        if not self._started:
            self.start()
        self.engine.run(until=until)
        return self.executor.report()

    def close_sources_at(self, time: float) -> None:
        """Schedule every source stream's close (ends window rescheduling)."""
        for source in self.operators.sources:
            self.engine.at(time, source.stream.close)

    # ------------------------------------------------------------ ingestion

    def _make_ingest(self, runtime, ops, valve, side):
        origin = self.start_at
        window_s = runtime.window_s
        buffers = runtime.buffers
        counts = runtime.counts
        credit_counts = runtime.credit_counts
        op = runtime.op
        if side is None:
            key_fn = op.key_fn  # None: plain window, buckets are lists
        else:
            key_fn = op.key_fn if side == 0 else op.right_key_fn

        def index_of(stamp: float) -> int:
            return int((stamp - origin) // window_s)

        def ingest(stamps, values) -> None:
            # A batch is timestamp-ordered, so it is a sequence of *runs* of
            # equal window index; map/filter, bucketing and accounting are
            # done once per run on the run's slice of the value column.
            size = len(stamps)
            last = index_of(stamps[-1])
            added = start = 0
            while start < size:
                index = index_of(stamps[start])
                end = size if index == last else _run_end(stamps, start, index, index_of)
                run = values[start:end]
                start = end
                for kind, fn in ops:
                    run = list(map(fn, run) if kind == "map" else filter(fn, run))
                kept = len(run)
                if not kept:
                    continue
                if index < runtime.next_index:
                    # Late data (spilled or out-of-order): lands in the
                    # earliest still-open window instead of being dropped.
                    index = runtime.next_index
                    self.late_elements += kept
                if key_fn is None:
                    buffers.setdefault(index, []).extend(run)
                else:
                    bucket = buffers.setdefault(
                        index, {} if side is None else ({}, {})
                    )
                    groups = bucket if side is None else bucket[side]
                    for value in run:
                        groups.setdefault(key_fn(value), []).append(value)
                counts[index] = counts.get(index, 0) + kept
                if valve is not None:
                    per_window = credit_counts.setdefault(index, {})
                    per_window[valve] = per_window.get(valve, 0) + kept
                added += kept
            self.elements_ingested += size
            if valve is not None and added < size:
                # Filtered elements never reach a window task: their
                # credits return immediately.
                valve.grant(size - added)
            if added:
                self._buffered += added
                if self._buffered > self.buffered_high_water:
                    self.buffered_high_water = self._buffered

        return ingest

    # --------------------------------------------------------------- closes

    def _schedule_close(self, runtime: _WindowRuntime) -> None:
        close_at = self.start_at + (runtime.next_index + 1) * runtime.window_s
        self.engine.at(
            close_at,
            partial(self._close, runtime),
        )

    def _close(self, runtime: _WindowRuntime) -> None:
        op = runtime.op
        index = runtime.next_index
        runtime.next_index = index + 1
        window_end = self.start_at + (index + 1) * runtime.window_s
        window_start = window_end - runtime.window_s
        buffer = runtime.buffers.pop(index, None)
        count = runtime.counts.pop(index, 0)
        credits = runtime.credit_counts.pop(index, None)
        if buffer is not None and count:
            instance = self._lower(
                op, index, window_start, window_end, buffer, count
            )
            self._inflight[instance.task_id] = (
                runtime, window_start, window_end, buffer, count, credits,
            )
            self.executor.submit_tasks([(instance, ())])
            self.windows_closed += 1
            self.tasks_lowered += 1
        elif credits:  # pragma: no cover - credits imply a buffered count
            for valve, granted in credits.items():
                valve.grant(granted)
        self._advance_watermarks(runtime)
        if runtime.buffers or not all(s.closed for s in runtime.input_streams):
            self._schedule_close(runtime)
        else:
            runtime.finished = True

    def _advance_watermarks(self, runtime: _WindowRuntime) -> None:
        """Prune each input stream below every consumer's open-window start."""
        for stream in runtime.input_streams:
            _stream, consumers = self._stream_consumers[id(stream)]
            watermark = min(
                self.start_at + r.next_index * r.window_s for r in consumers
            )
            stream.prune_upto(watermark)

    # ------------------------------------------------------------- lowering

    def _lower(
        self,
        op: Any,
        index: int,
        window_start: float,
        window_end: float,
        buffer: Any,
        count: int,
        depends_on: Tuple[int, ...] = (),
    ) -> TaskInstance:
        task_id = self._next_task_id
        self._next_task_id = task_id + 1
        prefix = f"{self.operators.name}/{op.name}"
        datum_in = f"{prefix}.w{index}.in"
        datum_out = f"{prefix}.w{index}.out"
        bytes_per_element = getattr(op, "bytes_per_element", 0.0)
        in_size = bytes_per_element * count
        reads: List[str] = []
        if bytes_per_element:
            self.executor.locations.publish(
                datum_in, self.ingest_node, size_bytes=in_size
            )
            reads.append(datum_in)
        cache_key = stream_task_key(op.name, index, window_start, window_end, buffer)
        profile = SimProfile(
            duration_s=op.duration_fn(count),
            input_bytes=in_size,
            output_sizes=(op.output_bytes,),
        )
        return TaskInstance(
            task_id=task_id,
            label=f"{prefix}#w{index}",
            requirements=op.requirements,
            reads=reads,
            writes=[datum_out],
            profile=profile,
            cache_key=cache_key,
        )

    # ------------------------------------------------------------ completion

    def _on_task_done(self, instance: TaskInstance) -> None:
        info = self._inflight.pop(instance.task_id, None)
        if info is None:
            return
        runtime, window_start, window_end, buffer, count, credits = info
        now = self.engine.now
        op = runtime.op
        if isinstance(op, WindowNode):
            if op.key_fn is None:
                value = op.compute_fn(buffer)
            else:
                value = {key: op.compute_fn(buffer[key]) for key in sorted(buffer)}
        elif isinstance(op, JoinNode):
            left, right = buffer
            value = {
                key: op.join_fn(key, left[key], right[key])
                for key in sorted(set(left) & set(right))
            }
        else:
            value = op.fn(buffer)
        result = WindowResult(
            window_start=window_start,
            window_end=window_end,
            completed_at=now,
            value=value,
            element_count=count,
        )
        runtime.results.append(result)
        op.output.publish_batch([now], [result], op.name)
        if credits:
            for valve, granted in credits.items():
                valve.grant(granted)
        if not isinstance(op, BatchNode):
            self._buffered -= count
        for batch_runtime in getattr(runtime, "dependents", ()):
            self._feed_batch(batch_runtime, result, instance.task_id)

    def _feed_batch(
        self, runtime: _BatchRuntime, result: WindowResult, task_id: int
    ) -> None:
        runtime.pending.append(result)
        runtime.dep_ids.append(task_id)
        if len(runtime.pending) < runtime.op.every:
            return
        pending, deps = runtime.pending, tuple(runtime.dep_ids)
        runtime.pending, runtime.dep_ids = [], []
        index = runtime.batches
        runtime.batches = index + 1
        instance = self._lower(
            runtime.op,
            index,
            pending[0].window_start,
            pending[-1].window_end,
            pending,
            len(pending),
        )
        self._inflight[instance.task_id] = (
            runtime,
            pending[0].window_start,
            pending[-1].window_end,
            pending,
            len(pending),
            None,
        )
        self.executor.submit_tasks([(instance, deps)])
        self.tasks_lowered += 1
        self.batch_tasks += 1

    # -------------------------------------------------------------- metrics

    def results_of(self, name: str) -> List[WindowResult]:
        runtime = self._runtimes.get(name) or self._batch_runtimes.get(name)
        if runtime is None:
            raise KeyError(f"unknown window operator {name!r}")
        return list(runtime.results)

    def mean_latency(self, name: str) -> float:
        results = self.results_of(name)
        if not results:
            return 0.0
        return sum(r.latency for r in results) / len(results)

    def max_latency(self, name: str) -> float:
        return max((r.latency for r in self.results_of(name)), default=0.0)

    def retained_high_water(self) -> int:
        """Largest retained-suffix size across the plane's source streams."""
        return max(
            (s.stream.max_retained for s in self.operators.sources), default=0
        )

    def stats(self) -> Dict[str, Any]:
        dropped = spilled = spill_depth = 0
        for source in self.operators.sources:
            valve = source.valve
            if valve is not None:
                dropped += valve.dropped
                spilled += valve.spilled
                spill_depth += valve.spill_depth
        return {
            "elements_ingested": self.elements_ingested,
            "late_elements": self.late_elements,
            "windows_closed": self.windows_closed,
            "tasks_lowered": self.tasks_lowered,
            "batch_tasks": self.batch_tasks,
            "dropped": dropped,
            "spilled": spilled,
            "spill_depth": spill_depth,
            "buffered_high_water": self.buffered_high_water,
            "retained_high_water": self.retained_high_water(),
        }
