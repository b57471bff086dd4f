"""The runtime facade: COMPSs' master process, in library form.

Owns the Access Processor, the task graph, the scheduler and an execution
backend; exposes the PyCOMPSs user API (``compss_wait_on``,
``compss_barrier``, ``compss_open``).  A runtime can be used as a context
manager::

    with Runtime() as rt:
        partial = [count(block) for block in blocks]
        total = compss_wait_on(merge(partial))

Without an active runtime, ``@task`` functions run synchronously and the API
functions degrade to no-ops/pass-throughs — the PyCOMPSs convention that
makes task code debuggable with a plain interpreter.
"""

from __future__ import annotations

import os
import reprlib
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.intelligence.memoization import TaskMemoizer

from repro.core.access_processor import AccessProcessor, PreparedTask, RegisteredTask
from repro.core.compile import WorkflowCompiler
from repro.core.data import DataRegistry
from repro.core.exceptions import (
    ReproError,
    RuntimeNotStartedError,
    TaskFailedError,
)
from repro.core.futures import Future
from repro.core.graph import TaskGraph, TaskInstance, TaskState
from repro.core.task_definition import TaskDefinition, _in_task, definition_of
from repro.executor.local import LocalExecutor
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node, NodeKind
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.scheduler import TaskScheduler

_current: Optional["Runtime"] = None


def current_runtime() -> Optional["Runtime"]:
    """The globally active runtime, or None.

    Returns None inside an executing task as well, so a task that calls
    another ``@task`` function runs it synchronously instead of deadlocking
    on nested submission (nested task graphs are out of scope, as in
    PyCOMPSs' Python binding).
    """
    if getattr(_in_task, "active", False):
        return None
    return _current


def _producers_finished(payload: Sequence[Any]) -> bool:
    """Whether every future a keyed call consumes is resolved without error:
    top level and one level into lists / tuples, exactly the futures the
    compiler accepts — which for a keyed call is exactly its dependency set."""
    for value in payload:
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Future) and not (item.resolved and item.error is None):
                return False
    return True


def _call_shape(definition: TaskDefinition, index: int, call: Any) -> tuple:
    """``(args, kwargs)`` of one ``submit_many`` call, ``(args,)`` or ``(args, kwargs)``."""
    if isinstance(call, (tuple, list)) and 0 < len(call) < 3:
        args, kwargs = call[0], call[1] if len(call) == 2 else {}
        if isinstance(args, (tuple, list)) and isinstance(kwargs, dict):
            return args, kwargs
    raise TypeError(
        f"submit_many call {index} of {definition.name!r} is not (args,) or (args, "
        f"kwargs), args a tuple or list, kwargs a dict: {reprlib.repr(call)}"
    )


def _make_local_platform(workers: Optional[int]) -> Platform:
    cores = workers if workers is not None else (os.cpu_count() or 4)
    platform = Platform(name="local")
    platform.add_node(
        Node(
            name="localhost",
            kind=NodeKind.CLOUD,
            cores=cores,
            memory_mb=64_000,
            software=frozenset({"python"}),
        )
    )
    return platform


class Runtime:
    """A COMPSs-like runtime executing tasks on a (logical) platform.

    Args:
        platform: resource description; defaults to one local node with
            ``workers`` (or ``os.cpu_count()``) cores.
        policy: scheduling policy; defaults to FIFO first-fit.
        workers: core count of the default local platform (ignored when an
            explicit platform is passed).
        pool_size: thread-pool width of the local executor; defaults to the
            platform's total cores (at least 1, at most 128 threads), so
            ``workers=1`` runs every task on one worker thread.
        memoizer: content-keyed result cache consulted at submission; a hit
            completes the invocation without scheduling it.
        dedupe: alias concurrent identical submissions onto one scheduled
            instance (in-flight dedup).  Defaults to "on whenever a
            memoizer is present"; pass True/False to force either way.
    """

    def __init__(
        self,
        platform: Optional[Platform] = None,
        policy: Optional[SchedulingPolicy] = None,
        workers: Optional[int] = None,
        pool_size: Optional[int] = None,
        memoizer: Optional["TaskMemoizer"] = None,
        dedupe: Optional[bool] = None,
    ) -> None:
        self.platform = platform if platform is not None else _make_local_platform(workers)
        self.memoizer = memoizer
        self.dedupe = dedupe if dedupe is not None else (memoizer is not None)
        # The compiler assigns Merkle-style content keys at submission; it
        # exists whenever anything can consume a key (cache or aliasing).
        self.compiler: Optional[WorkflowCompiler] = (
            WorkflowCompiler() if (self.dedupe or memoizer is not None) else None
        )
        self.registry = DataRegistry()
        self.graph = TaskGraph()
        # The AP shares the graph so a datum's reader list sheds the
        # readers the graph has let go.
        self.access_processor = AccessProcessor(self.registry, graph=self.graph)
        self.scheduler = TaskScheduler(self.platform, policy)
        self._cv = threading.Condition()
        # A queued task's result futures: the lone future of a one-value
        # task, the tuple of a task returning several.
        self._result_futures: Dict[int, Union[Future, tuple]] = {}
        # In-flight index: content key -> (primary task id, result datums).
        # A submission whose key is already here never commits — its
        # futures share the primary's result datums instead.
        self._inflight: Dict[str, tuple] = {}
        # primary task id -> groups of alias futures, one group per aliased
        # submission (kept separate so per-group arity resolution works).
        self._alias_futures: Dict[int, List[List[Future]]] = {}
        self._tasks_aliased = 0
        self._tasks_from_cache = 0
        # Waiter counts by awaited task id, None for the barrier: a
        # completion notifies only when a thread waits on the settled task
        # (or on the barrier with the graph drained), so a million
        # unrelated completions wake nobody.
        self._waiting_on: Dict[Optional[int], int] = {}
        self._started = False
        self._t0 = time.monotonic()
        self.executor = LocalExecutor(self, pool_size=pool_size)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "Runtime":
        """Activate this runtime globally (usually via ``with Runtime()``)."""
        global _current
        if _current is not None and _current is not self:
            raise ReproError("another runtime is already active; stop it first")
        self._started = True
        self._t0 = time.monotonic()
        self.executor.start()
        _current = self
        return self

    def stop(self, wait: bool = True) -> None:
        """Drain outstanding tasks (optionally) and deactivate the runtime.

        A wait still blocked on an unsettled task (or the barrier) then
        raises :class:`RuntimeNotStartedError`.
        """
        global _current
        if wait and self._started:
            self.barrier()
        with self._cv:  # a submission admitted from here on would never run
            self._started = False
            self._cv.notify_all()  # a waiter on an unsettled target now raises
        self.executor.shutdown()
        if _current is self:
            _current = None

    def __enter__(self) -> "Runtime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On exceptions, don't block on a barrier that may never complete.
        self.stop(wait=exc_type is None)

    @property
    def now(self) -> float:
        """Seconds since the runtime started (task timestamps use this)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------ submission

    def submit(self, definition: TaskDefinition, args: tuple, kwargs: dict) -> Any:
        """Register one task invocation; returns its future(s) immediately.

        The critical section is deliberately thin: signature binding and
        (dynamic) constraint resolution run before the lock is taken; only
        registry commits, graph insertion and dispatch serialize.
        """
        self._require_started(definition)
        prepared = self.access_processor.prepare_task(definition, args, kwargs)
        self.scheduler.check_satisfiable(prepared.requirements)
        key = self._compile_key(prepared)
        with self._cv:
            self._require_started(definition)
            shaped = self._admit_locked(prepared, key)
            self.executor.kick_locked()
        return shaped

    def submit_many(
        self,
        task_or_definition: Any,
        calls: "List[tuple]",
    ) -> List[Any]:
        """Batched submission: one lock acquisition, one executor kick.

        Args:
            task_or_definition: a ``@task``-decorated function or its
                :class:`TaskDefinition`.
            calls: one ``(args, kwargs)`` or ``(args,)`` per invocation,
                ``args`` a tuple or list and ``kwargs`` a dict.  Any other
                shape is refused with a ``TypeError`` naming the call's
                index, before any call of the batch is admitted.

        Returns the shaped return value (None / Future / tuple of Futures)
        of each invocation, in order.  Amortizes the per-call lock round
        trip and coalesces the executor kick, which is what keeps a
        million-task submission loop from serializing on the master lock.
        """
        definition = (
            task_or_definition
            if isinstance(task_or_definition, TaskDefinition)
            else definition_of(task_or_definition)
        )
        if definition is None:
            raise TypeError(
                "submit_many expects a @task-decorated function or a "
                f"TaskDefinition, got {task_or_definition!r}"
            )
        self._require_started(definition)
        prepared_batch: List[tuple] = []
        last_checked = None
        for index, call in enumerate(calls):
            args, kwargs = _call_shape(definition, index, call)
            prepared = self.access_processor.prepare_task(definition, args, kwargs)
            # Static constraints intern to one requirements object, so the
            # satisfiability pre-flight runs once per distinct demand.
            if prepared.requirements is not last_checked:
                self.scheduler.check_satisfiable(prepared.requirements)
                last_checked = prepared.requirements
            # Content keys are pure functions of the prepared call, so the
            # whole batch compiles outside the lock too.
            prepared_batch.append((prepared, self._compile_key(prepared)))
        with self._cv:
            self._require_started(definition)
            try:
                return [self._admit_locked(*entry) for entry in prepared_batch]
            finally:  # a batch that raises part-way still runs what it admitted
                self.executor.kick_locked()

    def _require_started(self, definition: TaskDefinition) -> None:
        # Checked before preparing and again under the lock: a stop() that
        # ran in between must not leave the batch admitted to a dead executor.
        if not self._started:
            raise RuntimeNotStartedError(
                f"cannot submit {definition.name!r}: runtime not started"
            )

    def _track_locked(self, registered: RegisteredTask) -> None:
        """Insert a committed task into the graph and track its futures."""
        instance = registered.instance
        self.graph.add_task(instance, registered.depends_on)
        futures = registered.futures
        if futures:
            self._result_futures[instance.task_id] = (
                futures[0] if len(futures) == 1 else futures
            )
        if instance.state is TaskState.CANCELLED:
            # Poisoned at birth (an ancestor already failed): settle it now
            # instead of tracking its futures forever.
            cause = ReproError("cancelled: an ancestor task failed")
            self._settle_locked(instance, None, TaskFailedError(instance.label, cause))

    @staticmethod
    def _shape_returns(definition: TaskDefinition, futures: Sequence[Future]) -> Any:
        if definition.returns == 0:
            return None
        if definition.returns == 1:
            return futures[0]
        return tuple(futures)

    def _compile_key(self, prepared: PreparedTask) -> Optional[str]:
        """Content key of a prepared invocation (runs outside the lock).

        Only ``cache=True`` tasks that return something are compiled: the
        flag is the determinism contract, and a returnless invocation has
        nothing to alias or serve.  ``None`` means "not content
        addressable" — the submission takes the plain scheduling path.
        """
        if self.compiler is None:
            return None
        definition = prepared.definition
        if not definition.cache or definition.returns < 1:
            return None
        return self.compiler.compile_call(
            definition, prepared.payload, prepared.requirements
        )

    def _admit_locked(self, prepared: PreparedTask, key: Optional[str]) -> Any:
        """Admit one compiled submission: cache hit, alias, or schedule.

        Must run under ``self._cv`` — the lookup/alias/commit sequence is
        what makes "concurrent identical submissions schedule once" a
        guarantee instead of a race.
        """
        definition = prepared.definition
        if key is None:
            if self.memoizer is not None and definition.cache and definition.returns:
                # Declared cacheable but not content-addressable (opted out):
                # recorded as a skip, not a miss — no policy could hit it.
                self.memoizer.lookup(None)
            registered = self.access_processor.commit_task(prepared)
            self._track_locked(registered)
            return self._shape_returns(definition, registered.futures)
        if self.dedupe:
            entry = self._inflight.get(key)
            if entry is not None:
                return self._alias_locked(definition, key, entry)
        # Serve from cache only when every producer already finished: a
        # cached value whose producer is still running (possible after the
        # producer's own entry was evicted) must not complete out of order,
        # and a failed/cancelled producer must poison this task exactly as
        # it would without a cache.
        if self.memoizer is not None and _producers_finished(prepared.payload):
            hit, value = self.memoizer.lookup(key)
            if hit:
                return self._hit_locked(definition, key, value)
        registered = self.access_processor.commit_task(prepared)
        instance = registered.instance
        instance.cache_key = key
        self._stamp_keys(registered.futures, key)
        self._track_locked(registered)
        if self.dedupe and instance.state is not TaskState.CANCELLED:
            self._inflight[key] = (
                instance.task_id,
                tuple(future.datum for future in registered.futures),
            )
        return self._shape_returns(definition, registered.futures)

    @staticmethod
    def _stamp_keys(futures: Sequence[Future], key: str) -> None:
        """Give each return value of a keyed invocation its content key."""
        for index, future in enumerate(futures):
            future.content_key = WorkflowCompiler.result_key(key, index, len(futures))

    def _hit_locked(self, definition: TaskDefinition, key: str, value: Any) -> Any:
        """Serve a submission from the memo cache: an alias onto a finished value.

        Like an in-flight alias it mints no task id and touches neither the
        Access Processor nor the graph; unlike one there is nothing left to
        wait for, so the fresh futures are born settled (``datum`` and
        ``producer_task_id`` None) and nobody needs waking.
        """
        futures = [Future(None, None) for _ in range(definition.returns)]
        self._stamp_keys(futures, key)
        self._settle_futures(definition.name, futures, value, None)
        self._tasks_from_cache += 1
        return self._shape_returns(definition, futures)

    def _alias_locked(
        self, definition: TaskDefinition, key: str, entry: tuple
    ) -> Any:
        """Alias a duplicate submission onto the in-flight primary.

        No task id is minted and no Access Processor state is touched: the
        fresh futures share the primary's result datums, so downstream
        consumers dep on the primary and ``on_task_done`` /
        ``on_task_failed`` settle them with everyone else.
        """
        primary_tid, datums = entry
        futures = [Future(datum, primary_tid) for datum in datums]
        self._stamp_keys(futures, key)
        self._alias_futures.setdefault(primary_tid, []).append(futures)
        self._tasks_aliased += 1
        return self._shape_returns(definition, futures)

    # ------------------------------------------------------- synchronization

    def wait_on(self, *items: Any, timeout: Optional[float] = None) -> Any:
        """Synchronize on futures / registered objects / containers of them.

        Returns the resolved value(s): a single value for one argument, a
        list for several.  Failed producers re-raise :class:`TaskFailedError`
        here.  ``timeout`` bounds the whole call, not each item.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results = [self._wait_one(item, timeout, deadline) for item in items]
        if len(results) == 1:
            return results[0]
        return results

    def _wait_one(self, item: Any, timeout: Optional[float], deadline: Optional[float]) -> Any:
        if isinstance(item, Future):
            if not item.resolved:
                try:
                    self._await(item.producer_task_id, timeout, deadline)
                except TaskFailedError:
                    pass  # the future carries the failure that reached it
            return item.value()
        # An object tasks mutate in place (tracked by identity) must be
        # synchronized as a datum — even if it happens to be a list.
        record = self.registry.record_for_object(item)
        if record is None and isinstance(item, (list, tuple)):
            return type(item)([self._wait_one(each, timeout, deadline) for each in item])
        # A tracked object waits for its last writer; an untouched one is consistent.
        if record is not None and record.writer is not None:
            self._await(record.writer, timeout, deadline)
        return item

    def wait_for_task(self, task_id: int, timeout: Optional[float] = None) -> None:
        """Block until ``task_id`` reaches a terminal state.

        Raises :class:`TaskFailedError` if it failed or was cancelled, and
        :class:`TimeoutError` on deadline expiry.  Backs ``compss_open``.
        """
        self._await(task_id, timeout)

    def barrier(self, timeout: Optional[float] = None) -> None:
        """Block until every registered task has finished."""
        self._await(None, timeout)

    def _await(
        self, task_id: Optional[int], timeout: Optional[float], deadline: Optional[float] = None
    ) -> None:
        """The one wait: until task ``task_id`` is DONE (the graph has let
        it go), or (None, the barrier) until the graph has finished.  Raises
        on a failed or cancelled task, past ``deadline`` (now + ``timeout``
        if not given) and once the runtime stops with the target unsettled.
        The waiter registers in ``_waiting_on`` and sleeps with no timeout
        of its own: only ``_settle_locked`` and ``stop`` wake it."""
        if deadline is None and timeout is not None:
            deadline = time.monotonic() + timeout
        with self._cv:
            if task_id is not None and not self.graph.admitted(task_id):
                raise ReproError(f"awaited task {task_id} was never registered")
            waiting = self._waiting_on
            waiting[task_id] = waiting.get(task_id, 0) + 1
            try:
                while True:
                    if task_id is None:
                        if self.graph.finished:
                            return
                        target = "barrier"
                    else:
                        instance = self.graph.held(task_id)
                        if instance is None or instance.state is TaskState.DONE:
                            return
                        if instance.state in (TaskState.FAILED, TaskState.CANCELLED):
                            error = instance.error
                            cause = ReproError("cancelled") if error is None else error
                            raise TaskFailedError(instance.label, cause)
                        target = f"task {instance.label}"
                    if not self._started:
                        raise RuntimeNotStartedError(f"runtime stopped while waiting on {target}")
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(f"wait on {target} timed out after {timeout} s")
                    self._cv.wait(remaining)
            finally:
                count = waiting[task_id] - 1
                if count:
                    waiting[task_id] = count
                else:
                    del waiting[task_id]

    # ----------------------------------------------------- executor callbacks

    def on_task_done(
        self, instance: TaskInstance, result: Any
    ) -> Optional[TaskInstance]:
        """Called by the executor (worker thread) when a task succeeds.

        Returns the calling worker's continuation: the first task the freed
        capacity let the executor place, already marked running, which the
        worker must now run itself (None when nothing was placed).
        """
        with self._cv:
            self.scheduler.release(instance)
            self.graph.mark_done(instance.task_id, now=self.now)
            self._settle_locked(instance, result, None)
            return self.executor.kick_locked(keep_first=True)

    def on_task_failed(
        self, instance: TaskInstance, error: BaseException
    ) -> Optional[TaskInstance]:
        """Called by the executor when a task raises.

        Returns the worker's continuation, as :meth:`on_task_done` does.
        """
        with self._cv:
            self.scheduler.release(instance)
            cancelled = self.graph.mark_failed(instance.task_id, error, now=self.now)
            failure = TaskFailedError(instance.label, error)
            self._settle_locked(instance, None, failure)
            for tid in cancelled:
                self._settle_locked(self.graph.task(tid), None, failure)
            return self.executor.kick_locked(keep_first=True)

    def _settle_locked(
        self, instance: TaskInstance, result: Any, failure: Optional[TaskFailedError]
    ) -> None:
        """Settle a task the graph just finished, with ``result`` or (given
        ``failure``) as failed: its futures and its aliases', the memo cache
        on success, its in-flight key and arguments, and whoever waits on it
        or on the barrier."""
        task_id = instance.task_id
        futures = self._result_futures.pop(task_id, ())
        if futures.__class__ is Future:
            futures = (futures,)
        self._settle_futures(instance.label, futures, result, failure)
        # Aliased duplicates settle with the primary, one group at a time
        # (each group carries its own submission's arity).
        for group in self._alias_futures.pop(task_id, ()):
            self._settle_futures(instance.label, group, result, failure)
        key = instance.cache_key
        if key is not None:
            # A failed key must stop matching new submissions (they'd alias a
            # corpse) and, never stored, is never served from the cache.
            entry = self._inflight.get(key)
            if entry is not None and entry[0] == task_id:
                del self._inflight[key]
            if failure is None and self.memoizer is not None:
                self.memoizer.store(key, result)
        # A DONE task leaves the graph; a failed one stays, to poison readers.
        if failure is None:
            self.graph.forget(task_id)
        instance.payload = ()
        waiting = self._waiting_on
        if waiting and (task_id in waiting or (None in waiting and self.graph.finished)):
            self._cv.notify_all()

    @staticmethod
    def _settle_futures(
        label: str, futures, result: Any, failure: Optional[TaskFailedError]
    ) -> None:
        """Resolve ``futures`` from ``result`` or fail them with ``failure``.

        An arity mismatch fails them too, never raises: this runs in the
        completion callback, where an escaped exception would leave the
        futures unresolved and their waiters hung forever.
        """
        if not futures:
            return
        if failure is None:
            if len(futures) == 1:
                futures[0].resolve(result)
                return
            declared = f"task declared returns={len(futures)} but returned"
            try:
                values = tuple(result)
            except TypeError:
                cause: Exception = TypeError(
                    f"{declared} non-iterable {type(result).__name__}"
                )
            else:
                if len(values) == len(futures):
                    for future, value in zip(futures, values):
                        future.resolve(value)
                    return
                cause = ValueError(f"{declared} {len(values)} values")
            failure = TaskFailedError(label, cause)
        for future in futures:
            future.fail(failure)

    # ---------------------------------------------------------------- extras

    def delete_object(self, obj: Any) -> None:
        """Stop tracking an object (``compss_delete_object``)."""
        with self._cv:
            self.registry.unpin_object(obj)

    def statistics(self) -> Dict[str, Any]:
        """A snapshot of runtime counters (diagnostics, tests, benches)."""
        with self._cv:
            stats = {
                "tasks_total": self.graph.task_count,
                "tasks_done": self.graph.completed_count,
                "tasks_failed": self.graph.failed_count,
                "tasks_cancelled": self.graph.cancelled_count,
                "tasks_running": self.graph.running_count,
                "tasks_ready": self.graph.ready_count,
                "total_cores": self.platform.total_cores,
                # Content-addressed compilation: submissions that never
                # became a graph node because an in-flight twin (aliased) or
                # a cached result (from_cache) stood in for them — submitted
                # = tasks_total + tasks_aliased + tasks_from_cache.
                "tasks_aliased": self._tasks_aliased,
                "tasks_from_cache": self._tasks_from_cache,
            }
            if self.memoizer is not None:
                stats["memo"] = self.memoizer.stats()
            return stats


# ----------------------------------------------------------------- module API


def get_runtime() -> "Runtime":
    """The active runtime; raises if none is started."""
    if _current is None:
        raise RuntimeNotStartedError("no runtime is active; use start_runtime()")
    return _current


def start_runtime(**kwargs: Any) -> "Runtime":
    """Start and globally activate a new :class:`Runtime`."""
    return Runtime(**kwargs).start()


def stop_runtime(wait: bool = True) -> None:
    """Stop the active runtime, draining tasks first by default."""
    if _current is not None:
        _current.stop(wait=wait)


def compss_wait_on(*items: Any, timeout: Optional[float] = None) -> Any:
    """Synchronize on futures / tracked objects; pass-through with no runtime.

    ``timeout`` bounds the whole call, however many items it waits on.
    """
    runtime = current_runtime()
    if runtime is None:
        if len(items) == 1:
            return items[0]
        return list(items)
    return runtime.wait_on(*items, timeout=timeout)


def compss_barrier(timeout: Optional[float] = None) -> None:
    """Wait for every submitted task to finish; no-op with no runtime."""
    runtime = current_runtime()
    if runtime is not None:
        runtime.barrier(timeout=timeout)


def compss_open(path: str, mode: str = "r", timeout: Optional[float] = None):
    """Open a file after synchronizing the tasks that write it.

    Args:
        path: the tracked file path.
        mode: passed through to :func:`open`.
        timeout: maximum seconds to wait for the writing task; ``None``
            waits indefinitely.  Raises :class:`TimeoutError` on expiry and
            :class:`TaskFailedError` if the writer failed or was cancelled —
            checked continuously while waiting, not just up front.
    """
    runtime = current_runtime()
    if runtime is not None:
        record = runtime.registry.register_file(path)
        writer = record.writer
        if writer is not None:
            runtime.wait_for_task(writer, timeout=timeout)
    return open(path, mode)


def compss_delete_object(obj: Any) -> None:
    """Forget a tracked object; no-op with no runtime."""
    runtime = current_runtime()
    if runtime is not None:
        runtime.delete_object(obj)
