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
        # The AP shares the graph so wide WAR fan-in collapses into
        # structural barrier nodes instead of O(readers) writer deps.
        self.access_processor = AccessProcessor(self.registry, graph=self.graph)
        self.scheduler = TaskScheduler(self.platform, policy)
        self._cv = threading.Condition()
        # A queued task's result futures: the lone future of a one-value
        # task, the tuple of a task returning several.
        self._result_futures: Dict[int, Union[Future, tuple]] = {}
        # In-flight index: content key -> (primary task id, result datum
        # ids).  A submission whose key is already here never commits — its
        # futures alias the primary's result datums instead.
        self._inflight: Dict[str, tuple] = {}
        # primary task id -> groups of alias futures, one group per aliased
        # submission (kept separate so per-group arity resolution works).
        self._alias_futures: Dict[int, List[List[Future]]] = {}
        self._tasks_aliased = 0
        self._tasks_from_cache = 0
        # Targeted wakeups: completions only notify when a thread actually
        # waits on the finished task (or on the barrier with the graph
        # drained), so a million unrelated completions wake nobody.
        self._waiting_on: Dict[int, int] = {}
        self._barrier_waiters = 0
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
        """Drain outstanding tasks (optionally) and deactivate the runtime."""
        global _current
        if wait and self._started:
            self.barrier()
        with self._cv:  # a submission admitted from here on would never run
            self._started = False
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
        if instance.state is TaskState.CANCELLED:
            # Poisoned at birth (an ancestor already failed): settle the
            # futures immediately instead of tracking them forever.
            failure = TaskFailedError(
                instance.label, ReproError("cancelled: an ancestor task failed")
            )
            for future in registered.futures:
                future.fail(failure)
            instance.payload = ()
            return
        futures = registered.futures
        if futures:
            self._result_futures[instance.task_id] = (
                futures[0] if len(futures) == 1 else futures
            )

    def _pop_result_futures_locked(self, task_id: int) -> Sequence[Future]:
        futures = self._result_futures.pop(task_id, ())
        return (futures,) if futures.__class__ is Future else futures

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
                tuple(future.datum_id for future in registered.futures),
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
        wait for, so the fresh futures are born settled (``datum_id`` and
        ``producer_task_id`` None) and nobody needs waking.
        """
        futures = [Future(None, None) for _ in range(definition.returns)]
        self._stamp_keys(futures, key)
        self._resolve_futures(definition.name, futures, value)
        self._tasks_from_cache += 1
        return self._shape_returns(definition, futures)

    def _alias_locked(
        self, definition: TaskDefinition, key: str, entry: tuple
    ) -> Any:
        """Alias a duplicate submission onto the in-flight primary.

        No task id is minted and no Access Processor state is touched: the
        fresh futures point straight at the primary's result datums, so
        downstream consumers dep on the primary and ``on_task_done`` /
        ``on_task_failed`` settle them with everyone else.
        """
        primary_tid, datum_ids = entry
        futures = [Future(datum_id, primary_tid) for datum_id in datum_ids]
        self._stamp_keys(futures, key)
        self._alias_futures.setdefault(primary_tid, []).append(futures)
        self._tasks_aliased += 1
        return self._shape_returns(definition, futures)

    # ------------------------------------------------------- synchronization

    def wait_on(self, *items: Any, timeout: Optional[float] = None) -> Any:
        """Synchronize on futures / registered objects / containers of them.

        Returns the resolved value(s): a single value for one argument, a
        list for several.  Failed producers re-raise :class:`TaskFailedError`
        here.
        """
        results = [self._wait_one(item, timeout) for item in items]
        if len(results) == 1:
            return results[0]
        return results

    def _wait_one(self, item: Any, timeout: Optional[float]) -> Any:
        if isinstance(item, Future):
            self._block_until_resolved(item, timeout)
            return item.value()
        # An object tasks mutate in place (tracked by identity) must be
        # synchronized as a datum — even if it happens to be a list.
        if self.registry.record_for_object(item) is not None:
            return self._wait_object(item, timeout)
        if isinstance(item, (list, tuple)):
            resolved = [self._wait_one(element, timeout) for element in item]
            return type(item)(resolved)
        # A plain object: wait for its last writer, then hand it back.
        return self._wait_object(item, timeout)

    def _wait_object(self, obj: Any, timeout: Optional[float]) -> Any:
        record = self.registry.record_for_object(obj)
        # Never touched by a task, or never written: already consistent.
        if record is not None and record.writer is not None:
            self.wait_for_task(record.writer, timeout)
        return obj

    def _block_until_resolved(self, future: Future, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        producer = future.producer_task_id
        with self._cv:
            if future.resolved:
                return
            self._add_waiter_locked(producer)
            try:
                while not future.resolved:
                    self._check_progress_possible(producer)
                    self._cv_wait(deadline)
            finally:
                self._remove_waiter_locked(producer)

    def wait_for_task(self, task_id: int, timeout: Optional[float] = None) -> None:
        """Block until ``task_id`` reaches a terminal state.

        Raises :class:`TaskFailedError` if it failed or was cancelled, and
        :class:`TimeoutError` on deadline expiry.  Backs ``compss_open``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            self._add_waiter_locked(task_id)
            try:
                while True:
                    # Failure/cancellation checks run *inside* the loop so a
                    # writer that dies mid-wait raises instead of hanging.
                    self._check_progress_possible(task_id)
                    if self.graph.task(task_id).state is TaskState.DONE:
                        return
                    self._cv_wait(deadline)
            finally:
                self._remove_waiter_locked(task_id)

    # Targeted-wakeup bookkeeping: waiters register the task id they block
    # on; completions call _notify_waiters_locked with the ids that just
    # settled and skip the notify_all entirely when nobody cares.  The 1.0s
    # poll in _cv_wait stays as a backstop against a missed notification.

    def _add_waiter_locked(self, task_id: int) -> None:
        self._waiting_on[task_id] = self._waiting_on.get(task_id, 0) + 1

    def _remove_waiter_locked(self, task_id: int) -> None:
        count = self._waiting_on.get(task_id, 0) - 1
        if count <= 0:
            self._waiting_on.pop(task_id, None)
        else:
            self._waiting_on[task_id] = count

    def _notify_waiters_locked(self, task_ids) -> None:
        if self._barrier_waiters and self.graph.finished:
            self._cv.notify_all()
            return
        if self._waiting_on:
            for task_id in task_ids:
                if task_id in self._waiting_on:
                    self._cv.notify_all()
                    return

    def _cv_wait(self, deadline: Optional[float]) -> None:
        if deadline is None:
            self._cv.wait(timeout=1.0)
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("wait_on timed out")
        self._cv.wait(timeout=min(remaining, 1.0))

    def _check_progress_possible(self, awaited_task_id: int) -> None:
        """Raise instead of hanging when the awaited task can never run."""
        if awaited_task_id not in self.graph:
            raise ReproError(f"awaited task {awaited_task_id} was never registered")
        state = self.graph.task(awaited_task_id).state
        if state in (TaskState.FAILED, TaskState.CANCELLED):
            instance = self.graph.task(awaited_task_id)
            raise TaskFailedError(
                instance.label,
                instance.error if instance.error is not None else ReproError("cancelled"),
            )

    def barrier(self, timeout: Optional[float] = None) -> None:
        """Block until every registered task has finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            self._barrier_waiters += 1
            try:
                while not self.graph.finished:
                    self._cv_wait(deadline)
            finally:
                self._barrier_waiters -= 1

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
            futures = self._pop_result_futures_locked(instance.task_id)
            self._resolve_futures(instance.label, futures, result)
            # Aliased duplicates resolve from the same result, one group at
            # a time (each group carries its own submission's arity).
            for group in self._alias_futures.pop(instance.task_id, ()):
                self._resolve_futures(instance.label, group, result)
            if instance.cache_key is not None:
                self._drop_inflight_locked(instance.task_id, instance.cache_key)
                if self.memoizer is not None:
                    self.memoizer.store(instance.cache_key, result)
            # The graph keeps every instance for statistics and exports; a
            # finished one need not keep its arguments too (bounded memory).
            instance.payload = ()
            continuation = self.executor.kick_locked(keep_first=True)
            self._notify_waiters_locked((instance.task_id,))
            return continuation

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
            for tid in (instance.task_id, *cancelled):
                for future in self._pop_result_futures_locked(tid):
                    future.fail(failure)
                for group in self._alias_futures.pop(tid, ()):
                    for future in group:
                        future.fail(failure)
                failed_instance = self.graph.task(tid)
                if failed_instance.cache_key is not None:
                    # The key must stop matching new submissions (they'd
                    # alias a corpse) and — because store() only runs in
                    # on_task_done — is never served from the cache either.
                    self._drop_inflight_locked(tid, failed_instance.cache_key)
                failed_instance.payload = ()
            continuation = self.executor.kick_locked(keep_first=True)
            self._notify_waiters_locked((instance.task_id, *cancelled))
            return continuation

    def _drop_inflight_locked(self, task_id: int, cache_key: str) -> None:
        entry = self._inflight.get(cache_key)
        if entry is not None and entry[0] == task_id:
            del self._inflight[cache_key]

    def _resolve_futures(self, label: str, futures, result: Any) -> None:
        if not futures:
            return
        if len(futures) == 1:
            futures[0].resolve(result)
            return
        # Arity mismatches must FAIL the futures, never raise here: this
        # runs in the completion callback, and an escaped exception would
        # leave the futures unresolved and waiters hung forever.
        failure: Optional[TaskFailedError] = None
        values: tuple = ()
        try:
            values = tuple(result)
        except TypeError:
            failure = TaskFailedError(
                label,
                TypeError(
                    f"task declared returns={len(futures)} but returned "
                    f"non-iterable {type(result).__name__}"
                ),
            )
        if failure is None and len(values) != len(futures):
            failure = TaskFailedError(
                label,
                ValueError(
                    f"task declared returns={len(futures)} but returned "
                    f"{len(values)} values"
                ),
            )
        if failure is not None:
            for future in futures:
                future.fail(failure)
            return
        for future, value in zip(futures, values):
            future.resolve(value)

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
    """Synchronize on futures / tracked objects; pass-through with no runtime."""
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
