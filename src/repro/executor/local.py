"""Real execution backend: a thread pool with capacity-aware dispatch.

This is the COMPSs worker layer collapsed into one process: logical nodes
still exist (the scheduler enforces their core/memory limits), but task
functions execute on threads sharing the interpreter, which is also how the
"single shared memory space" illusion of the paper trivially holds.

Threading model: the runtime's condition variable guards graph + ledger;
worker threads call back into the runtime on completion.  ``kick_locked`` —
one run of the scheduler's :class:`PlacementPass`, as the simulated
executor's ``_dispatch`` is — must be called with that lock held, so
capacity cannot grow during a pass.  Workers run to
completion: the completing thread runs the next ready task itself (the first
one its completion's kick placed); the pool only receives placements beyond
the first, and every placement of a kick from a non-worker thread (the
submitter).  With one core that is one worker thread and no hand-off per
task; with N cores a completion refills its own core inline and any other
free core through the pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.futures import Future
from repro.core.graph import TaskInstance
from repro.core.task_definition import mark_in_task
from repro.scheduling.scheduler import PlacementPass

if TYPE_CHECKING:
    from repro.core.runtime import Runtime


class LocalExecutor:
    """Dispatches ready tasks to a thread pool under ledger capacity.

    ``pool_size`` defaults to the platform's total cores (at least 1, at
    most 128): the ledger never lets more tasks than cores run at once, so
    more threads than that would only idle.
    """

    def __init__(self, runtime: "Runtime", pool_size: Optional[int] = None) -> None:
        self.runtime = runtime
        if pool_size is None:
            pool_size = min(128, max(1, runtime.platform.total_cores))
        self.pool_size = pool_size
        self._placement = PlacementPass(runtime.graph, runtime.scheduler)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._shutdown = False
        # The kick in progress: whether its first placement is still to be
        # kept for the calling worker, and the one kept.
        self._keep_first = False
        self._kept: Optional[TaskInstance] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.pool_size, thread_name_prefix="repro-worker"
            )
        self._shutdown = False

    def shutdown(self) -> None:
        # Under the master lock, so no kick is part-way through handing
        # placements to a pool that stops accepting them.
        with self.runtime._cv:
            self._shutdown = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def kick_locked(self, keep_first: bool = False) -> Optional[TaskInstance]:
        """Place and launch as many ready tasks as capacity allows.

        Must be called with the runtime condition lock held.  A worker
        thread that just completed a task passes ``keep_first`` and gets the
        first placed instance back to run itself; every other placement goes
        to the pool.
        """
        if self._pool is None or self._shutdown:
            return None
        self._keep_first = keep_first
        self._kept = None
        self._placement.run(self._start)
        return self._kept

    def _start(self, instance: TaskInstance, nodes: List[str]) -> None:
        self.runtime.graph.mark_running(instance.task_id, nodes[0], now=self.runtime.now)
        instance.assigned_nodes = tuple(nodes)
        if self._keep_first:
            self._keep_first = False
            self._kept = instance
        else:
            self._pool.submit(self._run, instance)

    # ------------------------------------------------------------ execution

    def _run(self, instance: Optional[TaskInstance]) -> None:
        """Run ``instance``, then whatever each completion hands back.

        A loop, not recursion: a dependency chain of any length runs on one
        stack frame.
        """
        runtime = self.runtime
        while instance is not None:
            try:
                definition = instance.definition
                args, kwargs = definition.split(self._materialize_arguments(instance))
                mark_in_task(True)
                try:
                    result = definition.fn(*args, **kwargs)
                finally:
                    mark_in_task(False)
            except BaseException as error:  # noqa: BLE001 - task code may raise anything
                instance = runtime.on_task_failed(instance, error)
            else:
                instance = runtime.on_task_done(instance, result)

    @staticmethod
    def _materialize_arguments(instance: TaskInstance) -> List[Any]:
        """The task's argument values with each future replaced by its value.

        The Access Processor's rule: a future at the top level, and one
        level into a list or tuple whose parameter is not annotated.  Such
        a container holding a future is rebuilt as a list or a tuple, as
        it was passed; one holding none is passed as it is.
        """
        values = list(instance.payload)
        plan = instance.definition.plan
        for index, value in enumerate(values):
            if isinstance(value, Future):
                values[index] = value.value()  # producer finished: resolution is certain
            elif isinstance(value, (list, tuple)) and not plan[index][2]:
                if any(isinstance(element, Future) for element in value):
                    items = [
                        element.value() if isinstance(element, Future) else element
                        for element in value
                    ]
                    values[index] = items if isinstance(value, list) else tuple(items)
        return values
