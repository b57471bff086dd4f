"""The dynamic task graph (workflow DAG).

"At execution time, the runtime builds a task graph (or workflow) that takes
into account the data dependencies between tasks, and from this graph
schedules and executes the tasks" (§VI-A).  The graph here is acyclic by
construction: a task may only depend on tasks registered before it (program
order), so cycles cannot be expressed.  Nodes are only ever appended, except
that a DONE node may be *forgotten* (:meth:`TaskGraph.forget`): the real
runtime lets every settled task go, so a long-running master holds only the
tasks still in flight and the failed ones.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.constraints import ResolvedRequirements

if TYPE_CHECKING:
    from repro.core.task_definition import TaskDefinition


class TaskState(enum.Enum):
    """Lifecycle of a task instance."""

    PENDING = "pending"      # registered, waiting on dependencies
    READY = "ready"          # all dependencies satisfied, schedulable
    RUNNING = "running"      # assigned to a node and executing
    DONE = "done"            # finished successfully
    FAILED = "failed"        # raised / node lost and unrecoverable
    CANCELLED = "cancelled"  # skipped because an ancestor failed


class SimProfile:
    """Synthetic execution profile for simulated tasks (DESIGN.md S6).

    Only what the executor reads:

    * ``duration_s`` — compute time on a ``speed_factor == 1.0`` core;
      slower nodes stretch it.
    * ``input_bytes`` — the summed size of the task's distinct inputs, in
      first-read order, at build time (the runtime predictor's size
      feature).  Stage-in prices the inputs from ``reads`` and the data
      plane, not from here.
    * ``output_sizes`` — the byte size of each output, in the order of
      the instance's ``writes`` (a column, not a name -> bytes map: the
      names are already there), published on the head node at completion;
      a task with no outputs holds the shared empty tuple.

    Slotted (not a dataclass): million-task graphs hold one profile per
    task, and per-instance ``__dict__``s are what pushed the build past the
    allocator's resident-set cliff (see bench_runtime_scaling).
    """

    __slots__ = ("duration_s", "input_bytes", "output_sizes")

    def __init__(
        self,
        duration_s: float = 1.0,
        input_bytes: float = 0.0,
        output_sizes: Tuple[float, ...] = (),
    ) -> None:
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        self.duration_s = duration_s
        self.input_bytes = input_bytes
        self.output_sizes = output_sizes

    def __repr__(self) -> str:
        return (
            f"SimProfile(duration_s={self.duration_s!r}, "
            f"input_bytes={self.input_bytes!r}, "
            f"output_sizes={self.output_sizes!r})"
        )


_DEFAULT_REQUIREMENTS = ResolvedRequirements()


class TaskInstance:
    """One node of the workflow DAG: a single task invocation.

    Slotted for the same reason as :class:`SimProfile`: a simulated graph
    keeps every instance alive for the whole run, and a real runtime every
    instance in flight, so per-task memory is what bounds how many tasks a
    single runtime can carry.
    """

    __slots__ = (
        "task_id",
        "label",
        "requirements",
        "definition",
        "payload",
        "reads",
        "writes",
        "profile",
        "state",
        "assigned_node",
        "assigned_nodes",
        "start_time",
        "end_time",
        "error",
        "attempts",
        "cache_key",
    )

    def __init__(
        self,
        task_id: int,
        label: str,
        requirements: Optional[ResolvedRequirements] = None,
        definition: Optional["TaskDefinition"] = None,
        payload: tuple = (),
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
        profile: Optional[SimProfile] = None,
        cache_key: Optional[str] = None,
    ) -> None:
        self.task_id = task_id
        self.label = label
        # ResolvedRequirements is frozen, so the default can be shared.
        self.requirements = (
            requirements if requirements is not None else _DEFAULT_REQUIREMENTS
        )
        # Real execution: the task type, and one argument value per
        # parameter in its plan's order, futures still in place (None and
        # empty for simulated tasks; emptied once a real task finishes).
        self.definition = definition
        self.payload = payload
        # Datum ids this task reads / writes (version keys recorded by the
        # AP), fixed at construction.  Tuples of strings, not lists: the
        # cyclic GC stops tracking them after its first pass.
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        # Simulation profile (None when running for real).
        self.profile = profile
        # Born pending and unplaced; the graph and the executors move it on.
        self.state = TaskState.PENDING
        self.assigned_node: Optional[str] = None
        # For gang (multi-node / MPI-like) tasks: every node in the allocation.
        self.assigned_nodes: Sequence[str] = ()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.error: Optional[BaseException] = None
        # How many times this instance has been (re)submitted — recovery metric.
        self.attempts = 0
        # Content hash for memoizable invocations (set by the runtime).
        self.cache_key = cache_key

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return f"TaskInstance({self.task_id}, {self.label!r}, {self.state.value})"


class GraphError(RuntimeError):
    """Raised on invalid graph mutations (unknown ids, bad transitions)."""


class _ReadyNode:
    """One entry of the intrusive doubly-linked ready queue."""

    __slots__ = ("tid", "prev", "next", "live")

    def __init__(self, tid: int, prev: Optional["_ReadyNode"]) -> None:
        self.tid = tid
        self.prev = prev
        self.next: Optional["_ReadyNode"] = None
        self.live = True


class TaskGraph:
    """DAG of task instances with ready-set maintenance.

    Every mutation and query used on the executor's per-event hot path is
    O(1): state counters are maintained incrementally (``finished`` never
    rescans the graph) and the ready queue is an intrusive doubly-linked
    list indexed by task id, so enqueue/dequeue never pay ``list.remove``
    scans and iteration touches only live entries — a dispatch loop can
    inspect a bounded window of a huge queue and stop.

    A DONE node may be forgotten (:meth:`forget`); every count is a counter,
    so forgetting moves none of them.
    """

    def __init__(self) -> None:
        self._tasks: Dict[int, TaskInstance] = {}
        # A node's successors, from its first one on (most of a wide
        # workflow's nodes are sinks): the lone successor's id until a
        # second arrives, then a list of ids in arrival order.  Read them
        # through ``_successor_ids``: ``set()`` of the list adds the ids one
        # by one, the insertion order and resize points of the set the list
        # replaced, so the walks visit successors in that set's order.
        self._successors: Dict[int, Union[int, List[int]]] = {}
        # A node's predecessors: the lone one's id, as for successors, else a
        # tuple of ids (empty for a source).  Read them through
        # ``_predecessor_ids``.
        self._predecessors: Dict[int, Union[int, Tuple[int, ...]]] = {}
        self._unfinished_preds: Dict[int, int] = {}
        # Ready queue: linked list in enqueue order + task_id -> node index.
        # Unlinked nodes keep their ``next`` pointer, so an iterator holding
        # a just-dequeued node can still chain forward (see iter_ready).
        self._ready_head: Optional[_ReadyNode] = None
        self._ready_tail: Optional[_ReadyNode] = None
        self._ready_nodes: Dict[int, _ReadyNode] = {}
        # Bumped on every ready-queue *removal*.  Insertions are always tail
        # appends, so a dispatcher that cached facts about a queue prefix
        # (see SimulatedExecutor's blocked-prefix cursor) only needs to
        # watch this counter: an unchanged epoch proves the prefix is
        # byte-identical to when it was certified.
        self.ready_epoch = 0
        self.completed_count = 0
        self.failed_count = 0
        self.cancelled_count = 0
        self._pending_count = 0
        self._running_count = 0
        # Tasks ever added, and those that reached a terminal state:
        # `finished` is the O(1) comparison of the two, and neither moves
        # when a DONE task is forgotten.
        self._node_count = 0
        self._terminal_count = 0
        # The highest id forgotten so far (-1: none; ids are non-negative):
        # an absent id at or below it was DONE, because ids are minted in
        # program order and only DONE tasks leave; adding it again is a reuse.
        self._forgotten_high = -1
        #: The highest id ever added (-1: none), forgotten or not.
        self.highest_id = -1

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def task(self, task_id: int) -> TaskInstance:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise GraphError(f"unknown task id {task_id}") from None

    def held(self, task_id: int) -> Optional[TaskInstance]:
        """The instance while the graph holds it, None once forgotten."""
        return self._tasks.get(task_id)

    def admitted(self, task_id: int) -> bool:
        """Whether ``task_id`` was ever added: held, or DONE and forgotten."""
        return task_id in self._tasks or task_id <= self._forgotten_high

    def forgotten(self, task_id: int) -> bool:
        """Whether ``task_id`` was added and has since been forgotten (DONE)."""
        return task_id <= self._forgotten_high and task_id not in self._tasks

    @property
    def tasks(self) -> List[TaskInstance]:
        """The held instances: on a real runtime, none that finished DONE."""
        return list(self._tasks.values())

    def predecessors(self, task_id: int) -> Set[int]:
        return set(self._predecessor_ids(task_id))

    def _predecessor_ids(self, task_id: int) -> Tuple[int, ...]:
        preds = self._predecessors.get(task_id, ())
        return (preds,) if preds.__class__ is int else preds

    def successors(self, task_id: int) -> Set[int]:
        return set(self._successor_ids(task_id))

    def _successor_ids(self, task_id: int) -> Iterable[int]:
        dependants = self._successors.get(task_id, ())
        return (dependants,) if dependants.__class__ is int else set(dependants)

    # ---------------------------------------------------------- ready queue

    def _ready_append(self, task_id: int) -> None:
        node = _ReadyNode(task_id, self._ready_tail)
        if self._ready_tail is None:
            self._ready_head = node
        else:
            self._ready_tail.next = node
        self._ready_tail = node
        self._ready_nodes[task_id] = node

    def _ready_remove(self, task_id: int) -> None:
        node = self._ready_nodes.pop(task_id)
        node.live = False
        self.ready_epoch += 1
        if node.prev is None:
            self._ready_head = node.next
        else:
            node.prev.next = node.next
        if node.next is None:
            self._ready_tail = node.prev
        else:
            node.next.prev = node.prev
        # node.next is deliberately left intact for in-flight iterators.

    # ---------------------------------------------------------------- build

    def add_task(self, instance: TaskInstance, depends_on: Iterable[int] = ()) -> None:
        """Insert ``instance`` depending on earlier tasks.

        Dependencies on already-finished tasks are counted as satisfied —
        forgotten ones too; a dependency on a FAILED/CANCELLED ancestor
        cancels the new task immediately (failure propagation).
        """
        tid = instance.task_id
        tasks = self._tasks
        if tid in tasks or tid <= self._forgotten_high:
            raise GraphError(f"duplicate task id {tid}")
        if tid > self.highest_id:
            self.highest_id = tid
        deps = tuple(
            depends_on if isinstance(depends_on, (set, frozenset)) else set(depends_on)
        )
        for dep in deps:
            if dep not in tasks and dep > self._forgotten_high:
                raise GraphError(f"task {tid} depends on unknown task {dep}")
            if dep >= tid:
                raise GraphError(
                    f"task {tid} depends on {dep}, which is not earlier in "
                    "program order — cycles are not expressible"
                )
        tasks[tid] = instance
        self._node_count += 1
        self._predecessors[tid] = deps[0] if len(deps) == 1 else deps
        successors = self._successors
        poisoned = False
        unfinished = 0
        for dep in deps:
            node = tasks.get(dep)
            if node is None:
                continue  # forgotten, so DONE
            dependants = successors.get(dep)
            if dependants is None:
                successors[dep] = tid
            elif dependants.__class__ is int:
                successors[dep] = [dependants, tid]
            else:
                dependants.append(tid)
            dep_state = node.state
            if dep_state in (TaskState.FAILED, TaskState.CANCELLED):
                poisoned = True
            elif dep_state is not TaskState.DONE:
                unfinished += 1
        self._unfinished_preds[tid] = unfinished
        if poisoned:
            instance.state = TaskState.CANCELLED
            self.cancelled_count += 1
            self._terminal_count += 1
        elif unfinished == 0:
            instance.state = TaskState.READY
            self._ready_append(tid)
        else:
            self._pending_count += 1

    def add_tasks(
        self, batch: Iterable[tuple]
    ) -> int:
        """Batched insert: ``(instance, depends_on)`` pairs in program order.

        The graph-level half of the batched submission path (the
        ``submit_many`` analogue for pre-built instances): callers that
        lower many tasks at one virtual instant — the dataflow plane's
        window closes — append them in one call and trigger a single
        dispatch pass, instead of paying a scheduler kick per task.
        Returns the number of tasks inserted.
        """
        count = 0
        for instance, depends_on in batch:
            self.add_task(instance, depends_on)
            count += 1
        return count

    # ------------------------------------------------------------ scheduling

    def ready_tasks(self) -> List[TaskInstance]:
        """Tasks whose dependencies are all satisfied, in registration order."""
        return list(self.iter_ready())

    def iter_ready(self, start_after: Optional[int] = None) -> Iterator[TaskInstance]:
        """Lazily yield ready tasks in queue order (no O(ready) snapshot).

        The yielded task (and only it) may be marked running/failed while
        iterating: dequeuing leaves the node's ``next`` pointer intact, so
        the walk chains forward regardless.  A dispatch loop can therefore
        scan a bounded window of a huge ready queue and stop without ever
        touching the rest.  Tasks made ready during iteration are not
        guaranteed to be seen.

        ``start_after`` resumes iteration just past the given (still-ready)
        task id, letting a dispatcher hop over a prefix it has already
        proven unplaceable this pass instead of re-walking it.  If the
        anchor task is no longer queued, iteration starts from the head
        (callers guard anchor validity with ``ready_epoch``).
        """
        if start_after is None:
            node = self._ready_head
        else:
            anchor = self._ready_nodes.get(start_after)
            node = anchor.next if anchor is not None else self._ready_head
        while node is not None:
            if node.live:
                yield self._tasks[node.tid]
            node = node.next

    @property
    def ready_count(self) -> int:
        return len(self._ready_nodes)

    def mark_running(self, task_id: int, node_name: str, now: float = 0.0) -> None:
        instance = self.task(task_id)
        if instance.state is not TaskState.READY:
            raise GraphError(
                f"task {task_id} is {instance.state.value}, cannot start it"
            )
        self._ready_remove(task_id)
        instance.state = TaskState.RUNNING
        self._running_count += 1
        instance.assigned_node = node_name
        instance.start_time = now
        instance.attempts += 1

    def requeue(self, task_id: int) -> None:
        """Return a RUNNING task to READY (node failure → resubmission)."""
        instance = self.task(task_id)
        if instance.state is not TaskState.RUNNING:
            raise GraphError(
                f"task {task_id} is {instance.state.value}, cannot requeue it"
            )
        instance.state = TaskState.READY
        self._running_count -= 1
        instance.assigned_node = None
        instance.start_time = None
        self._ready_append(task_id)

    def mark_done(self, task_id: int, now: float = 0.0) -> List[TaskInstance]:
        """Complete a task; returns the successor tasks that became ready."""
        instance = self.task(task_id)
        if instance.state is not TaskState.RUNNING:
            raise GraphError(
                f"task {task_id} is {instance.state.value}, cannot complete it"
            )
        instance.state = TaskState.DONE
        self._running_count -= 1
        instance.end_time = now
        self.completed_count += 1
        self._terminal_count += 1
        newly_ready: List[TaskInstance] = []
        for succ in self._successor_ids(task_id):
            successor = self._tasks[succ]
            if successor.state is not TaskState.PENDING:
                continue
            self._unfinished_preds[succ] -= 1
            if self._unfinished_preds[succ] == 0:
                successor.state = TaskState.READY
                self._pending_count -= 1
                self._ready_append(succ)
                newly_ready.append(successor)
        return newly_ready

    def mark_failed(self, task_id: int, error: BaseException, now: float = 0.0) -> List[int]:
        """Fail a task and cancel its whole pending descendant cone.

        Returns the ids of cancelled descendants.  Every descendant not yet
        terminal is PENDING: each has an unfinished predecessor on its path
        from this task, so none can be READY or RUNNING.
        """
        instance = self.task(task_id)
        if instance.state not in (TaskState.RUNNING, TaskState.READY):
            raise GraphError(
                f"task {task_id} is {instance.state.value}, cannot fail it"
            )
        if instance.state is TaskState.READY:
            self._ready_remove(task_id)
        else:
            self._running_count -= 1
        instance.state = TaskState.FAILED
        instance.error = error
        instance.end_time = now
        self.failed_count += 1
        self._terminal_count += 1
        cancelled: List[int] = []
        frontier = list(self._successor_ids(task_id))
        # The visited set keeps the traversal linear on diamond-heavy DAGs:
        # without it every shared descendant re-enters the frontier once per
        # path, which is exponential in the worst case.
        visited = set(frontier)
        while frontier:
            tid = frontier.pop()
            descendant = self._tasks[tid]
            if descendant.state is TaskState.PENDING:
                self._pending_count -= 1
                descendant.state = TaskState.CANCELLED
                self._terminal_count += 1
                self.cancelled_count += 1
                cancelled.append(tid)
                for succ in self._successor_ids(tid):
                    if succ not in visited:
                        visited.add(succ)
                        frontier.append(succ)
        return cancelled

    def forget(self, task_id: int) -> None:
        """Let a DONE task go.

        Its instance and rows leave; the counters stay.  Its successors were
        released when it completed, so nothing reads its state again: a
        later dependency on its id, or a wait on it, finds it absent and at
        or below the highest forgotten id, which reads as DONE (any other
        absent id is unknown).  Only the real runtime forgets, and never a
        FAILED or CANCELLED task: those poison later readers.  From then on
        ``add_task`` refuses an id at or below the highest forgotten one:
        ids are minted in program order, so such an id is a reuse.
        """
        state = self.task(task_id).state
        if state is not TaskState.DONE:
            raise GraphError(f"task {task_id} is {state.value}, cannot forget it")
        del self._tasks[task_id], self._predecessors[task_id]
        del self._unfinished_preds[task_id]
        self._successors.pop(task_id, None)
        if task_id > self._forgotten_high:
            self._forgotten_high = task_id

    # -------------------------------------------------------------- queries

    @property
    def finished(self) -> bool:
        """True when no task can make further progress.

        O(1): every task bumps ``_terminal_count`` exactly once on reaching
        DONE/FAILED/CANCELLED, so the graph is finished exactly when that
        counter accounts for every task ever added.
        """
        return self._terminal_count == self._node_count

    @property
    def task_count(self) -> int:
        """Tasks ever added, forgotten ones included."""
        return self._node_count

    @property
    def pending_count(self) -> int:
        return self._pending_count

    @property
    def running_count(self) -> int:
        return self._running_count

    def critical_path_length(self, duration_of: Callable[[TaskInstance], float]) -> float:
        """Longest path through the held DAG under ``duration_of`` (lower
        bound on makespan); a forgotten predecessor adds nothing."""
        longest: Dict[int, float] = {}
        for tid in self._tasks:  # insertion order is topological
            instance = self._tasks[tid]
            best_pred = max(
                (longest.get(p, 0.0) for p in self._predecessor_ids(tid)),
                default=0.0,
            )
            longest[tid] = best_pred + duration_of(instance)
        return max(longest.values(), default=0.0)

    def validate_acyclic(self) -> bool:
        """Check the DAG invariant explicitly (used by property tests)."""
        for tid in self._predecessors:
            for p in self._predecessor_ids(tid):
                if p >= tid:
                    return False
        return True
