"""The Access Processor (AP).

"The Access Processor is the component of the runtime that receives calls
from the instrumented code and builds a dependency graph. When all the
accesses of a task have been registered, the AP sends it to the Task
Scheduling component for execution." (§VI-B, Fig. 6)

For every task invocation the AP:

1. binds the call to the task's signature and reads each parameter's declared
   direction (IN / OUT / INOUT / FILE_*);
2. resolves each argument to a versioned datum (objects by identity and
   files by path, through the :class:`DataRegistry`; futures by the datum
   they carry — or, born settled by a memo hit, as the value they hold;
   futures inside one level of list/tuple are also tracked — PyCOMPSs
   collections);
3. registers each access with the :class:`~repro.core.data.DependencyTracker`,
   which owns the RAW / WAW / WAR rule (written once, in
   :mod:`repro.core.data`, and shared with the simulated workflow builder);
4. mints result datums and futures for declared return values;
5. emits a :class:`TaskInstance` carrying the dependency set, the call's
   payload — one argument value per parameter, in the plan's order, futures
   left in place for the executor to substitute by the same rule as step 2
   — and the per-invocation resolved resource requirements.

**prepare/commit split** (PR 3) — ``prepare_task`` does everything that needs
no shared state (signature binding, dynamic-constraint evaluation) so the
runtime can run it outside its lock; ``commit_task`` performs only the
registry mutations and id minting that must serialize.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.constraints import ResolvedRequirements
from repro.core.data import DataRegistry, Datum, DependencyTracker
from repro.core.futures import Future
from repro.core.graph import TaskInstance
from repro.core.parameter import IN, Direction, Parameter
from repro.core.task_definition import TaskDefinition

if TYPE_CHECKING:
    from repro.core.graph import TaskGraph

#: Immutable built-ins that cannot carry dependencies when passed IN:
#: tracking them would only bloat the registry (and small ints are interned,
#: so identity-based tracking would alias them anyway).
_UNTRACKED_TYPES = (int, float, bool, str, bytes, complex, type(None), frozenset)


class RegisteredTask(NamedTuple):
    """What the AP hands to the runtime for one invocation."""

    instance: TaskInstance
    depends_on: Set[int]
    futures: Sequence[Future] = ()


class PreparedTask(NamedTuple):
    """Lock-free half of a submission: payload + resolved requirements.

    Produced by :meth:`AccessProcessor.prepare_task` (safe to run
    concurrently, touches no shared state) and consumed by
    :meth:`AccessProcessor.commit_task` under the runtime lock.
    """

    definition: TaskDefinition
    #: One argument value per parameter, in ``definition.plan`` order.
    payload: tuple
    requirements: ResolvedRequirements


class AccessProcessor:
    """Builds the dynamic dependency graph from task-call data accesses.

    Args:
        registry: shared datum registry (fresh one by default).
        graph: the graph the AP's tasks go to, when it forgets settled
            tasks (the real runtime's): the readers it has forgotten are
            swept out of a long reader list.  The dependencies are the same
            without one.
    """

    def __init__(
        self,
        registry: Optional[DataRegistry] = None,
        graph: Optional["TaskGraph"] = None,
    ) -> None:
        self.registry = registry if registry is not None else DataRegistry()
        self._task_ids = itertools.count(1)
        self._tracker = DependencyTracker(graph)

    # ------------------------------------------------------------------ API

    def prepare_task(
        self,
        definition: TaskDefinition,
        args: tuple,
        kwargs: dict,
    ) -> PreparedTask:
        """Bind the call and resolve constraints — no shared state touched.

        Safe to call outside the runtime lock: signature binding and
        (dynamic) constraint evaluation depend only on the definition and
        the concrete arguments.
        """
        payload = definition.bind(args, kwargs)
        # Whatever a call can get wrong is refused here, before a task id
        # exists: were ``commit_task`` to raise, the reads it had already
        # registered would name a task the graph never receives.
        for index, pname, direction in definition.guarded:
            value = payload[index]
            if not isinstance(value, Future):
                if direction.is_file and not isinstance(value, str):
                    raise TypeError(
                        f"parameter {pname!r} is declared FILE_* but received "
                        f"{type(value).__name__}, expected a path string"
                    )
            elif value.content_key is not None and not direction.is_file:
                producer = value.producer_task_id
                source = "a memo hit" if producer is None else f"task #{producer}"
                raise TypeError(
                    f"parameter {pname!r} of task {definition.name!r} is "
                    f"{direction.name} but received a cache=True result (from "
                    f"{source}), a value every identical submission shares: "
                    "copy it in a task first, or drop cache=True"
                )
        return PreparedTask(
            definition, payload, self._resolve_requirements(definition, payload)
        )

    def commit_task(self, prepared: PreparedTask) -> RegisteredTask:
        """Registry half of a submission; must run under the runtime lock."""
        definition = prepared.definition
        payload = prepared.payload
        task_id = next(self._task_ids)
        deps: Set[int] = set()
        reads: List[str] = []
        writes: List[str] = []

        for (_pname, param, explicit), value in zip(definition.plan, payload):
            self._process_argument(task_id, value, param, explicit, deps, reads, writes)

        futures = self._mint_result_futures(definition, task_id, writes)

        instance = TaskInstance(
            task_id=task_id,
            label=f"{definition.name}#{task_id}",
            requirements=prepared.requirements,
            definition=definition,
            payload=payload,
            reads=reads,
            writes=writes,
        )
        return RegisteredTask(instance=instance, depends_on=deps, futures=futures)

    def register_task(
        self,
        definition: TaskDefinition,
        args: tuple,
        kwargs: dict,
    ) -> RegisteredTask:
        """Process one task invocation into an instance + dependencies."""
        return self.commit_task(self.prepare_task(definition, args, kwargs))

    # ------------------------------------------------------------ internals

    def _process_argument(
        self,
        task_id: int,
        value: Any,
        param: Parameter,
        explicit: bool,
        deps: Set[int],
        reads: List[str],
        writes: List[str],
    ) -> None:
        direction = param.direction
        if isinstance(value, Future):
            datum = value.datum
            if datum is None:
                # Born settled (a memo hit): the future is the value it
                # holds.  An immutable read orders against nothing; anything
                # else is tracked by identity, as the object passed raw is.
                held = value.value() if value.error is None else None
                if isinstance(held, _UNTRACKED_TYPES) and direction is Direction.IN:
                    return
                datum = self.registry.register_object(held)
        elif direction.is_file:  # a path string: prepare_task checked
            datum = self.registry.register_file(value)
        elif isinstance(value, (list, tuple)) and not explicit:
            # One-level collection scan (PyCOMPSs COLLECTION_IN semantics).
            # An *explicitly* annotated container (e.g. c=INOUT) is instead
            # tracked as a mutable object below.
            for element in value:
                if isinstance(element, Future):
                    self._process_argument(
                        task_id, element, IN, True, deps, reads, writes
                    )
            return
        elif isinstance(value, _UNTRACKED_TYPES) and direction is Direction.IN:
            return
        else:
            datum = self.registry.register_object(value)
        if direction.reads:
            self._tracker.read(datum, task_id, deps)
            reads.append(datum.datum_id)
        if direction.writes:
            self._tracker.write(datum, task_id, deps)
            writes.append(datum.datum_id)

    def _mint_result_futures(
        self, definition: TaskDefinition, task_id: int, writes: List[str]
    ) -> Tuple[Future, ...]:
        # A result datum is born at version 1, written by its producer, and
        # lives exactly as long as the futures that carry it: the registry
        # keeps no entry for it.
        futures: List[Future] = []
        for index in range(definition.returns):
            datum = Datum(f"res-{task_id}-{index}", 1, task_id)
            writes.append(datum.datum_id)
            futures.append(Future(datum, task_id))
        return tuple(futures)

    def _resolve_requirements(
        self, definition: TaskDefinition, payload: tuple
    ) -> ResolvedRequirements:
        if not definition.is_dynamic:
            # Static constraints resolve identically for every invocation:
            # reuse the definition-cached instance instead of allocating a
            # fresh (frozenset-carrying) requirements object per task.
            return definition.static_requirements()
        # Dynamic constraints are evaluated on the *invocation* arguments,
        # which is exactly the GUIDANCE variable-memory feature (claim C2).
        # Futures among the args would make the callable fail or lie, so the
        # callable must only inspect concrete arguments.
        try:
            return definition.constraints.resolve(*definition.split(payload))
        except Exception as error:
            if any(isinstance(v, Future) for v in payload):
                raise TypeError(
                    f"dynamic constraint of task {definition.name!r} failed "
                    f"({error!r}); dynamic constraints are evaluated at "
                    "submission time and must only depend on concrete "
                    "arguments, not futures — pass the driving quantity "
                    "(e.g. a size) as an explicit plain argument"
                ) from error
            raise
