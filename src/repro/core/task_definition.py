"""The ``@task`` decorator: PyCOMPSs-style task annotation.

"A COMPSs application is composed of tasks, which are annotated methods. At
execution time, the runtime builds a task graph ..." (§VI-A).  Decorating a
function turns calls to it into asynchronous task submissions when a runtime
is active; without a runtime the function runs synchronously (the PyCOMPSs
convention, convenient for debugging).

Example::

    @task(returns=1)
    def add(a, b):
        return a + b

    @task(c=INOUT)
    def accumulate(c, x):
        c.extend(x)
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.constraints import (
    CONSTRAINT_ATTR,
    ResourceConstraints,
    constraints_of,
)
from repro.core.parameter import IN, Direction, Parameter

DEFINITION_ATTR = "_repro_task_definition"

# Set on a thread while it runs a task body: a ``@task`` call made there runs
# inline (``runtime.current_runtime`` answers None).
_in_task = threading.local()


def mark_in_task(active: bool) -> None:
    """Executor hook: flags the current thread as running inside a task."""
    _in_task.active = active


class TaskDefinition:
    """Static description of a task type (one per decorated function)."""

    def __init__(
        self,
        fn: Callable,
        returns: int = 0,
        param_directions: Optional[Dict[str, Parameter]] = None,
        constraints: Optional[ResourceConstraints] = None,
        cache: bool = False,
    ) -> None:
        self.fn = fn
        self.name = getattr(fn, "__qualname__", getattr(fn, "__name__", "task"))
        self.returns = int(returns)
        # cache=True marks the task deterministic: the runtime may reuse a
        # previous result for an identical invocation (memoization, §VI-C).
        self.cache = bool(cache)
        if self.returns < 0:
            raise ValueError(f"returns must be >= 0, got {returns}")
        self.param_directions = dict(param_directions or {})
        self.constraints = constraints if constraints is not None else constraints_of(fn)
        self._signature = inspect.signature(fn)
        self._validate_directions()
        # The call plan: everything about a call that is fixed per
        # definition, derived here once instead of once per invocation.
        self.param_names = tuple(self._signature.parameters)
        #: One ``(name, Parameter, explicitly annotated)`` triple per
        #: parameter, in signature order — what the Access Processor walks.
        self.plan = tuple(
            (name, self.param_directions.get(name, IN), name in self.param_directions)
            for name in self.param_names
        )
        #: How many leading parameters a call may pass by position; the
        #: keyword-only ones after them are passed by name.
        self.positional = sum(
            parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            for parameter in self._signature.parameters.values()
        )
        #: The parameters whose argument ``prepare_task`` must validate — a
        #: path (``FILE_*``) or written in place — as ``(index, name,
        #: Direction)``.
        self.guarded = tuple(
            (index, name, param.direction)
            for index, (name, param, _explicit) in enumerate(self.plan)
            if param.direction.is_file or param.direction.writes
        )

    @property
    def constraints(self) -> ResourceConstraints:
        return self._constraints

    @constraints.setter
    def constraints(self, spec: ResourceConstraints) -> None:
        # @constraint applied after @task swaps the spec in late; redo
        # everything derived from it so the new spec takes effect.
        self._constraints = spec
        self._static_requirements = None
        #: Whether requirements must be resolved per call (cached off
        #: ``constraints.is_dynamic``).
        self.is_dynamic = spec.is_dynamic

    def static_requirements(self):
        """Cached ``constraints.resolve()`` for non-dynamic constraints.

        One task type is invoked millions of times with the same static
        demand; resolving once per definition instead of once per call
        keeps the submission hot path allocation-free here.  Only valid
        when ``is_dynamic`` is False.
        """
        if self._static_requirements is None:
            self._static_requirements = self._constraints.resolve()
        return self._static_requirements

    def _validate_directions(self) -> None:
        names = set(self._signature.parameters)
        for parameter in self._signature.parameters.values():
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
                inspect.Parameter.POSITIONAL_ONLY,
            ):
                raise TypeError(
                    f"task {self.name!r}: *args/**kwargs/positional-only "
                    "parameters are not supported on tasks — the runtime "
                    "tracks one argument per named parameter"
                )
        for pname in self.param_directions:
            if pname not in names:
                raise ValueError(
                    f"task {self.name!r} declares direction for unknown "
                    f"parameter {pname!r}"
                )

    def direction_of(self, param_name: str) -> Parameter:
        """Declared direction of a parameter; defaults to IN."""
        return self.param_directions.get(param_name, IN)

    def bind(self, args: Sequence[Any], kwargs: dict) -> tuple:
        """A call's argument values, one per parameter in signature order
        (defaults applied): the payload a task instance runs on.

        A fully positional call needs no matching: the caller's tuple is
        the payload.  Every other shape — keywords, defaults, wrong arity,
        keyword-only parameters — goes through
        :meth:`inspect.Signature.bind`, so errors are ``inspect``'s own.
        """
        if not kwargs and len(args) == self.positional == len(self.param_names):
            return tuple(args)  # a tuple is returned as it is
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    def split(self, payload: Sequence[Any]) -> Tuple[Sequence[Any], Dict[str, Any]]:
        """``(args, kwargs)`` that call the function with ``payload``: the
        keyword-only parameters by name, the rest by position — what
        ``inspect.BoundArguments.args`` / ``.kwargs`` give."""
        positional = self.positional
        if positional == len(payload):
            return payload, {}
        return payload[:positional], dict(
            zip(self.param_names[positional:], payload[positional:])
        )

    def __repr__(self) -> str:
        return f"TaskDefinition({self.name!r}, returns={self.returns})"


def task(returns: int = 0, cache: bool = False, **param_directions: Parameter) -> Callable:
    """Decorator that registers a function as a task type.

    Args:
        returns: how many values the task returns (each becomes a Future).
        cache: declare the task deterministic, allowing the runtime to
            memoize results across identical invocations (requires a
            Runtime constructed with a ``memoizer``).
        **param_directions: per-parameter :class:`Parameter` annotations
            (``IN``/``OUT``/``INOUT``/``FILE_*``); unannotated parameters
            default to ``IN``.
    """
    for name, value in param_directions.items():
        if not isinstance(value, Parameter):
            raise TypeError(
                f"direction for parameter {name!r} must be a Parameter "
                f"(IN/OUT/INOUT/FILE_*), got {value!r}"
            )

    def decorate(fn: Callable) -> Callable:
        definition = TaskDefinition(
            fn,
            returns=returns,
            param_directions=param_directions,
            constraints=getattr(fn, CONSTRAINT_ATTR, None) or constraints_of(fn),
            cache=cache,
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            runtime = _current_runtime()
            if runtime is None:
                return fn(*args, **kwargs)
            return runtime.submit(definition, args, kwargs)

        setattr(wrapper, DEFINITION_ATTR, definition)
        # Let @constraint applied *after* @task still reach the definition.
        wrapper._repro_task_definition = definition  # type: ignore[attr-defined]
        return wrapper

    return decorate


def _current_runtime() -> Any:
    """``runtime.current_runtime``, imported on the first task call (that
    module imports this one) and bound over this global for the later ones."""
    global _current_runtime
    from repro.core.runtime import current_runtime

    _current_runtime = current_runtime
    return current_runtime()


def definition_of(fn: Callable) -> Optional[TaskDefinition]:
    """The TaskDefinition behind a decorated function, if any."""
    return getattr(fn, DEFINITION_ATTR, None)
