"""Content-addressed workflow compilation (§VI-C: learning from executions).

A compile step between the front-ends and the runtime: every task
invocation gets a Merkle-style **content key** — a blake2b digest over

* the *task-definition identity* (module, qualified name, declared
  directions/returns, and a fingerprint of the function's bytecode, so
  editing a task body changes every key downstream of it);
* the *resolved-constraint signature* (cores/memory/gpus/software/nodes
  after dynamic evaluation — the same demand must hold for a cached result
  to stand in for a scheduled run);
* digests of every literal argument, via the data plane's pickle-once
  fingerprint primitive; and
* the content keys of the *producer* invocations behind every
  future-valued argument.

Because producer keys feed consumer keys, identity propagates through whole
DAGs: two tenants submitting the same five-stage pipeline over the same
inputs produce five pairwise-equal keys, and the runtime can resolve the
entire repeat subgraph from the result cache (or alias it onto an in-flight
twin) without scheduling anything.  What is fixed per task definition about
a key — whether its calls can be addressed at all, its identity, its static
requirements' signature — sits in one key plan built by the first call; a
memo hit settles at submission with no task, datum or graph node behind it.
Every runtime content key comes from :meth:`WorkflowCompiler.compile_call`;
stream-window keys come from ``stream_task_key`` in
:mod:`repro.streams.dataflow`, so the simulator never loads this module.

What opts out (key = ``None``): invocations with OUT/INOUT/FILE parameters
(in-place mutation has no content identity), tracked mutable-object
arguments, unpicklable literals, futures whose producer was itself not
content-addressable, and tasks not declared ``cache=True`` — the
declaration is the determinism contract; a non-deterministic task must
never be deduplicated.  It also makes results *values*, handed as the same
object to every identical submission: the Access Processor refuses a keyed
future passed to an OUT/INOUT parameter.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

# _UNTRACKED_TYPES: anything else passed IN is identity-tracked mutable data,
# which has no stable content identity.
from repro.core.access_processor import _UNTRACKED_TYPES
from repro.core.constraints import ResolvedRequirements
from repro.core.futures import Future
from repro.core.parameter import Direction
from repro.core.task_definition import TaskDefinition
from repro.storage.interface import content_fingerprint

_KEY_PLAN_ATTR = "_repro_key_plan"


class _FutureToken:
    """Pickle-stable stand-in for a future argument inside a key payload.

    A dedicated class (not a sentinel string/tuple) so no user-supplied
    literal can collide with the marker: the pickle stream encodes the
    class reference itself.
    """

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __getstate__(self) -> str:
        return self.key

    def __setstate__(self, state: str) -> None:
        self.key = state


def _code_fingerprint(fn: Any) -> str:
    """Process-stable digest of a function's behaviour-relevant bytecode.

    Hashes ``co_code`` plus names/varnames and recursively the nested code
    objects in ``co_consts`` (lambdas, comprehensions).  Deliberately *not*
    ``repr(code)`` — that embeds the object's memory address and would make
    keys process-local, breaking cross-run reuse.  Functions without a code
    object (builtins, C extensions) fall back to their qualified name.
    """
    digest = hashlib.blake2b(digest_size=16)

    def feed(code: Any) -> None:
        digest.update(code.co_code)
        digest.update(repr(code.co_names).encode())
        digest.update(repr(code.co_varnames).encode())
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                feed(const)
            else:
                digest.update(repr(const).encode())

    code = getattr(fn, "__code__", None)
    if code is None:
        digest.update(getattr(fn, "__qualname__", repr(fn)).encode())
    else:
        feed(code)
    return digest.hexdigest()


def definition_identity(definition: TaskDefinition) -> str:
    """Stable content identity of a task *type* (cached in its key plan).

    Two definitions share an identity only when they agree on module,
    qualified name, arity contract (returns, parameter directions) and
    bytecode — the front-end half of "stable definition identities": the
    same decorated function imported by any number of tenant submissions
    compiles to the same identity in every process.
    """
    directions = tuple(
        sorted(
            (name, param.direction.name)
            for name, param in definition.param_directions.items()
        )
    )
    _size, identity = content_fingerprint(
        (
            "repro-def/v1",
            getattr(definition.fn, "__module__", "?"),
            definition.name,
            definition.returns,
            directions,
            _code_fingerprint(definition.fn),
        )
    )
    # Unpicklable direction tuples cannot happen (strings only), so the
    # identity is always concrete.
    return identity


def _requirements_signature(requirements: ResolvedRequirements) -> tuple:
    return (
        requirements.cores,
        requirements.memory_mb,
        requirements.gpus,
        tuple(sorted(requirements.software)),
        requirements.nodes,
    )


class _KeyPlan:
    """What is fixed per task definition about its calls' content keys.

    Built by the definition's first compiled call and cached on the
    definition itself (module-lived, so no ``id()``-reuse hazard).
    """

    __slots__ = ("identity", "addressable", "signed")

    def __init__(self, definition: TaskDefinition) -> None:
        self.identity = definition_identity(definition)
        #: Whether any call can be addressed at all: an OUT / INOUT / FILE
        #: parameter means in-place mutation or file side effects.
        self.addressable = all(
            param.direction is Direction.IN for _, param, _ in definition.plan
        )
        #: ``(requirements, signature)`` last signed: static constraints intern
        #: to one object, so a lookup; swapped whole (compiling is lock-free).
        self.signed: tuple = (None, None)
        setattr(definition, _KEY_PLAN_ATTR, self)


class WorkflowCompiler:
    """Assigns content keys to runtime task invocations.

    Stateless apart from per-definition identity caching; safe to call from
    the lock-free prepare phase of submission because the only shared state
    it reads — ``Future.content_key`` — is written once before a future
    escapes the runtime.
    """

    def compile_call(
        self,
        definition: TaskDefinition,
        payload: tuple,
        requirements: ResolvedRequirements,
    ) -> Optional[str]:
        """Content key of one invocation — its argument values in
        ``definition.plan`` order — or None if it opts out.

        One serialization pass over the whole tokenized call — futures are
        replaced by their producers' content keys first, so the resulting
        digest is the Merkle node over the invocation's entire upstream
        subgraph.
        """
        plan = getattr(definition, _KEY_PLAN_ATTR, None) or _KeyPlan(definition)
        if not plan.addressable:
            return None
        tokens = []
        for (pname, _, explicit), value in zip(definition.plan, payload):
            if isinstance(value, Future):
                value = value.content_key
                if value is None:
                    return None  # produced by a non-addressable invocation
                value = _FutureToken(value)
            elif not isinstance(value, _UNTRACKED_TYPES):
                if explicit or not isinstance(value, (list, tuple)):
                    # Identity-tracked mutable data (explicit containers,
                    # dicts, user objects): no content identity.
                    return None
                value = self._tokenize_collection(value)
                if value is None:
                    return None
            tokens.append((pname, value))
        signed_for, signature = plan.signed
        if signed_for is not requirements:
            signature = _requirements_signature(requirements)
            plan.signed = (requirements, signature)
        _size, key = content_fingerprint(
            ("repro-call/v1", plan.identity, signature, tuple(tokens))
        )
        return key  # None when a literal argument is unpicklable

    @staticmethod
    def _tokenize_collection(value: Any) -> Optional[tuple]:
        """One-level collection scan, mirroring the Access Processor's
        non-explicit list/tuple semantics: future elements contribute their
        producer keys, everything else is hashed by content."""
        elements = []
        for element in value:
            if isinstance(element, Future):
                element = element.content_key
                if element is None:
                    return None
                element = _FutureToken(element)
            elements.append(element)
        return (type(value).__name__, tuple(elements))

    @staticmethod
    def result_key(invocation_key: str, index: int, returns: int) -> str:
        """Content key of one return value of a keyed invocation."""
        if returns == 1:
            return invocation_key
        return f"{invocation_key}:{index}"

