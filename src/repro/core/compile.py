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

What opts out (key = ``None``): invocations with OUT/INOUT/FILE parameters
(in-place mutation has no content identity), tracked mutable-object
arguments, unpicklable literals, futures whose producer was itself not
content-addressable, and tasks not declared ``cache=True`` — the
declaration is the determinism contract; a non-deterministic task must
never be deduplicated.  It also makes results *values*, handed as the same
object to every identical submission: the Access Processor refuses a keyed
future passed to an OUT/INOUT parameter.

The second half of the module (:func:`compile_graph`) applies the same idea
to *built* simulation workflows: the graphs emitted by the front-ends
(:mod:`repro.frontends`), the workload generators, and
:class:`~repro.executor.workflow_builder.SimWorkflowBuilder` are recompiled
so content-identical subgraphs across tenant submissions collapse into one
scheduled instance, with the duplicates' output datums aliased onto the
survivor's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

# _UNTRACKED_TYPES: anything else passed IN is identity-tracked mutable data,
# which has no stable content identity.
from repro.core.access_processor import _UNTRACKED_TYPES
from repro.core.constraints import ResolvedRequirements
from repro.core.futures import Future
from repro.core.graph import SimProfile, TaskGraph, TaskInstance, TaskState
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
        bound: Any,
        requirements: ResolvedRequirements,
    ) -> Optional[str]:
        """Content key of one bound invocation, or None if it opts out.

        One serialization pass over the whole tokenized call — futures are
        replaced by their producers' content keys first, so the resulting
        digest is the Merkle node over the invocation's entire upstream
        subgraph.
        """
        plan = getattr(definition, _KEY_PLAN_ATTR, None) or _KeyPlan(definition)
        if not plan.addressable:
            return None
        arguments = bound.arguments
        tokens = []
        for pname, _, explicit in definition.plan:
            value = arguments[pname]
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


# --------------------------------------------------------------------------
# Graph-level compilation: cross-submission subgraph dedup for built
# simulation workflows (the simulate/sweep ``--dedupe`` path).
# --------------------------------------------------------------------------


@dataclass
class GraphCompileStats:
    """What one :func:`compile_graph` pass did."""

    tasks_in: int = 0
    tasks_out: int = 0
    deduped: int = 0
    #: tasks that could not be content-addressed (non-deterministic flag,
    #: control/WAR/WAW edges, missing profile) and were passed through.
    opted_out: int = 0
    barriers: int = 0

    def as_stats(self) -> Dict[str, float]:
        """The cache-style counter dict sweep summaries aggregate."""
        return {
            "cache_hits": float(self.deduped),
            "cache_skipped": float(self.opted_out),
            "cache_evictions": 0.0,
        }


@dataclass
class CompiledWorkflow:
    """Result of compiling a built workflow graph."""

    graph: TaskGraph
    stats: GraphCompileStats
    #: new task id -> content key, for keyed (dedupable) tasks only.
    content_keys: Dict[int, str] = field(default_factory=dict)
    #: duplicate output datum name -> surviving canonical datum name.
    datum_aliases: Dict[str, str] = field(default_factory=dict)


def _instance_key(
    instance: TaskInstance,
    read_identities: List[tuple],
) -> str:
    profile = instance.profile
    _size, key = content_fingerprint(
        (
            "repro-sim/v1",
            profile.duration_s,
            _requirements_signature(instance.requirements),
            tuple(read_identities),
            # Transfer costs, aligned by read position (datum *names* differ
            # across tenants even when the data identity matches).
            tuple(profile.input_sizes.get(name, 0.0) for name in instance.reads),
            tuple(
                (index, profile.output_sizes.get(name, 0.0))
                for index, name in enumerate(instance.writes)
            ),
        )
    )
    # Simulation payloads are floats/strings — always picklable.
    assert key is not None
    return key


def compile_graph(
    graph: TaskGraph,
    initial_data: Optional[Dict[str, float]] = None,
    dedupe: bool = True,
) -> CompiledWorkflow:
    """Recompile a built (not yet executed) workflow, deduping subgraphs.

    Walks the graph in program order replaying the builder's datum state.
    Each pure dataflow task — deterministic, profiled, and whose only
    predecessors are the writers of its declared reads — gets a content key
    over (profile signature, resolved requirements, input identities,
    output shape); input identities are ``("data", name, size)`` for
    initial datums and ``("out", producer_key, index)`` for produced ones,
    so identity propagates through whole pipelines exactly like the
    runtime compiler's Merkle keys.

    A task whose key was already seen is dropped: its output datum names
    become aliases of the survivor's, downstream reads are rewritten
    through the alias map, and every consumer of any duplicate feeds off
    the single scheduled instance.  Tasks with control dependencies,
    WAR/WAW edges, or ``deterministic=False`` profiles are passed through
    untouched (conservative opt-out), as are structural barriers.

    With ``dedupe=False`` the pass is a pure rebuild — same tasks, same
    dependencies, fresh ids — which the equivalence tests use to pin the
    rebuild itself as behavior-preserving.
    """
    initial_data = initial_data or {}
    for instance in graph.tasks:
        if instance.state not in (TaskState.PENDING, TaskState.READY):
            raise ValueError(
                "compile_graph requires an unexecuted graph; task "
                f"{instance.label!r} is {instance.state.value}"
            )
    out = TaskGraph()
    stats = GraphCompileStats()
    compiled = CompiledWorkflow(graph=out, stats=stats)
    next_id = 1
    canon: Dict[int, int] = {}  # old id -> new id of the surviving instance
    seen: Dict[str, int] = {}  # content key -> new id of canonical task
    key_by_old: Dict[int, Optional[str]] = {}
    datum_alias: Dict[str, str] = {}
    #: datum name -> (identity tuple, old writer id | None)
    datum_state: Dict[str, Tuple[tuple, Optional[int]]] = {
        name: (("data", name, float(size)), None)
        for name, size in initial_data.items()
    }

    for instance in graph.tasks:  # insertion order == program order
        old_id = instance.task_id
        old_preds = graph.predecessors(old_id)
        if instance.is_barrier:
            stats.barriers += 1
            new_id = next_id
            next_id += 1
            barrier = TaskInstance(
                task_id=new_id, label=instance.label, is_barrier=True
            )
            out.add_task(barrier, {canon[p] for p in old_preds})
            canon[old_id] = new_id
            continue
        stats.tasks_in += 1

        # Replay the datum reads against the current alias/identity state.
        read_names: List[str] = []
        read_identities: List[tuple] = []
        data_preds: Set[int] = set()
        resolvable = instance.profile is not None
        for name in instance.reads:
            canonical_name = datum_alias.get(name, name)
            read_names.append(canonical_name)
            state = datum_state.get(canonical_name)
            if state is None:
                resolvable = False  # datum born outside the replayed state
                continue
            identity, writer = state
            read_identities.append(identity)
            if writer is not None:
                data_preds.add(writer)

        # Compare dependencies in the output id-space: once a duplicate has
        # been dropped, old ids and new ids diverge, and a consumer of the
        # deduped output legitimately points at the surviving instance.
        mapped_preds = {canon[p] for p in old_preds}
        eligible = (
            dedupe
            and resolvable
            and instance.profile is not None
            and getattr(instance.profile, "deterministic", True)
            and mapped_preds == data_preds
            # Rewriting an existing datum (WAW) adds non-read deps, caught
            # by the predecessor equality above; fresh output names are the
            # remaining requirement for a side-effect-free merge.
            and all(name not in datum_state for name in instance.writes)
        )
        key = _instance_key(instance, read_identities) if eligible else None
        key_by_old[old_id] = key

        if key is not None and key in seen:
            canonical_new_id = seen[key]
            canonical = out.task(canonical_new_id)
            canon[old_id] = canonical_new_id
            for index, name in enumerate(instance.writes):
                canonical_name = canonical.writes[index]
                datum_alias[name] = canonical_name
                compiled.datum_aliases[name] = canonical_name
            stats.deduped += 1
            continue

        new_id = next_id
        next_id += 1
        profile = instance.profile
        new_profile = None
        if profile is not None:
            new_profile = SimProfile(
                duration_s=profile.duration_s,
                input_sizes={
                    datum_alias.get(name, name): size
                    for name, size in profile.input_sizes.items()
                },
                output_sizes=dict(profile.output_sizes),
                deterministic=profile.deterministic,
            )
        replica = TaskInstance(
            task_id=new_id,
            label=instance.label,
            requirements=instance.requirements,
            fn=instance.fn,
            args=instance.args,
            kwargs=dict(instance.kwargs),
            future_args=dict(instance.future_args),
            reads=read_names,
            writes=list(instance.writes),
            profile=new_profile,
        )
        out.add_task(replica, {canon[p] for p in old_preds})
        canon[old_id] = new_id
        stats.tasks_out += 1
        if key is not None:
            seen[key] = new_id
            compiled.content_keys[new_id] = key
        else:
            stats.opted_out += 1
        # Writes establish fresh datum identities: keyed outputs are
        # addressable by (producer key, index) so downstream tasks across
        # tenants agree; unkeyed outputs get an identity unique to this
        # instance, which correctly blocks dedup past an opted-out node.
        for index, name in enumerate(instance.writes):
            datum_alias.pop(name, None)
            identity = (
                ("out", key, index) if key is not None else ("uniq", new_id, index)
            )
            datum_state[name] = (identity, new_id)

    return compiled
