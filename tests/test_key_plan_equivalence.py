"""One key plan per task definition, every content key byte-identical (E22).

``WorkflowCompiler.compile_call`` decides once per definition whether a
call can be content-addressed at all, looks the definition identity and the
static requirements signature up instead of rebuilding them, and builds its
tokens in one loop.  The formula it replaced is kept here as the oracle:
for hypothesis-drawn argument shapes and every kind of definition the two
must return exactly the same key — ``None`` (opted out) included.
"""

from __future__ import annotations

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FILE_IN, IN, INOUT, constraint, task
from repro.core.compile import WorkflowCompiler, _FutureToken, definition_identity
from repro.core.futures import Future
from repro.core.parameter import Direction
from repro.core.task_definition import definition_of
from repro.storage.interface import content_fingerprint

_UNTRACKED = (int, float, bool, str, bytes, complex, type(None), frozenset)


class _OptOut(Exception):
    pass


def _oracle_tokenize(definition, pname, value):
    param = definition.direction_of(pname)
    if param.direction is not Direction.IN or param.direction.is_file:
        raise _OptOut
    if isinstance(value, Future):
        if value.content_key is None:
            raise _OptOut
        return _FutureToken(value.content_key)
    if isinstance(value, _UNTRACKED):
        return value
    explicit = pname in definition.param_directions
    if not explicit and isinstance(value, (list, tuple)):
        elements = []
        for element in value:
            if isinstance(element, Future):
                if element.content_key is None:
                    raise _OptOut
                elements.append(_FutureToken(element.content_key))
            else:
                elements.append(element)
        return (type(value).__name__, tuple(elements))
    raise _OptOut


def _oracle_key(definition, bound, requirements):
    """``compile_call`` as it stood before the key plan (commit f42d0a6)."""
    try:
        tokens = tuple(
            (pname, _oracle_tokenize(definition, pname, value))
            for pname, value in bound.arguments.items()
        )
    except _OptOut:
        return None
    _size, key = content_fingerprint(
        (
            "repro-call/v1",
            definition_identity(definition),
            (
                requirements.cores,
                requirements.memory_mb,
                requirements.gpus,
                tuple(sorted(requirements.software)),
                requirements.nodes,
            ),
            tokens,
        )
    )
    return key


@task(returns=1, cache=True)
def plain(a, b, c=None):
    return a


@task(returns=1, cache=True, b=IN)
def explicit_in(a, b, c=None):
    return a


@task(returns=1, cache=True, b=INOUT)
def with_inout(a, b, c=None):
    return a


@task(returns=1, cache=True, c=FILE_IN)
def with_file(a, b, c="f.txt"):
    return a


@constraint(cores=2, memory_mb=512, software=("numpy", "blas"))
@task(returns=2, cache=True)
def static_demand(a, b, c=None):
    return a, b


@constraint(memory_mb=lambda a, b, c=None: 100 + (a if type(a) is int else 0) % 3)
@task(returns=1, cache=True)
def dynamic_demand(a, b, c=None):
    return a


DEFINITIONS = [
    definition_of(fn)
    for fn in (plain, explicit_in, with_inout, with_file, static_demand, dynamic_demand)
]


def _future(key):
    future = Future("res-1-0", 1)
    future.content_key = key
    return future


scalars = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
)
futures = st.sampled_from(["k" * 32, "k" * 32 + ":1", None]).map(_future)
elements = st.one_of(scalars, futures, st.just(lambda: 0))  # the last: unpicklable
values = st.one_of(
    scalars,
    futures,
    st.lists(elements, max_size=3),
    st.lists(elements, max_size=3).map(tuple),
    st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=2),
    st.just(object()),  # user data: tracked by identity, never keyed
    st.frozensets(st.integers(0, 3), max_size=2),
)


def _both(definition, args, kwargs, compiler):
    bound = inspect.signature(definition.fn).bind(*args, **kwargs)
    bound.apply_defaults()
    requirements = (
        definition.constraints.resolve(tuple(bound.args), dict(bound.kwargs))
        if definition.is_dynamic
        else definition.static_requirements()
    )
    return (
        compiler.compile_call(definition, definition.bind(args, kwargs), requirements),
        _oracle_key(definition, bound, requirements),
    )


class TestKeyPlanMatchesTheFormulaItReplaced:
    @given(
        definition=st.sampled_from(DEFINITIONS),
        a=values,
        b=values,
        c=st.one_of(st.none(), values),
        spelling=st.sampled_from(["positional", "keywords", "defaulted"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_key_or_same_opt_out(self, definition, a, b, c, spelling):
        if spelling == "positional":
            args, kwargs = (a, b, c), {}
        elif spelling == "keywords":
            args, kwargs = (a,), {"c": c, "b": b}
        else:
            args, kwargs = (a, b), {}
        compiler = WorkflowCompiler()
        got, expected = _both(definition, args, kwargs, compiler)
        assert got == expected
        # The plan is built by the first call and looked up by the second.
        assert _both(definition, args, kwargs, compiler) == (expected, expected)

    def test_every_definition_kind_is_keyed_when_it_can_be(self):
        compiler = WorkflowCompiler()
        keyed = {
            d.name: _both(d, (1, [2, _future("k" * 32)]), {}, compiler)[0] is not None
            for d in DEFINITIONS
        }
        assert keyed == {
            "plain": True,
            "explicit_in": False,  # an explicit container is tracked by identity
            "with_inout": False,
            "with_file": False,
            "static_demand": True,
            "dynamic_demand": True,
        }

    def test_a_late_constraint_is_signed_afresh(self):
        @task(returns=1, cache=True)
        def late(a):
            return a

        definition = definition_of(late)
        compiler = WorkflowCompiler()
        first, expected = _both(definition, (1,), {}, compiler)
        assert first == expected
        constraint(cores=2)(late)  # applied after @task: swaps the spec in
        second, expected = _both(definition, (1,), {}, compiler)
        assert second == expected and second != first
