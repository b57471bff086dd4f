"""The per-definition call plan equals ``inspect`` (E17).

``TaskDefinition`` derives once what is fixed per task type: parameter
names, per-parameter direction and explicitness, whether constraints are
dynamic, and a positional fast path in ``bind``.  Whatever the call shape,
``bind`` must give ``inspect.Signature.bind`` + ``apply_defaults``' answer
— the same argument values in the same order, or the same exception — and
``split`` must turn those values back into the same ``args`` / ``kwargs``.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import INOUT, constraint, task
from repro.core.access_processor import AccessProcessor
from repro.core.parameter import IN, Direction
from repro.core.task_definition import TaskDefinition, definition_of

NAMES = ["a", "b", "c", "d", "e"]


def _function(arity, defaults, keyword_only=0):
    """``def f(a, b, c=102, ...)`` with ``defaults`` trailing defaults, the
    last ``keyword_only`` parameters after a ``*``."""
    params = [
        name if index < arity - defaults else f"{name}={100 + index}"
        for index, name in enumerate(NAMES[:arity])
    ]
    if keyword_only:
        params.insert(arity - keyword_only, "*")
    namespace = {}
    exec(f"def f({', '.join(params)}):\n    return None", namespace)
    return namespace["f"]


@st.composite
def calls(draw):
    arity = draw(st.integers(0, 5))
    defaults = draw(st.integers(0, arity))
    keyword_only = draw(st.integers(0, arity))
    # Too few and too many positionals; keywords that are missing, repeat a
    # positional, or name no parameter.
    args = tuple(draw(st.lists(st.integers(), max_size=arity + 1)))
    keywords = draw(st.lists(st.sampled_from(NAMES + ["zz"]), unique=True, max_size=4))
    fn = _function(arity, defaults, keyword_only)
    return fn, args, {name: -index for index, name in enumerate(keywords)}


def _outcome(bind):
    try:
        return ("binds", bind())
    except TypeError as error:
        return ("raises", type(error), str(error))


class TestBindEqualsInspect:
    @settings(max_examples=500, deadline=None)
    @given(calls())
    def test_same_arguments_same_order_or_same_error(self, call):
        fn, args, kwargs = call
        definition = TaskDefinition(fn)
        signature = inspect.signature(fn)

        def reference():
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return tuple(bound.arguments.values()), (bound.args, bound.kwargs)

        def bind():
            payload = definition.bind(args, kwargs)
            return payload, definition.split(payload)

        assert _outcome(bind) == _outcome(reference)

    def test_positional_call_skips_inspect_and_still_matches(self):
        definition = TaskDefinition(lambda a, b=2: None)
        args = (7, 8)
        assert definition.bind(args, {}) is args  # the caller's tuple, kept
        assert definition.bind([7, 8], {}) == args
        assert definition.bind((7,), {}) == (7, 2)
        assert definition.split(args) == ((7, 8), {})

    def test_keyword_only_parameters_bind_and_split_by_name(self):
        definition = TaskDefinition(lambda a, *, b=2: None)
        assert definition.positional == 1
        with pytest.raises(TypeError):
            definition.bind((7, 8), {})  # no positional fast path past a *
        payload = definition.bind((7,), {"b": 8})
        assert payload == (7, 8)
        assert definition.split(payload) == ((7,), {"b": 8})


class TestPlan:
    def test_plan_lists_every_parameter_in_signature_order(self):
        definition = TaskDefinition(
            lambda x, acc, y=0: None, param_directions={"acc": INOUT, "y": IN}
        )
        assert definition.param_names == ("x", "acc", "y")
        assert definition.plan == (
            ("x", IN, False),
            ("acc", INOUT, True),
            ("y", IN, True),
        )
        for name, param, _explicit in definition.plan:
            assert definition.direction_of(name) is param

    def test_constraint_after_task_flips_the_cached_is_dynamic(self):
        @task(returns=1)
        def work(size):
            return size

        definition = definition_of(work)
        ap = AccessProcessor()
        assert not definition.is_dynamic
        static = ap.prepare_task(definition, (3,), {}).requirements
        assert static is definition.static_requirements() and static.memory_mb == 0
        constraint(memory_mb=lambda size: size * 10)(work)
        assert definition.is_dynamic
        assert ap.prepare_task(definition, (3,), {}).requirements.memory_mb == 30
        assert ap.prepare_task(definition, (), {"size": 7}).requirements.memory_mb == 70
        constraint(cores=2)(work)
        assert not definition.is_dynamic
        assert ap.prepare_task(definition, (3,), {}).requirements.cores == 2


@pytest.mark.parametrize(
    "member, is_file, reads, writes",
    [
        (Direction.IN, False, True, False),
        (Direction.OUT, False, False, True),
        (Direction.INOUT, False, True, True),
        (Direction.FILE_IN, True, True, False),
        (Direction.FILE_OUT, True, False, True),
        (Direction.FILE_INOUT, True, True, True),
    ],
)
def test_direction_flags_keep_their_truth_table(member, is_file, reads, writes):
    assert (member.is_file, member.reads, member.writes) == (is_file, reads, writes)
    assert Direction(member.value) is member
    assert len(Direction) == 6
