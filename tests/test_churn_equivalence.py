"""Equivalence properties for the churn agent plane (E16).

Two substitutions PR 9 made must be invisible to outcomes:

1. **Interest-scoped vs broadcast failure notification** — the bus's
   interest sets (message-derived + ``watch``) must notify every agent
   that would *act* on a death, so orchestration outcomes (tasks done,
   recovered, lost, apps failed, data re-homed — the per-zone
   ``outcome_crc32`` folds them all) are identical to the perfect
   broadcast detector's, while the notice volume collapses from
   O(agents) to O(interest) per death.

2. **Driver choice** — the decomposed campaign is byte-identical across
   the single inline lane, the sequential lookahead reference and forked
   lanes (fleet mode is one bus, hence one timeline).

Hypothesis drives fleet shape, churn intensity, outages, persistence and
seed; example counts stay small because every example runs 2-4 full
simulations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import ChurnConfig, run_churn, run_churn_fleet

#: Result keys allowed to differ between notification models: the whole
#: point is that interest mode dispatches fewer notices (and therefore
#: fewer events — and fewer *dropped* deliveries, since a notice aimed at
#: an agent that itself dies inside the detection window is dropped, and
#: broadcast aims notices at everyone); everything the application can
#: observe must match.
_NOTIFICATION_KEYS = (
    "notification", "events", "down_notices", "useful_events", "dropped",
)


def _configs(**overrides):
    params = dict(
        agents=st.integers(min_value=60, max_value=240),
        zones=st.integers(min_value=1, max_value=3),
        churn_per_s=st.sampled_from([0.01, 0.03, 0.06]),
        outage=st.booleans(),
        persistence=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    params.update(overrides)
    return st.fixed_dictionaries(params)


def _build(params) -> ChurnConfig:
    return ChurnConfig(
        agents=params["agents"],
        zones=params["zones"],
        churn_per_s=params["churn_per_s"],
        duration_s=12.0,
        task_duration_s=1.0,
        outage_at_s=6.0 if params["outage"] else None,
        persistence=params["persistence"],
        seed=params["seed"],
    )


def _observable(result: dict) -> dict:
    out = {k: v for k, v in result.items() if k not in _NOTIFICATION_KEYS}
    out.pop("per_zone", None)
    return out


class TestNotificationModelEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(params=_configs())
    def test_interest_matches_broadcast_outcomes(self, params):
        cfg = _build(params)
        interest = run_churn_fleet(cfg, notification="interest")
        broadcast = run_churn_fleet(cfg, notification="broadcast")
        # Every orchestration outcome matches, zone by zone (the crc32
        # folds all per-zone counters, membership epochs included).
        for zone, zrec in interest["per_zone"].items():
            assert zrec == broadcast["per_zone"][zone]
        assert _observable(interest) == _observable(broadcast)
        # And the substitution actually pays: interest never schedules
        # more notices than broadcast (strictly fewer once a death has
        # any bystanders).
        assert interest["down_notices"] <= broadcast["down_notices"]
        if interest["deaths"] and cfg.agents >= 100:
            assert interest["down_notices"] < broadcast["down_notices"]


class TestEngineEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(params=_configs(zones=st.integers(min_value=2, max_value=3)))
    def test_decomposed_single_vs_sharded_vs_parallel(self, params):
        cfg = _build(params)
        single, _ = run_churn(cfg, engine="single")
        sharded, _ = run_churn(cfg, engine="sharded")
        parallel, _ = run_churn(cfg, engine="parallel", workers=cfg.zones)
        assert sharded == single
        assert parallel == single
