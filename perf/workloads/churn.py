"""Fleet churn on one message bus: the agents plane under continuous failure.

``run_churn_fleet`` at 1%/s churn: ``agents.bus`` / ``agents.agent``,
``infrastructure.platform`` and ``DataLocationService.rehome_node`` do the
work.  The campaign is long relative to the fleet so event handling, not
fleet construction, dominates; the traced run splits the two.
"""

from repro.workloads import ChurnConfig, run_churn_fleet

ZONES = 4
CHURN_PER_S = 0.01


def setup(seed, size):
    return {
        "config": ChurnConfig(
            agents=size["agents"],
            zones=ZONES,
            churn_per_s=CHURN_PER_S,
            duration_s=size["duration_s"],
            seed=seed,
        )
    }


def run(state, phase):
    with phase("run"):
        return run_churn_fleet(state["config"], engine="single")


def check(state, out, seconds):
    attempted = out["tasks_done"] + out["tasks_lost"]
    deaths = out["deaths"]
    return {
        "ops": out["useful_events"],
        "attempted": attempted,
        "failed": out["tasks_lost"] + out["apps_failed"],
        "events": out["events"],
        "agents": state["config"].agents,
        "digest": {key: value for key, value in out.items() if key != "engine"},
        "layers": {
            "agents.bus.notices_per_death": out["down_notices"] / max(1, deaths),
            "agents.bus.dropped": out["dropped"],
        },
    }
