"""Fleet-scale continuum churn: ~50k agents under sustained failure/recovery.

The paper's mF2C scenario (§VI-B) assumes a compute continuum of tens of
thousands of edge devices that join, fail, and migrate constantly.  This
workload models that churn directly:

* **arrival/departure processes** — every zone kills and spawns a seeded
  fraction of its worker fleet per second (``churn_per_s``), with
  fractional-quota debt so low rates still churn;
* **correlated zone outages** — at ``outage_at_s`` a configurable fraction
  of one zone dies in a single tick (the flash-outage stressor);
* **flash crowds** — each zone's orchestrator periodically submits a
  two-layer produce/consume application offloaded over churning peers, so
  deaths hit in-flight tasks and produced data, exercising requeue,
  persistence recovery, and application failure;
* **recovery storms** — every death re-homes the dead node's persisted
  objects to the zone store in one :meth:`DataLocationService.rehome_node`
  pass (O(data held), not one round-trip per datum).

Each zone driver draws its victims and peers from the bus's live set for
its zone (:meth:`MessageBus.alive_in_zone`), less the orchestrator: the
driver is the only thing that changes a churn zone's membership, so there
is no second copy to keep in step.  A tick, a crowd and an outage each cost
one copy of that set plus their seeded draws.

Two execution shapes share one per-zone driver:

* **fleet mode** (:func:`run_churn_fleet`) — one shared bus over a
  multi-zone platform on one :class:`SimulationEngine` (one bus is one
  timeline).  This is the 50k-agent benchmark path, and where the
  ``interest`` vs ``broadcast`` notification models are compared
  like-for-like.
* **decomposed mode** (:func:`run_churn`) — ``{zone: factory}`` programs
  (one platform+bus per zone, epoch digests exchanged on a cross-zone
  ring), runnable on all three zone-program drivers including forked
  lanes, byte-identical across them.

Importing this module loads the fleet half only: the decomposed half imports
the zone-program scaffold (:mod:`repro.workloads.zonal`, hence the window
drivers) inside the functions that run it, so a fleet run never loads a
window driver or :mod:`multiprocessing`.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.agents.agent import Agent
from repro.agents.bus import MessageBus
from repro.agents.offloading import AlwaysOffload
from repro.executor.workflow_builder import SimWorkflowBuilder
from repro.infrastructure.network import Link, NetworkTopology
from repro.infrastructure.platform import Platform
from repro.infrastructure.resources import Node, NodeKind, PowerProfile
from repro.scheduling.locations import DataLocationService
from repro.simulation.engine import SimulationEngine
from repro.simulation.random import DeterministicRandom
from repro.workloads.zones import zone_name

#: One shared power model for the whole worker fleet (50k per-node profile
#: objects would be pure overhead).
_WORKER_POWER = PowerProfile(idle_watts=2.0, busy_watts_per_core=3.0)
_SERVER_POWER = PowerProfile(idle_watts=80.0, busy_watts_per_core=8.0)


@dataclass(frozen=True)
class ChurnConfig:
    """One churn campaign over a zoned continuum fleet."""

    #: Total worker agents across all zones.
    agents: int = 2000
    zones: int = 4
    #: Fraction of the live fleet that dies — and arrives — per second.
    churn_per_s: float = 0.01
    duration_s: float = 20.0
    tick_s: float = 1.0
    #: Flash-crowd size scales with the fleet (tasks per crowd per 1000
    #: zone agents, floor 4) so useful work grows with fleet size and
    #: per-event cost is comparable across scales.
    crowd_tasks_per_k: float = 10.0
    crowd_interval_s: float = 5.0
    task_duration_s: float = 0.2
    peers_per_crowd: int = 8
    #: Fraction of each tick's deaths drawn from the zone's *active* crowd
    #: peers (busy devices fail more: battery drain, heat).  This is what
    #: makes churn collide with in-flight tasks and produced data — the
    #: requeue / persistence-recovery / app-failure paths — instead of
    #: only ever hitting idle bystanders.
    peer_death_bias: float = 0.3
    datum_bytes: float = 1e4
    #: Correlated outage: at this time, ``outage_fraction`` of
    #: ``outage_zone`` dies at once (None disables it).
    outage_at_s: Optional[float] = None
    outage_zone: int = 0
    outage_fraction: float = 0.5
    #: WAN latency between zones — the lookahead horizon in decomposed mode.
    inter_zone_latency_s: float = 1.0
    #: Cross-zone epoch-digest ring period (decomposed mode).
    digest_interval_s: float = 5.0
    persistence: bool = True
    notification: str = "interest"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.notification not in ("interest", "broadcast"):
            raise ValueError(
                f"unknown notification model {self.notification!r} (interest, broadcast)"
            )
        if not 0.0 <= self.outage_fraction <= 1.0:
            raise ValueError(f"outage_fraction must be in [0, 1], got {self.outage_fraction!r}")


def _crowd_tasks(cfg: ChurnConfig, zone_agents: int) -> int:
    return max(4, int(cfg.crowd_tasks_per_k * zone_agents / 1000.0))


def zone_agent_count(cfg: ChurnConfig, index: int) -> int:
    """Workers initially assigned to zone ``index`` (remainder to zone 0)."""
    base = cfg.agents // cfg.zones
    return base + (cfg.agents % cfg.zones if index == 0 else 0)


def _worker_node(name: str) -> Node:
    return Node(
        name=name,
        kind=NodeKind.FOG,
        cores=4,
        memory_mb=4_000,
        speed_factor=0.5,
        power=_WORKER_POWER,
    )


def _server_node(name: str, cores: int = 8) -> Node:
    return Node(
        name=name,
        kind=NodeKind.CLOUD,
        cores=cores,
        memory_mb=32_000,
        speed_factor=1.0,
        power=_SERVER_POWER,
    )


class _ZoneChurnDriver:
    """One zone's churn process: fleet, orchestrator, ticks, crowds.

    The same driver runs in fleet mode (shared platform/bus/engine) and in
    decomposed mode (zone-local platform/bus over a ``ShardApi``) — every
    engine interaction goes through the ``engine`` facade it was given.
    """

    def __init__(
        self,
        cfg: ChurnConfig,
        index: int,
        platform: Platform,
        bus: MessageBus,
        engine: Any,
    ) -> None:
        self.cfg = cfg
        self.index = index
        self.zone = zone_name(index)
        self.platform = platform
        self.bus = bus
        self.engine = engine
        self.rng = DeterministicRandom(cfg.seed, "churn").fork(f"zone:{index}")
        self.locations = DataLocationService()
        self.store_node = f"{self.zone}-store"
        self.orch_name = f"{self.zone}-orch"

        self._death_debt = 0.0
        self._arrival_debt = 0.0
        self._next_arrival = 0
        self._app_seq = 0
        self._recovered_seen = 0
        self._outage_done = cfg.outage_at_s is None or index != cfg.outage_zone

        # Outcome counters (all seed-deterministic).
        self.deaths = 0
        self.arrivals = 0
        self.outage_killed = 0
        self.apps_completed = 0
        self.apps_failed = 0
        self.crowds_skipped = 0
        self.tasks_done = 0
        self.tasks_recovered = 0
        self.tasks_lost = 0
        self.data_rehomed = 0

        self._build_zone()

    # ------------------------------------------------------------- topology

    def _build_zone(self) -> None:
        cfg = self.cfg
        store = self.store_node if cfg.persistence else None
        self.platform.add_node(_server_node(f"{self.zone}-orch-node"), zone=self.zone)
        if cfg.persistence:
            self.platform.add_node(_server_node(self.store_node), zone=self.zone)
        self.orch = Agent(
            self.orch_name,
            f"{self.zone}-orch-node",
            self.bus,
            persistence_store_node=store,
        )
        for i in range(zone_agent_count(cfg, self.index)):
            name = f"{self.zone}-w{i}"
            self.platform.add_node(_worker_node(name), zone=self.zone)
            Agent(name, name, self.bus, persistence_store_node=store)

    def _workers(self) -> List[str]:
        """The zone's live workers in registration order: the bus's live set
        less the orchestrator, which registered first and is never killed."""
        workers = list(self.bus.alive_in_zone(self.zone))
        workers.remove(self.orch_name)
        return workers

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        cfg = self.cfg
        self.engine.after(cfg.tick_s, self._tick)
        self.engine.after(cfg.crowd_interval_s, self._crowd)

    # ----------------------------------------------------------- churn tick

    def _tick(self) -> None:
        cfg = self.cfg
        now = self.engine.now
        snapshot = self._workers()
        quota = cfg.churn_per_s * len(snapshot) * cfg.tick_s
        self._death_debt += quota
        kills = int(self._death_debt)
        self._death_debt -= kills
        if kills:
            orch = self.orch
            for _ in range(kills):
                if (
                    self.rng.random() < cfg.peer_death_bias
                    and orch.graph is not None
                    and not orch.graph.finished
                    and (peers := orch.peer_names())
                ):
                    victim = self.rng.choice(peers)
                elif snapshot:
                    # Swap-remove keeps victim picking O(1) per death no
                    # matter how wide the zone is.
                    i = self.rng.randint(0, len(snapshot) - 1)
                    victim = snapshot[i]
                    snapshot[i] = snapshot[-1]
                    snapshot.pop()
                else:
                    break
                self._kill_worker(victim)
        self._arrival_debt += quota
        births = int(self._arrival_debt)
        self._arrival_debt -= births
        for _ in range(births):
            self._spawn_worker()
        if not self._outage_done and now >= (cfg.outage_at_s or 0.0):
            self._outage_done = True
            self._correlated_outage()
        if now + cfg.tick_s <= cfg.duration_s + 1e-9:
            self.engine.after(cfg.tick_s, self._tick)

    def _kill_worker(self, victim: str) -> None:
        if not self.bus.is_alive(victim):
            return
        node = self.bus.agent(victim).node_name
        self.bus.kill_now(victim)
        self.deaths += 1
        # Recovery storm: every persisted object the dead node held re-homes
        # to the zone store in one batched pass.
        self.data_rehomed += self.locations.rehome_node(node, self.store_node)

    def _spawn_worker(self) -> None:
        name = f"{self.zone}-n{self._next_arrival}"
        self._next_arrival += 1
        self.platform.add_node(_worker_node(name), zone=self.zone)
        Agent(
            name,
            name,
            self.bus,
            persistence_store_node=self.store_node if self.cfg.persistence else None,
        )
        self.arrivals += 1

    def _correlated_outage(self) -> None:
        pool = self._workers()
        for victim in self.rng.sample(pool, int(len(pool) * self.cfg.outage_fraction)):
            self._kill_worker(victim)
            self.outage_killed += 1

    # ---------------------------------------------------------- flash crowds

    def _crowd(self) -> None:
        cfg = self.cfg
        orch = self.orch
        if orch.graph is not None:
            if orch.graph.finished or orch.app_failed:
                self._harvest()
            else:
                self.crowds_skipped += 1
                self._schedule_next_crowd()
                return
        pool = self._workers()
        if pool:
            peers = self.rng.sample(pool, min(cfg.peers_per_crowd, len(pool)))
            builder = self._build_crowd_graph(len(pool))
            orch.start_application(
                builder.graph, policy=AlwaysOffload(), peers=peers
            )
        self._schedule_next_crowd()

    def _schedule_next_crowd(self) -> None:
        cfg = self.cfg
        if self.engine.now + cfg.crowd_interval_s <= cfg.duration_s + 1e-9:
            self.engine.after(cfg.crowd_interval_s, self._crowd)

    def _build_crowd_graph(self, zone_agents: int) -> SimWorkflowBuilder:
        cfg = self.cfg
        app = self._app_seq
        self._app_seq += 1
        tasks = _crowd_tasks(cfg, zone_agents)
        builder = SimWorkflowBuilder()
        # Two layers: producers emit data, consumers read it — so a death
        # between the layers loses data (app failure without persistence,
        # recovery with it), not just in-flight compute.
        for i in range(tasks):
            builder.add_task(
                f"{self.zone}-a{app}-p{i}",
                duration=cfg.task_duration_s,
                outputs={f"{self.zone}-a{app}-o{i}": cfg.datum_bytes},
            )
        for i in range(tasks):
            builder.add_task(
                f"{self.zone}-a{app}-c{i}",
                duration=cfg.task_duration_s,
                inputs=[f"{self.zone}-a{app}-o{i}"],
            )
        return builder

    def _harvest(self) -> None:
        """Account a finished/failed application and reset the orchestrator."""
        orch = self.orch
        graph = orch.graph
        assert graph is not None
        done = graph.completed_count
        self.tasks_done += done
        recovered = orch.tasks_recovered - self._recovered_seen
        self._recovered_seen = orch.tasks_recovered
        self.tasks_recovered += recovered
        if orch.app_failed:
            self.apps_failed += 1
            self.tasks_lost += graph.task_count - done
        else:
            self.apps_completed += 1
        # Publish completed outputs into the persisted-object catalogue at
        # their current home (the store stands in for homes that died) so
        # later deaths trigger real re-homing storms.
        for datum, home, size in orch.homed_data():
            if self.bus.is_alive(home):
                node = self.bus.agent(home).node_name
            else:
                node = self.store_node
            self.locations.publish(datum, node, size_bytes=size)
        orch.reset_orchestration()
        orch.forget_data()

    # --------------------------------------------------------------- results

    def finalize(self) -> None:
        """Harvest any application still open at quiescence."""
        if self.orch.graph is not None and (
            self.orch.graph.finished or self.orch.app_failed
        ):
            self._harvest()

    def result(self) -> Dict[str, Any]:
        recovered, lost = self.tasks_recovered, self.tasks_lost
        fields = {
            "zone": self.zone,
            "deaths": self.deaths,
            "arrivals": self.arrivals,
            "outage_killed": self.outage_killed,
            "apps_completed": self.apps_completed,
            "apps_failed": self.apps_failed,
            "crowds_skipped": self.crowds_skipped,
            "tasks_done": self.tasks_done,
            "tasks_recovered": recovered,
            "tasks_lost": lost,
            "data_rehomed": self.data_rehomed,
            # The live set less the orchestrator, counted without a copy.
            "alive_workers": len(self.bus.alive_in_zone(self.zone)) - 1,
            "final_epoch": self.bus.membership_epoch(self.zone),
            "recovered_work_fraction": recovered / max(1, recovered + lost),
        }
        fields["outcome_crc32"] = zlib.crc32(
            pickle.dumps(sorted(fields.items()))
        )
        return fields


#: Per-zone counters a campaign result sums over its zones.
_SUMMED = (
    "deaths",
    "arrivals",
    "apps_completed",
    "apps_failed",
    "tasks_done",
    "tasks_recovered",
    "tasks_lost",
    "data_rehomed",
)


def _campaign_totals(
    cfg: ChurnConfig, mode: str, notification: str, per_zone: Dict[str, Any]
) -> Dict[str, Any]:
    """The campaign-level fields both modes report from their zone results."""
    totals = {key: sum(z[key] for z in per_zone.values()) for key in _SUMMED}
    recovered, lost = totals["tasks_recovered"], totals["tasks_lost"]
    return {
        "workload": "churn",
        "mode": mode,
        "notification": notification,
        "agents": cfg.agents,
        "zones": cfg.zones,
        "churn_per_s": cfg.churn_per_s,
        "duration_s": cfg.duration_s,
        **totals,
        "recovered_work_fraction": recovered / max(1, recovered + lost),
        "per_zone": per_zone,
    }


# --------------------------------------------------------------- fleet mode


def make_continuum_platform(cfg: ChurnConfig) -> Platform:
    """One shared multi-zone platform (fleet mode): WiFi-class zones over a
    WAN whose latency is the inter-zone floor."""
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=2e-3, bandwidth_bps=100e6 / 8),
        default_link=Link(latency_s=cfg.inter_zone_latency_s, bandwidth_bps=1e9 / 8),
    )
    return Platform(name="continuum", network=network)


def start_churn_fleet(
    cfg: ChurnConfig, notification: Optional[str] = None
) -> Tuple[SimulationEngine, MessageBus, List[_ZoneChurnDriver]]:
    """Build the fleet on one bus and schedule its drivers, without running.

    :func:`run_churn_fleet` runs the engine to quiescence; a caller that
    wants to look at the fleet mid-campaign steps it with
    ``engine.run(until=t)`` instead (the churn soak does).
    """
    platform = make_continuum_platform(cfg)
    eng = SimulationEngine()
    bus = MessageBus(platform, eng, notification=notification or cfg.notification)
    drivers = [
        _ZoneChurnDriver(cfg, index, platform, bus, eng)
        for index in range(cfg.zones)
    ]
    for driver in drivers:
        driver.start()
    return eng, bus, drivers


def run_churn_fleet(
    cfg: ChurnConfig,
    engine: str = "single",
    notification: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the whole fleet on ONE bus: the 50k-agent benchmark path.

    ``engine`` can only be ``single``: one bus is one timeline, and the
    zone-program drivers need the decomposed :func:`run_churn`.
    ``notification`` overrides the config's model — ``broadcast`` is the
    pre-optimization reference.
    """
    if engine != "single":
        raise ValueError(
            f"fleet mode runs on one 'single' timeline (got {engine!r}); "
            "the zone-program drivers need the decomposed run_churn()"
        )
    eng, bus, drivers = start_churn_fleet(cfg, notification)
    eng.run()
    for driver in drivers:
        driver.finalize()
    per_zone = {driver.zone: driver.result() for driver in drivers}
    events = eng.dispatched_events
    return {
        **_campaign_totals(cfg, "fleet", bus.notification, per_zone),
        "engine": engine,
        "events": events,
        "down_notices": bus.down_notices,
        "useful_events": events - bus.down_notices,
        "messages_sent": bus.messages_sent,
        "dropped": bus.dropped_count,
        "alive_agents": bus.alive_count,
    }


# ---------------------------------------------------------- decomposed mode


def _zone_platform(cfg: ChurnConfig, index: int) -> Platform:
    network = NetworkTopology(
        intra_zone_link=Link(latency_s=2e-3, bandwidth_bps=100e6 / 8),
        default_link=Link(latency_s=2e-3, bandwidth_bps=100e6 / 8),
    )
    return Platform(name=f"continuum-{zone_name(index)}", network=network)


def _churn_zone_program(cfg: ChurnConfig, index: int, api):
    """One zone's program: local fleet + churn driver + epoch-digest ring."""
    from repro.workloads.zonal import start_ring_report

    zone = zone_name(index)
    platform = _zone_platform(cfg, index)
    bus = MessageBus(platform, api, notification=cfg.notification)
    driver = _ZoneChurnDriver(cfg, index, platform, bus, api)
    driver.start()

    def digest() -> Dict[str, Any]:
        # The zone's membership digest crosses the WAN: what a remote
        # observer would reconcile against instead of a full sync.
        epoch = bus.membership_epoch(zone)
        crc = zlib.crc32(pickle.dumps((zone, epoch, driver.deaths, driver.arrivals)))
        return {"epoch": epoch, "crc": crc}

    start_ring_report(
        api,
        cfg,
        index,
        cfg.digest_interval_s,
        ("peer-epoch", "epoch-digest"),
        digest,
        lambda: api.now + cfg.digest_interval_s <= cfg.duration_s + 1e-9,
    )

    def result() -> Dict[str, Any]:
        driver.finalize()
        out = driver.result()
        out["events"] = api.dispatched_events
        out["down_notices"] = bus.down_notices
        out["dropped"] = bus.dropped_count
        return out

    return result


def make_churn_programs(cfg: ChurnConfig) -> Dict[str, Any]:
    """``{zone: factory}`` churn programs for the sharded/parallel engines."""
    from repro.workloads.zonal import zone_programs

    return zone_programs(cfg, _churn_zone_program)


def run_churn(
    cfg: ChurnConfig, engine: str = "single", workers: int = 2
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the decomposed campaign on the chosen engine: (result, stats).

    Same programs on ``single`` (inline lane), ``sharded`` (sequential
    lookahead reference), or ``parallel`` (forked lanes) — byte-identical
    deterministic results on all three.
    """
    from repro.workloads.zonal import run_campaign

    ordered, dispatched, stats = run_campaign(
        cfg, make_churn_programs(cfg), engine, workers
    )
    result = {
        **_campaign_totals(cfg, "decomposed", cfg.notification, ordered),
        "events": dispatched,
        "down_notices": sum(z["down_notices"] for z in ordered.values()),
    }
    return result, stats
