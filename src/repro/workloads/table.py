"""The workload table: one record per workload, read by every front door.

``repro simulate`` / ``analyze`` / ``timeline`` and a ``repro sweep``
scenario resolve a workload *name* to a :class:`Workload` record and do the
rest as a function of the record; nothing outside this file and the
workload's own module knows a workload by name.  A record names the config
dataclass and its **options**, ``{option: config field}`` — the option *is*
the scenario key *and* the flag (``"inter_zone_latency"`` ↔
``--inter-zone-latency``), its type and default are the config field's, so
there is one spelling and one set of defaults; how the workload executes —
``build(cfg)`` for a static graph on one timeline, ``run(cfg, engine,
workers)`` for zone programs any window driver can replay, ``fleet(cfg)``
where those also have a one-timeline twin; and the ``summary`` lines
``simulate`` prints for a zone-program result.

Kept import-light (no ``argparse``, no engine or compiler import): every
``import repro.workloads`` pays for it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.workloads.churn import ChurnConfig, run_churn, run_churn_fleet
from repro.workloads.guidance import GuidanceConfig, build_guidance_workflow
from repro.workloads.hybrid_stream import HybridStreamConfig, run_hybrid_stream
from repro.workloads.nmmb import NmmbConfig, build_nmmb_workflow
from repro.workloads.synthetic import (
    SyntheticConfig,
    embarrassingly_parallel,
    task_chain,
)
from repro.workloads.zonal import ZonalConfig, run_zonal


class WorkloadError(ValueError):
    """Front-door input that names no runnable configuration; the message is
    the whole report (the CLI prints it as ``repro <command>: <message>``)."""


def configure(config: type, options: Mapping[str, str], source: Mapping, label: str, **values):
    """A ``config`` instance from what ``source`` (a scenario dict, or the
    flags of a command line) sets: each of ``options`` (``{key: field}``)
    present and not None, cast to the type of its field's default — what both
    doors do to a flag's string and a scenario's JSON value.  ``values`` are
    fields the caller fixes; every other field keeps the config's default."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(config)}
    for option, name in options.items():
        value, kind = source.get(option), kinds[name]
        if value is None:
            continue
        try:
            if kind is bool and isinstance(value, str):  # bool("false") is True
                value = {"true": True, "false": False}[value.lower()]
            values[name] = kind(value)
        except (KeyError, TypeError, ValueError):
            raise WorkloadError(
                f"{label} option {option!r}: {value!r} is not of type {kind.__name__}"
            ) from None
    try:
        return config(**values)
    except ValueError as err:
        raise WorkloadError(f"{label}: {err}") from None


@dataclass(frozen=True)
class Workload:
    """One workload, as the front doors see it (module docstring)."""

    name: str
    config: type
    #: ``{option: config field}``; scenario key, flag and option are one word.
    options: Mapping[str, str]
    #: Static graph: ``cfg -> builder`` (``.graph``, ``.initial_data``).
    build: Optional[Callable[[Any], Any]] = None
    #: Zone programs: ``(cfg, engine, workers) -> (result, stats)``.
    run: Optional[Callable[..., Tuple[Dict[str, Any], Dict[str, Any]]]] = None
    #: The one-timeline twin of ``run``, ``cfg -> result``.
    fleet: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: ``(result, engine) -> lines`` of ``simulate``'s report.
    summary: Optional[Callable[[Dict[str, Any], str], List[str]]] = None

    @property
    def seeded(self) -> bool:
        """Whether the config has a ``seed`` field: ``--seed`` exists, and the
        sweep's derived seed lands, exactly then."""
        return any(f.name == "seed" for f in dataclasses.fields(self.config))

    def configure(self, source: Mapping[str, Any], seed: Optional[int] = None):
        """The workload's config as ``source`` sets it (:func:`configure`);
        ``seed`` replaces the config's own where it has one."""
        values = {"seed": seed} if seed is not None and self.seeded else {}
        return configure(self.config, self.options, source, self.name, **values)

    def as_zone_programs(self, cfg: Any, engine: str, mode: str = "fleet") -> bool:
        """Whether this run is zone programs on a window driver (else it is
        one timeline); refuses the combinations that are neither.  A static
        graph's central scheduler reacts to any completion instantly, so its
        inter-zone lookahead is zero: one timeline, ``single`` only.  A
        ``fleet`` twin runs on ``single`` unless the scenario says ``mode:
        decomposed``.  Window drivers synchronise at least two zones."""
        if self.run is None:
            if engine != "single":
                raise WorkloadError(
                    f"--engine {engine} needs a zone-decomposed workload "
                    f"({self.name}'s central scheduler has zero inter-zone "
                    f"lookahead): {', '.join(n for n, w in WORKLOADS.items() if w.run)}"
                )
            return False
        if self.fleet is not None and engine == "single" and mode == "fleet":
            return False
        if cfg.zones < 2:
            raise WorkloadError(
                f"{self.name}: zones must be >= 2 to run as zone programs, "
                f"not {cfg.zones} (window drivers synchronise at least two zones)"
            )
        return True


def _options(*same: str, **renamed: str) -> Dict[str, str]:
    """``{option: config field}``: ``same`` are spelled like their field."""
    return {**{name: name for name in same}, **renamed}


def _zonal_summary(result: Dict[str, Any], engine: str) -> List[str]:
    return [
        f"workload : zonal ({result['zones']} zones, {result['tasks_done']} tasks)",
        f"makespan : {result['makespan_s']:.1f} s",
        f"moved    : {result['bytes_transferred'] / 1e9:.2f} GB",
        f"engine   : {engine}",
        f"events   : {result['events']} dispatched",
    ]


def _hybrid_stream_summary(result: Dict[str, Any], engine: str) -> List[str]:
    return [
        f"workload : hybrid_stream ({result['sensors']} sensors, "
        f"{result['zones']} zones @ {result['rate_hz']:g} Hz)",
        f"streams  : {result['stream_events']} events ingested "
        f"(batch {result['batch']}), {result['stream_dropped']} dropped, "
        f"{result['stream_spilled']} spilled ({result['overflow']} policy, "
        f"{result['credits']} credits)",
        f"windows  : {result['windows_closed']} closed -> "
        f"{result['tasks_lowered']} tasks lowered "
        f"({result['batch_tasks']} batch stages), "
        f"{result['tasks_done']} done",
        f"latency  : {result['mean_latency_s'] * 1e3:.1f} ms mean, "
        f"{result['max_latency_s'] * 1e3:.1f} ms max after window close",
        f"memory   : {result['retained_high_water']} elements retained "
        f"high-water (watermark pruning)",
        f"engine   : {engine}",
        f"events   : {result['events']} dispatched",
    ]


def _churn_summary(result: Dict[str, Any], engine: str) -> List[str]:
    return [
        f"workload : churn ({result['mode']}, {result['agents']} agents, "
        f"{result['zones']} zones)",
        f"churn    : {result['deaths']} deaths, {result['arrivals']} arrivals "
        f"@ {result['churn_per_s'] * 100:.1f}%/s over {result['duration_s']:.0f} s",
        f"apps     : {result['apps_completed']} completed, "
        f"{result['apps_failed']} failed ({result['tasks_done']} tasks)",
        f"recovery : {result['tasks_recovered']} tasks requeued, "
        f"{result['tasks_lost']} lost, {result['data_rehomed']} objects "
        f"re-homed (recovered-work fraction "
        f"{result['recovered_work_fraction']:.2f})",
        f"engine   : {engine}",
        f"events   : {result['events']} dispatched, "
        f"{result['down_notices']} failure notices "
        f"({result['notification']} notification)",
    ]


#: Every workload the front doors know, in the order ``repro info`` lists them.
WORKLOADS: Dict[str, Workload] = {
    record.name: record
    for record in (
        Workload(
            "guidance",
            GuidanceConfig,
            _options("chromosomes", chunks="chunks_per_chromosome"),
            build=build_guidance_workflow,
        ),
        Workload("nmmb", NmmbConfig, _options("days"), build=build_nmmb_workflow),
        Workload(
            "ep",
            SyntheticConfig,
            _options("tasks", "duration"),
            build=lambda cfg: embarrassingly_parallel(cfg.tasks, duration=cfg.duration),
        ),
        Workload(
            "chain",
            SyntheticConfig,
            _options("tasks", "duration"),
            build=lambda cfg: task_chain(cfg.tasks, duration=cfg.duration),
        ),
        Workload(
            "zonal",
            ZonalConfig,
            _options(
                "zones", "nodes_per_zone", "cores_per_node", "tasks_per_zone",
                duration_median="duration_median_s",
                inter_zone_latency="inter_zone_latency_s",
                progress_interval="progress_interval_s",
            ),
            run=run_zonal,
            summary=_zonal_summary,
        ),
        Workload(
            "hybrid_stream",
            HybridStreamConfig,
            _options(
                "zones", "rate_hz", "batch", "credits", "overflow",
                sensors="sensors_per_zone",
                window="window_s",
                duration="duration_s",
                inter_zone_latency="inter_zone_latency_s",
            ),
            run=run_hybrid_stream,
            summary=_hybrid_stream_summary,
        ),
        Workload(
            "churn",
            ChurnConfig,
            _options(
                "agents", "zones", "churn_per_s", "notification", "persistence",
                duration="duration_s",
                inter_zone_latency="inter_zone_latency_s",
            ),
            run=run_churn,
            # Fleet churn is one bus, hence one timeline: `single` runs it
            # unless the scenario says `mode: decomposed` (as_zone_programs).
            fleet=run_churn_fleet,
            summary=_churn_summary,
        ),
    )
}

#: The workload a scenario without ``workload`` / a command without
#: ``--workload`` means.
DEFAULT_WORKLOAD = "guidance"

