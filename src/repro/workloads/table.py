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

A record names the workload's module and what that module calls its config,
``build``, ``run`` and ``fleet``; reading one of them imports the module the
first time.  So this file imports no workload module (nor ``argparse``, an
engine or the compiler): the CLI loads none until it is asked for one, and
``repro simulate --workload W`` loads W's module alone.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple


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
    #: The module under :mod:`repro.workloads` that defines the workload.
    module: str
    #: ``{option: config field}``; scenario key, flag and option are one word.
    options: Mapping[str, str]
    #: ``{part: name in module}`` for ``config`` and ``build`` or ``run`` (and
    #: ``fleet``), each read through the property of the same name.
    parts: Mapping[str, str]
    #: ``(result, engine) -> lines`` of ``simulate``'s report.
    summary: Optional[Callable[[Dict[str, Any], str], List[str]]] = None

    def _part(self, part: str) -> Any:
        """``part`` of the workload's module, importing it on first use."""
        if part not in self.parts:
            return None
        module = importlib.import_module(f"repro.workloads.{self.module}")
        return getattr(module, self.parts[part])

    @property
    def config(self) -> type:
        """The config dataclass."""
        return self._part("config")

    @property
    def build(self) -> Optional[Callable[[Any], Any]]:
        """Static graph: ``cfg -> builder`` (``.graph``, ``.initial_data``)."""
        return self._part("build")

    @property
    def run(self) -> Optional[Callable[..., Tuple[Dict[str, Any], Dict[str, Any]]]]:
        """Zone programs: ``(cfg, engine, workers) -> (result, stats)``."""
        return self._part("run")

    @property
    def fleet(self) -> Optional[Callable[[Any], Dict[str, Any]]]:
        """The one-timeline twin of ``run``, ``cfg -> result``."""
        return self._part("fleet")

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
        if "run" not in self.parts:
            if engine != "single":
                zoned = ", ".join(n for n, w in WORKLOADS.items() if "run" in w.parts)
                raise WorkloadError(
                    f"--engine {engine} needs a zone-decomposed workload "
                    f"({self.name}'s central scheduler has zero inter-zone "
                    f"lookahead): {zoned}"
                )
            return False
        if "fleet" in self.parts and engine == "single" and mode == "fleet":
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
            "guidance",
            _options("chromosomes", chunks="chunks_per_chromosome"),
            dict(config="GuidanceConfig", build="build_guidance_workflow"),
        ),
        Workload(
            "nmmb",
            "nmmb",
            _options("days"),
            dict(config="NmmbConfig", build="build_nmmb_workflow"),
        ),
        Workload(
            "ep",
            "synthetic",
            _options("tasks", "duration"),
            dict(config="SyntheticConfig", build="build_ep"),
        ),
        Workload(
            "chain",
            "synthetic",
            _options("tasks", "duration"),
            dict(config="SyntheticConfig", build="build_chain"),
        ),
        Workload(
            "zonal",
            "zonal",
            _options(
                "zones", "nodes_per_zone", "cores_per_node", "tasks_per_zone",
                duration_median="duration_median_s",
                inter_zone_latency="inter_zone_latency_s",
                progress_interval="progress_interval_s",
            ),
            dict(config="ZonalConfig", run="run_zonal"),
            summary=_zonal_summary,
        ),
        Workload(
            "hybrid_stream",
            "hybrid_stream",
            _options(
                "zones", "rate_hz", "batch", "credits", "overflow",
                sensors="sensors_per_zone",
                window="window_s",
                duration="duration_s",
                inter_zone_latency="inter_zone_latency_s",
            ),
            dict(config="HybridStreamConfig", run="run_hybrid_stream"),
            summary=_hybrid_stream_summary,
        ),
        Workload(
            "churn",
            "churn",
            _options(
                "agents", "zones", "churn_per_s", "notification", "persistence",
                duration="duration_s",
                inter_zone_latency="inter_zone_latency_s",
            ),
            # Fleet churn is one bus, hence one timeline: `single` runs it
            # unless the scenario says `mode: decomposed` (as_zone_programs).
            dict(config="ChurnConfig", run="run_churn", fleet="run_churn_fleet"),
            summary=_churn_summary,
        ),
    )
}

#: The workload a scenario without ``workload`` / a command without
#: ``--workload`` means.
DEFAULT_WORKLOAD = "guidance"

