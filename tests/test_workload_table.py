"""One table drives every front door (``repro.workloads.table``).

Parametrised over every record of :data:`repro.workloads.WORKLOADS`, so a new
workload is covered by being registered:

* every option names a real config field whose default carries its type;
* ``simulate`` with no workload flags and the bare scenario build equal
  configs, and so do ``--<option> v`` and ``{"<option>": v}`` — one spelling,
  one set of defaults (the parent ran 4 zones x 20 s from the flag door and
  2 zones x 120 s from the scenario door for ``hybrid_stream``);
* the pre-unification flags are gone: one is an argparse error;
* the shared zone-program scaffold (ring report, outcome rows, campaign
  runner) reproduces the per-zone logs and CRCs recorded from the parent;
* the four provenance / hostile-input defects of E24 stay fixed.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

from repro.simulation import SimulationError
from repro.simulation.parallel import run_programs_sharded
from repro.tools import cli
from repro.workloads import (
    WORKLOADS,
    ChurnConfig,
    HybridStreamConfig,
    WorkloadError,
    ZonalConfig,
    make_churn_programs,
    make_hybrid_stream_programs,
    make_zonal_network,
    make_zone_programs,
)

RECORDS = sorted(WORKLOADS)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: A non-default value for the options an increment cannot produce.
OTHER_VALUE = {"overflow": "drop", "notification": "broadcast"}


def fields_of(record):
    return {f.name: f for f in dataclasses.fields(record.config)}


def non_default(record, option):
    default = fields_of(record)[record.options[option]].default
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default + 1
    return OTHER_VALUE[option]


class Captured(Exception):
    """Carries what ``simulate`` resolved out of ``main`` instead of running it."""


def simulate_resolves(monkeypatch, *argv):
    """``(config, settings)`` that ``repro simulate *argv`` would run."""

    def capture(record, cfg, settings):
        raise Captured(cfg, settings)

    monkeypatch.setattr(cli, "run", capture)
    with pytest.raises(Captured) as caught:
        cli.main(["simulate", *argv], out=io.StringIO())
    return caught.value.args


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", RECORDS)
class TestEveryRecord:
    def test_options_name_typed_config_fields(self, name):
        record = WORKLOADS[name]
        assert record.name == name
        assert (record.build is None) != (record.run is None)
        assert record.fleet is None or record.run is not None
        assert (record.summary is None) == (record.run is None)
        fields = fields_of(record)
        for option, field in record.options.items():
            assert field in fields, f"{name}.{option} -> {field}"
            assert type(fields[field].default) in (int, float, str, bool)

    def test_both_doors_share_the_configs_defaults(self, name, monkeypatch):
        record = WORKLOADS[name]
        cfg, settings = simulate_resolves(monkeypatch, "--workload", name)
        _, scenario_cfg, scenario_settings = cli.resolve({"workload": name})
        assert cfg == scenario_cfg == record.config()
        assert settings == scenario_settings == cli.RunSettings()

    def test_flag_and_key_are_one_word(self, name, monkeypatch):
        record = WORKLOADS[name]
        for option in record.options:
            value = non_default(record, option)
            flag = "--" + option.replace("_", "-")
            cfg, _ = simulate_resolves(monkeypatch, "--workload", name, flag, str(value))
            _, scenario_cfg, _ = cli.resolve({"workload": name, option: value})
            assert cfg == scenario_cfg
            assert getattr(cfg, record.options[option]) == value != getattr(
                record.config(), record.options[option]
            )

    def test_derived_seed_reaches_every_seeded_config(self, name, monkeypatch):
        record = WORKLOADS[name]
        _, cfg, _ = cli.resolve({"workload": name}, seed=1234)
        assert getattr(cfg, "seed", 1234) == 1234
        assert record.seeded == hasattr(cfg, "seed")
        if record.seeded:
            flagged, _ = simulate_resolves(monkeypatch, "--workload", name, "--seed", "1234")
            assert flagged == cfg


def test_info_lists_every_record():
    _, output = run_cli("info")
    assert f"workloads: {', '.join(WORKLOADS)}" in output


def test_simulate_zonal_prints_one_result_on_every_driver():
    """``zonal`` could be swept but not simulated; it is a record now, so it
    can — and the three drivers agree on everything but their own name."""
    reports = set()
    for engine in cli.ENGINES:
        code, output = run_cli(
            "simulate", "--workload", "zonal", "--zones", "2", "--nodes-per-zone", "2",
            "--cores-per-node", "2", "--tasks-per-zone", "30", "--engine", engine,
        )
        assert code == 0 and f"engine   : {engine}" in output
        reports.add(output.replace(f"engine   : {engine}", ""))
    assert len(reports) == 1
    assert "zonal (2 zones, 60 tasks)" in reports.pop()


#: Per-zone ``(logs, outcome_crc32)`` recorded from the parent commit (the
#: three hand-written ring copies) at these sizes.  The zonal entry was
#: re-recorded once, when ``layered_random_dag`` moved from a whole-layer
#: shuffle per task to ``DeterministicRandom.sample``: the same DAG family,
#: another seeded instance.  The churn CRCs were re-based once, when the
#: always-zero ``epoch_resyncs`` field left each zone's result (a tree that
#: puts it back reproduces the old CRCs); its rings, and the hybrid_stream
#: entry, are the original recordings.
PARENT_ZONES = {
    "zonal": (
        ZonalConfig(
            zones=2, nodes_per_zone=2, cores_per_node=2, tasks_per_zone=24,
            progress_interval_s=4.0,
        ),
        make_zone_programs,
        {
            "zone-0": (
                [
                    (5.0, ("peer-progress", "zone-1", 3)),
                    (9.0, ("peer-progress", "zone-1", 6)),
                    (13.0, ("peer-progress", "zone-1", 10)),
                    (17.0, ("peer-progress", "zone-1", 16)),
                    (21.0, ("peer-progress", "zone-1", 23)),
                    (25.0, ("peer-progress", "zone-1", 24)),
                ],
                2597375247,
            ),
            "zone-1": (
                [
                    (5.0, ("peer-progress", "zone-0", 7)),
                    (9.0, ("peer-progress", "zone-0", 13)),
                    (13.0, ("peer-progress", "zone-0", 15)),
                    (17.0, ("peer-progress", "zone-0", 24)),
                ],
                310137997,
            ),
        },
    ),
    "hybrid_stream": (
        HybridStreamConfig(zones=2, sensors_per_zone=2, duration_s=20.0, digest_interval_s=8.0),
        make_hybrid_stream_programs,
        {
            "zone-0": (
                [
                    (8.25, ("peer-digest", "zone-1", 2962654088)),
                    (16.25, ("peer-digest", "zone-1", 2126041002)),
                ],
                2525206104,
            ),
            "zone-1": (
                [
                    (8.25, ("peer-digest", "zone-0", 1599400118)),
                    (16.25, ("peer-digest", "zone-0", 1354468240)),
                ],
                289329431,
            ),
        },
    ),
    "churn": (
        ChurnConfig(agents=60, zones=2, duration_s=6.0, digest_interval_s=2.0),
        make_churn_programs,
        {
            "zone-0": (
                [
                    (3.0, ("peer-epoch", "zone-1", 31, 3019509094)),
                    (5.0, ("peer-epoch", "zone-1", 31, 3019509094)),
                    (7.0, ("peer-epoch", "zone-1", 33, 1348335849)),
                ],
                760647048,
            ),
            "zone-1": (
                [
                    (3.0, ("peer-epoch", "zone-0", 31, 1920258726)),
                    (5.0, ("peer-epoch", "zone-0", 31, 1920258726)),
                    (7.0, ("peer-epoch", "zone-0", 33, 2446534441)),
                ],
                3859439149,
            ),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PARENT_ZONES))
def test_shared_scaffold_reproduces_the_parents_rings_and_crcs(name):
    cfg, make_programs, expected = PARENT_ZONES[name]
    out = run_programs_sharded(make_zonal_network(cfg), make_programs(cfg))
    got = {
        zone: (out["logs"][zone], out["results"][zone]["outcome_crc32"])
        for zone in out["results"]
    }
    assert got == expected


def test_every_zone_program_record_is_pinned():
    assert set(PARENT_ZONES) == {n for n, r in WORKLOADS.items() if r.run is not None}


class TestRecordedProvenanceIsWhatRan:
    def sweep(self, tmp_path, scenarios, *flags):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        out_path = tmp_path / "merged.json"
        run_cli("sweep", "--scenarios", str(path), "--out", str(out_path), *flags)
        return {r["key"]: r for r in json.loads(out_path.read_text())["runs"]}

    def test_misspelled_key_is_refused_not_ignored(self, tmp_path):
        """The parent ran the default 9,600 tasks under a document saying 10."""
        scenarios = [{"key": "typo", "workload": "zonal", "tasks_per_zon": 10}]
        with pytest.raises(SystemExit) as refused:
            self.sweep(tmp_path, scenarios)
        message = str(refused.value)
        assert message.startswith("repro sweep: scenario 'typo': zonal")
        assert "tasks_per_zon" in message and "tasks_per_zone" in message

    def test_nmmb_takes_the_derived_seed(self, tmp_path):
        """Keys ``a`` / ``b`` got seeds 1261961969 / 1378964299 on the parent
        and both reported makespan 2319.665253120702 (NmmbConfig's own 7)."""
        runs = self.sweep(
            tmp_path,
            [{"key": k, "workload": "nmmb", "days": 1} for k in ("a", "b")],
        )
        assert runs["a"]["seed"] != runs["b"]["seed"]
        assert runs["a"]["result"]["makespan_s"] != runs["b"]["result"]["makespan_s"]

    def test_guidance_results_are_the_parents(self, tmp_path):
        runs = self.sweep(
            tmp_path,
            [{"key": "guid", "workload": "guidance", "chromosomes": 2, "chunks": 3, "nodes": 2}],
        )
        assert runs["guid"]["seed"] == 1489148522
        assert runs["guid"]["result"] == {
            "bytes_transferred": 3740000.0,
            "energy_joules": 348920.5145637203,
            "events": 54,
            "makespan_s": 1076.4908045536147,
            "tasks_done": 27,
            "tasks_failed": 0,
            "workload": "guidance",
        }


#: ``(what, argv or scenario list or scenario file text, fragment of the
#: one-line message)``.
MALFORMED = [
    ("scenario file is not JSON", '[{"key": "a", "workload": "zonal"',
     "repro sweep: --scenarios is not valid JSON: Expecting ','"),
    ("two scenarios share a key",
     [{"key": "k", "workload": "zonal"}, {"key": "k", "workload": "hybrid_stream"}],
     "repro sweep: duplicate scenario keys: ['k']"),
    ("scenario is not an object", [[1, 2]], "scenario 0: a scenario is a JSON object"),
    ("unknown workload", [{"key": "w", "workload": "nope"}], "scenario 'w': unknown workload 'nope'"),
    ("uncastable value", [{"key": "c", "workload": "churn", "agents": "many"}],
     "scenario 'c': churn option 'agents': 'many' is not of type int"),
    ("dedupe is no scenario key", [{"workload": "ep", "dedupe": True}],
     "scenario 0: ep has no option dedupe"),
    ("config rejects value", [{"key": "g", "workload": "guidance", "chromosomes": 0}],
     "scenario 'g': guidance: chromosomes"),
    ("one zone on a window driver", [{"key": "z", "workload": "zonal", "zones": 1}],
     "scenario 'z': zonal: zones must be >= 2"),
    ("one zone, decomposed churn", [{"key": "d", "workload": "churn", "zones": 1, "mode": "decomposed"}],
     "scenario 'd': churn: zones must be >= 2"),
    ("one zone by flag", ["simulate", "--workload", "hybrid_stream", "--zones", "1"],
     "repro simulate: hybrid_stream: zones must be >= 2"),
    ("uncastable flag", ["simulate", "--workload", "churn", "--agents", "many"],
     "repro simulate: churn option 'agents': 'many' is not of type int"),
    ("config rejects flag", ["simulate", "--workload", "churn", "--notification", "gossip"],
     "repro simulate: churn: unknown notification model 'gossip'"),
]


@pytest.mark.parametrize("what, given, fragment", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_is_one_line_from_the_parent_process(
    what, given, fragment, tmp_path, monkeypatch
):
    def forked(*args, **kwargs):
        raise AssertionError("malformed input reached the sweep's workers")

    monkeypatch.setattr("repro.simulation.sweep.run_sweep", forked)
    if isinstance(given, list) and isinstance(given[0], str):
        argv = given
    else:
        path = tmp_path / "scenarios.json"
        path.write_text(given if isinstance(given, str) else json.dumps(given))
        argv = ["sweep", "--scenarios", str(path), "--workers", "2", "--engine", "parallel"]
    with pytest.raises(SystemExit) as refused:
        run_cli(*argv)
    message = str(refused.value.code)
    assert message.startswith(f"repro {argv[0]}: ") and "\n" not in message
    assert fragment in message


def test_a_flag_of_another_workload_is_an_argparse_error(capsys):
    """``--workload guidance --agents 5 --sensors 3 --overflow drop`` was
    accepted without a word."""
    with pytest.raises(SystemExit) as refused:
        run_cli("simulate", "--workload", "guidance", "--agents", "5")
    assert refused.value.code == 2
    assert "unrecognized arguments: --agents 5" in capsys.readouterr().err


def test_a_removed_legacy_flag_is_an_argparse_error():
    """``--sim-seconds`` parsed onto ``duration`` until the aliases were
    dropped; now it is refused like any unknown flag, without a traceback."""
    refused = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--workload", "churn", "--sim-seconds", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert refused.returncode == 2
    assert "unrecognized arguments: --sim-seconds 5" in refused.stderr
    assert "Traceback" not in refused.stderr


def test_dedupe_is_an_argparse_error():
    """The dedupe flag rebuilt the graph with identical subgraphs merged;
    the pass is gone, and so is the flag."""
    refused = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--workload", "ep", "--dedupe"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert refused.returncode == 2
    assert "unrecognized arguments: --dedupe" in refused.stderr
    assert "Traceback" not in refused.stderr


def test_fleet_churn_keeps_accepting_one_zone():
    code, output = run_cli(
        "simulate", "--workload", "churn", "--agents", "40", "--zones", "1", "--duration", "3",
    )
    assert code == 0 and "churn (fleet, 40 agents, 1 zones)" in output


def test_a_simulation_error_inside_a_run_keeps_its_traceback(monkeypatch):
    """Only front-door input is turned into a message: a runaway-loop valve
    or a latency-floor violation inside a simulation is a bug report."""

    def explode(record, cfg, settings):
        raise SimulationError("runaway loop")

    monkeypatch.setattr(cli, "run", explode)
    with pytest.raises(SimulationError):
        run_cli("simulate", "--workload", "ep")
    with pytest.raises(WorkloadError):
        cli.resolve({"workload": "ep", "tasks": "many"})
