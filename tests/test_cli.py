"""Tests for the command-line interface."""

import io

import pytest

from repro.tools.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestInfo:
    def test_info_prints_version_and_capabilities(self):
        code, output = run_cli("info")
        assert code == 0
        assert "repro" in output
        assert "guidance" in output
        assert "locality" in output


class TestSimulate:
    def test_simulate_guidance(self):
        code, output = run_cli(
            "simulate", "--workload", "guidance",
            "--chromosomes", "2", "--chunks", "2", "--nodes", "2",
        )
        assert code == 0
        assert "makespan" in output
        assert "guidance (19 tasks)" in output

    def test_simulate_nmmb(self):
        code, output = run_cli("simulate", "--workload", "nmmb", "--days", "1", "--nodes", "6")
        assert code == 0
        assert "nmmb" in output

    def test_simulate_ep_with_policy(self):
        for policy in ("fifo", "load-balancing", "locality", "energy"):
            code, output = run_cli(
                "simulate", "--workload", "ep", "--tasks", "10", "--policy", policy,
            )
            assert code == 0
            assert policy in output

    def test_simulate_chain(self):
        code, output = run_cli(
            "simulate", "--workload", "chain", "--tasks", "5", "--duration", "2",
        )
        assert code == 0
        assert "makespan : 10.0 s" in output


class TestAnalyze:
    def test_analyze_reports_model_metrics(self):
        code, output = run_cli(
            "analyze", "--workload", "guidance", "--chromosomes", "2", "--chunks", "4",
        )
        assert code == 0
        assert "average parallelism" in output
        assert "speedup bound" in output

    def test_analyze_chain_has_parallelism_one(self):
        code, output = run_cli("analyze", "--workload", "chain", "--tasks", "7")
        assert code == 0
        assert "average parallelism : 1.0" in output


class TestRunText:
    def test_run_text_executes_file(self, tmp_path):
        workflow = tmp_path / "wf.txt"
        workflow.write_text(
            "data raw size=1e6\n"
            "task a duration=5 reads=raw writes=mid:1e3\n"
            "task b duration=5 reads=mid\n"
        )
        code, output = run_cli("run-text", str(workflow), "--nodes", "1")
        assert code == 0
        assert "tasks    : 2" in output
        assert "makespan : 10.0 s" in output


class TestErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--workload", "nope")


class TestEngineFlag:
    def test_simulate_engine_sharded_needs_zone_workload(self):
        """A static graph has a central scheduler, hence one timeline: a
        zone-program driver is refused, naming the workloads it runs."""
        with pytest.raises(SystemExit, match="zonal.*hybrid_stream.*churn") as exc:
            run_cli(
                "simulate", "--workload", "ep", "--tasks", "5",
                "--engine", "sharded",
            )
        assert exc.value.code not in (0, None)

    def test_simulate_engine_parallel_needs_zonal_workload(self):
        with pytest.raises(SystemExit, match="zonal"):
            run_cli(
                "simulate", "--workload", "ep", "--tasks", "5",
                "--engine", "parallel",
            )

    def test_simulate_churn_sharded_runs_decomposed_programs(self):
        code, output = run_cli(
            "simulate", "--workload", "churn", "--agents", "100",
            "--zones", "2", "--duration", "5", "--engine", "sharded",
        )
        assert code == 0
        assert "decomposed" in output and "engine   : sharded" in output

    def test_sweep_refuses_static_graph_on_zone_program_engine(self, tmp_path):
        scenario_path = tmp_path / "scenarios.json"
        scenario_path.write_text('[{"key": "ep-a", "workload": "ep", "tasks": 5}]')
        with pytest.raises(SystemExit, match="zonal"):
            run_cli("sweep", "--scenarios", str(scenario_path), "--engine", "sharded")

    def test_sweep_engine_replay_merged_bytes_identical(self, tmp_path):
        """--engine sharded replays zone-program scenarios with the merged
        document byte-identical to the single-engine run."""
        import json as _json

        scenarios = [
            {
                "key": "stream-a", "workload": "hybrid_stream", "zones": 2,
                "sensors": 2, "duration": 20.0,
            },
            {
                "key": "zonal-a", "workload": "zonal", "zones": 2,
                "nodes_per_zone": 2, "cores_per_node": 2,
                "tasks_per_zone": 20, "workers": 2,
            },
        ]
        scenario_path = tmp_path / "scenarios.json"
        scenario_path.write_text(_json.dumps(scenarios))
        outputs = {}
        for engine in ("single", "sharded"):
            out_path = tmp_path / f"merged-{engine}.json"
            code, text = run_cli(
                "sweep", "--scenarios", str(scenario_path),
                "--engine", engine, "--out", str(out_path),
            )
            assert code == 0
            assert "peak rss" in text
            outputs[engine] = out_path.read_bytes()
        assert outputs["single"] == outputs["sharded"]

    def test_sweep_zonal_parallel_identical_to_sequential_engines(self, tmp_path):
        import json as _json

        scenarios = [
            {
                "key": "zonal-b", "workload": "zonal", "zones": 3,
                "nodes_per_zone": 2, "cores_per_node": 2,
                "tasks_per_zone": 24, "workers": 3,
            },
        ]
        scenario_path = tmp_path / "scenarios.json"
        scenario_path.write_text(_json.dumps(scenarios))
        outputs = {}
        for engine in ("single", "sharded", "parallel"):
            out_path = tmp_path / f"merged-{engine}.json"
            code, _ = run_cli(
                "sweep", "--scenarios", str(scenario_path),
                "--engine", engine, "--out", str(out_path),
            )
            assert code == 0
            outputs[engine] = out_path.read_bytes()
        assert outputs["single"] == outputs["sharded"] == outputs["parallel"]
        merged = _json.loads(outputs["parallel"])
        result = merged["runs"][0]["result"]
        assert result["tasks_done"] == 3 * 24
        assert "_stats" not in result  # runner timing never leaks
