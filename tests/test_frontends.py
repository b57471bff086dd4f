"""Tests for the textual and cycling-suite workflow front-ends (§II)."""

import pytest

from repro.executor import SimulatedExecutor
from repro.frontends import (
    CyclingSuite,
    SuiteTask,
    WorkflowSyntaxError,
    parse_workflow_text,
)
from repro.frontends.suite import SuiteError
from repro.infrastructure import make_hpc_cluster


PIPELINE = """
# a tiny two-stage pipeline
data raw size=2e9
task filter duration=30 reads=raw writes=clean:1e9
task analyze duration=60 cores=4 reads=clean writes=report:1e6
"""


class TestTextFrontend:
    def test_parse_and_execute(self):
        builder = parse_workflow_text(PIPELINE)
        assert len(builder.graph) == 2
        assert builder.initial_data == {"raw": 2e9}
        report = SimulatedExecutor(
            builder.graph, make_hpc_cluster(1), initial_data=builder.initial_data
        ).run()
        assert report.tasks_done == 2
        assert report.makespan >= 90.0

    def test_dependencies_match_programmatic_semantics(self):
        builder = parse_workflow_text(PIPELINE)
        analyze = builder.graph.task(2)
        assert builder.graph.predecessors(analyze.task_id) == {1}
        assert analyze.requirements.cores == 4

    def test_gang_and_software_fields(self):
        text = "task sim duration=100 cores=48 nodes=4 software=mpi,fortran"
        builder = parse_workflow_text(text)
        sim = builder.graph.task(1)
        assert sim.requirements.nodes == 4
        assert sim.requirements.software == {"mpi", "fortran"}

    def test_comments_and_blank_lines_ignored(self):
        builder = parse_workflow_text("\n# nothing\n\ntask t duration=1\n")
        assert len(builder.graph) == 1

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("task t", "duration"),
            ("task t duration=abc", "bad duration"),
            ("task t duration=1 cores=x", "bad integer"),
            ("task t duration=1 colour=red", "unknown task field"),
            ("task t duration=1 deterministic=true", "unknown task field 'deterministic'"),
            ("data d", "size"),
            ("data d size=big", "bad data size"),
            ("frobnicate x", "unknown declaration"),
            ("task t duration=1 reads=ghost", "unknown datum"),
            ("task t duration=1 writes=o:huge", "bad output size"),
        ],
    )
    def test_syntax_errors_carry_line_and_reason(self, bad, fragment):
        with pytest.raises(WorkflowSyntaxError) as excinfo:
            parse_workflow_text(bad)
        assert fragment in str(excinfo.value)
        assert "line 1" in str(excinfo.value)

    def test_error_line_numbers_count_full_text(self):
        text = "task a duration=1\n\ntask b duration=oops\n"
        with pytest.raises(WorkflowSyntaxError) as excinfo:
            parse_workflow_text(text)
        assert excinfo.value.line_number == 3


class TestCyclingSuite:
    @staticmethod
    def weather_suite():
        return (
            CyclingSuite("forecast")
            .add_task(SuiteTask("init", duration=60.0))
            .add_task(
                SuiteTask(
                    "sim",
                    duration=600.0,
                    depends=["init", "sim[-1]"],
                    cores=48,
                    nodes=2,
                    software=("mpi",),
                )
            )
            .add_task(SuiteTask("post", duration=30.0, depends=["sim"]))
        )

    def test_expand_counts(self):
        builder = self.weather_suite().expand(cycles=3)
        assert len(builder.graph) == 9

    def test_intercycle_dependency_chains_cycles(self):
        builder = self.weather_suite().expand(cycles=3)
        sims = [t for t in builder.graph.tasks if t.label.startswith("sim@")]
        # sim@1 reads sim@0's output.
        assert "forecast/sim@0" in sims[1].reads
        # sim@0 has no previous-cycle dependency (dropped at the edge).
        assert all("@-1" not in r for r in sims[0].reads)

    def test_executes_on_cluster(self):
        builder = self.weather_suite().expand(cycles=4)
        report = SimulatedExecutor(builder.graph, make_hpc_cluster(4)).run()
        assert report.tasks_done == 12
        # Simulations serialize across cycles: >= 4 * 600s.
        assert report.makespan >= 2400.0

    def test_deeper_offsets(self):
        suite = CyclingSuite("s").add_task(SuiteTask("a", duration=1.0))
        suite.add_task(SuiteTask("b", duration=1.0, depends=["a[-2]"]))
        builder = suite.expand(cycles=3)
        b_tasks = [t for t in builder.graph.tasks if t.label.startswith("b@")]
        assert b_tasks[0].reads == ()
        assert b_tasks[2].reads == ("s/a@0",)

    def test_validation_errors(self):
        suite = CyclingSuite()
        with pytest.raises(SuiteError):
            suite.add_task(SuiteTask("x", duration=1.0, depends=["ghost"]))
        suite.add_task(SuiteTask("a", duration=1.0))
        with pytest.raises(SuiteError):
            suite.add_task(SuiteTask("a", duration=1.0))
        with pytest.raises(SuiteError):
            suite.add_task(SuiteTask("bad", duration=1.0, depends=["a[+1]"]))
        with pytest.raises(SuiteError):
            suite.expand(cycles=0)

    def test_self_same_cycle_dependency_rejected(self):
        suite = CyclingSuite().add_task(SuiteTask("a", duration=1.0, depends=["a"]))
        with pytest.raises(SuiteError):
            suite.expand(cycles=1)

    def test_self_previous_cycle_dependency_allowed(self):
        suite = CyclingSuite().add_task(
            SuiteTask("a", duration=1.0, depends=["a[-1]"])
        )
        builder = suite.expand(cycles=3)
        assert len(builder.graph) == 3
        chain = builder.graph
        assert chain.predecessors(2) == {1}
        assert chain.predecessors(3) == {2}
