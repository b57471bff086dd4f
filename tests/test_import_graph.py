"""What importing ``repro`` loads, and what a timed region may still load.

``repro`` and every subpackage export their names lazily (PEP 562,
``repro._export_lazily``): ``import repro`` loads ``repro`` alone,
``from repro import task`` loads the task model without the runtime,
``from repro import Runtime`` loads the programming model — ``repro.core``
and the few scheduling / infrastructure / storage modules it stands on —
and nothing of the continuum simulator, and a simulated workload loads
nothing of the real runtime.  Every check runs in a fresh interpreter
(``sys.executable`` with ``PYTHONPATH=src``), because the test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The ``__all__`` of ``repro`` and of every subpackage, in order, as it was
#: when they still imported their submodules eagerly, less the names deleted
#: since.
EXPORTS = {
    "repro": [
        "IN", "OUT", "INOUT", "FILE_IN", "FILE_OUT", "FILE_INOUT", "Direction",
        "Parameter", "Future", "ReproError", "TaskFailedError",
        "RuntimeNotStartedError", "ConstraintUnsatisfiableError",
        "ResourceConstraints", "constraint", "task", "Runtime", "compss_wait_on",
        "compss_barrier", "compss_open", "compss_delete_object", "start_runtime",
        "stop_runtime", "get_runtime", "__version__",
    ],
    "core": [
        "Direction", "Parameter", "IN", "OUT", "INOUT", "FILE_IN", "FILE_OUT",
        "FILE_INOUT", "Future", "ReproError", "TaskFailedError",
        "RuntimeNotStartedError", "ConstraintUnsatisfiableError",
        "ResourceConstraints", "constraint", "task", "TaskDefinition", "TaskGraph",
        "TaskInstance", "TaskState", "Runtime", "compss_wait_on", "compss_barrier",
        "compss_open", "compss_delete_object", "start_runtime", "stop_runtime",
        "get_runtime",
    ],
    "infrastructure": [
        "Node", "NodeKind", "PowerProfile", "GpuSpec", "NetworkTopology", "Link",
        "EnergyAccountant", "Platform", "make_hpc_cluster", "make_fog_platform",
        "CloudProvider", "ElasticityPolicy", "SlurmManager", "SlurmJob",
    ],
    "simulation": [
        "SimClock", "EventQueue", "SimulationEngine", "SimulationError",
        "DeterministicRandom", "ShardedSimulationEngine", "ChannelMessage",
        "ParallelShardedSimulationEngine", "ShardApi", "run_programs_sharded",
        "run_zone_programs",
    ],
    "storage": [
        "StorageBackend", "StorageObject", "StorageRuntime", "get_storage_runtime",
        "set_storage_runtime", "content_fingerprint", "estimate_size",
        "estimate_size_digest", "ConsistentHashRing", "KeyValueCluster",
        "StorageDict", "ActiveObject", "ActiveObjectStore", "ClassRegistry",
    ],
    "scheduling": [
        "NodeCapacity", "CapacityLedger", "DataLocationService", "TransferPlanner",
        "BlockedDemandFrontier", "PlacementPass", "SchedulingPolicy", "FifoPolicy",
        "LoadBalancingPolicy", "LocalityPolicy", "EnergyAwarePolicy",
        "EarliestFinishTimePolicy", "TaskScheduler",
    ],
    "executor": [
        "LocalExecutor", "SimulatedExecutor", "SimulationReport", "SimWorkflowBuilder",
    ],
    "workloads": [
        "WORKLOADS", "Workload", "WorkloadError", "ChurnConfig", "HybridStreamConfig",
        "make_hybrid_stream_programs", "run_hybrid_stream", "make_churn_programs",
        "run_churn", "run_churn_fleet", "GuidanceConfig", "GuidanceWorkload",
        "build_guidance_workflow", "NmmbConfig", "build_nmmb_workflow",
        "embarrassingly_parallel", "task_chain", "fork_join_dag", "layered_random_dag",
        "ZonalConfig", "make_zonal_network", "make_zone_programs", "run_zonal",
        "zone_name",
    ],
    "agents": [
        "Message", "Op", "MessageBus", "OffloadingPolicy", "NeverOffload",
        "AlwaysOffload", "LoadThresholdOffload", "Agent", "AgentReport",
    ],
    "streams": [
        "DataStream", "StreamElement", "CreditValve", "SensorSource", "WindowResult",
        "OperatorError", "OperatorGraph", "StreamHandle", "WindowHandle",
        "DataflowPlane",
    ],
    "intelligence": [
        "DurationPredictor", "TaskTypeStats", "TaskMemoizer", "PredictedFinishTimePolicy",
    ],
    "metrics": [
        "graph_to_dot",
        "IntermediateDatum", "StoreAllPolicy", "RecomputeAllPolicy", "CostModelPolicy",
        "evaluate_policy",
    ],
    "dislib": [
        "DsArray", "array", "KMeans", "LinearRegression", "StandardScaler",
    ],
    "frontends": ["parse_workflow_text", "WorkflowSyntaxError", "CyclingSuite", "SuiteTask"],
    "baselines": ["FragmentedPipeline", "run_fragmented", "run_holistic"],
}


def _fresh(code):
    """Run ``code`` in a new interpreter; its last stdout line, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: The real runtime's own modules: no simulated workload may load them.
REAL_RUNTIME = [
    "repro.core.runtime", "repro.core.access_processor", "repro.core.compile",
    "repro.core.task_definition", "repro.executor.local",
]

#: The ``perf/`` workload modules that drive the simulator, not ``Runtime``.
SIMULATED = ["guidance", "continuum_dag", "stream", "storage_mixed", "churn", "zonal"]


def test_import_repro_loads_repro_alone():
    loaded = _fresh(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert [name for name in loaded if name.split(".")[0] == "repro"] == ["repro"]


def test_task_loads_neither_the_runtime_nor_futures():
    loaded = _fresh(
        """
        import json, sys
        from repro import task
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "repro.core.task_definition" in loaded
    assert "repro.core.runtime" not in loaded
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("workload", SIMULATED)
def test_simulated_workload_loads_no_real_runtime(workload):
    loaded = _fresh(
        f"""
        import json, sys
        sys.path.insert(0, ".")
        import perf.workloads.{workload}
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert [name for name in REAL_RUNTIME if name in loaded] == []


def test_import_repro_loads_the_programming_model_only():
    """``from repro import Runtime``: the whole programming model, and
    nothing of the continuum simulator."""
    loaded = _fresh(
        """
        import json, sys
        from repro import Runtime
        print(json.dumps(sorted(sys.modules)))
        """
    )
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    simulator = [
        name
        for name in ours
        if name.split(".")[1:2] in (["simulation"], ["workloads"], ["agents"], ["streams"])
        or name
        in (
            "repro.storage.keyvalue",
            "repro.storage.activeobject",
            "repro.infrastructure.cloud",
            "repro.infrastructure.slurm",
        )
    ]
    assert simulator == []
    assert "multiprocessing" not in loaded
    assert len(ours) <= 26, ours


def test_first_runtime_imports_nothing():
    """The runtime's executor is imported with ``Runtime``, not inside the
    first ``Runtime()``: constructing, starting and stopping one adds no
    module."""
    added = _fresh(
        """
        import json, sys
        from repro import Runtime
        before = set(sys.modules)
        runtime = Runtime(workers=1)
        runtime.start()
        runtime.stop()
        print(json.dumps(sorted(set(sys.modules) - before)))
        """
    )
    assert added == []


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_exports_are_unchanged_and_resolve(package):
    module = "repro" if package == "repro" else f"repro.{package}"
    seen = _fresh(
        f"""
        import json, types
        namespace = {{}}
        exec("from {module} import *", namespace)
        import {module} as package
        values = [getattr(package, name) for name in package.__all__]
        print(json.dumps({{
            "all": package.__all__,
            "star": sorted(set(namespace) - {{"__builtins__"}}),
            "modules": [name for name, value in zip(package.__all__, values)
                        if isinstance(value, types.ModuleType)],
            "undir": sorted(set(package.__all__) - set(dir(package))),
        }}))
        """
    )
    assert seen["all"] == EXPORTS[package]
    assert seen["star"] == sorted(EXPORTS[package])
    assert seen["modules"] == []
    assert seen["undir"] == []


def test_dislib_array_stays_the_function_whatever_loads_first():
    """``repro.dislib.array`` is both a submodule and an exported function;
    loading another dislib module (which imports the submodule) first must
    not leave the package attribute pointing at the module."""
    kinds = _fresh(
        """
        import json
        from repro.dislib import KMeans
        import repro.dislib
        import repro.dislib.array
        from repro.dislib import array
        print(json.dumps([type(repro.dislib.array).__name__, type(array).__name__]))
        """
    )
    assert kinds == ["function", "function"]


def _workload_names():
    sys.path.insert(0, str(ROOT))
    try:
        from perf.workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT))
    return sorted(WORKLOADS)


@pytest.mark.parametrize("workload", _workload_names())
def test_no_timed_region_pays_a_first_import(workload):
    """Each ``perf/`` workload at its quick size: ``setup()`` and then the
    timed ``run()`` add no module to ``sys.modules`` once the workload's
    module is imported."""
    added = _fresh(
        f"""
        import contextlib, importlib, json, sys
        sys.path.insert(0, ".")
        from perf.workloads import WORKLOADS
        spec = WORKLOADS[{workload!r}]
        module = importlib.import_module("perf.workloads." + spec["module"])

        @contextlib.contextmanager
        def phase(name):
            yield

        before = set(sys.modules)
        state = module.setup(7, dict(spec["quick"]))
        module.run(state, phase)
        print(json.dumps(sorted(set(sys.modules) - before)))
        """
    )
    assert added == []


def _loaded_by(code):
    """The modules a fresh interpreter holds after ``code``."""
    return _fresh(
        "import io, json, sys\n"
        + textwrap.dedent(code)
        + "\nprint(json.dumps(sorted(sys.modules)))\n"
    )


def _under(loaded, *packages):
    return [n for n in loaded if n.split(".")[:2] in [["repro", p] for p in packages]]


def _workload_modules(loaded):
    """The ``repro.workloads`` modules loaded, less the package and its table."""
    return [
        n
        for n in loaded
        if n.startswith("repro.workloads.") and n != "repro.workloads.table"
    ]


def test_fleet_churn_loads_no_window_driver():
    """Fleet churn is one bus on one timeline: the zone-program scaffold,
    the window drivers, the sweep pool and the zone executor stay unloaded."""
    loaded = _loaded_by('sys.path.insert(0, ".")\nimport perf.workloads.churn')
    unloaded = [
        "repro.workloads.zonal", "repro.simulation.parallel",
        "repro.simulation.sharded", "repro.simulation.sweep",
        "repro.executor.simulated", "multiprocessing",
    ]
    assert [name for name in unloaded if name in loaded] == []


def test_zonal_loads_no_fork_machinery():
    """Zonal's timed runs are the sequential reference and one inline lane:
    neither forks, so neither ``multiprocessing`` nor the sweep pool loads."""
    loaded = _loaded_by('sys.path.insert(0, ".")\nimport perf.workloads.zonal')
    unloaded = ["multiprocessing", "repro.simulation.sweep"]
    assert [name for name in unloaded if name in loaded] == []


def test_cli_import_loads_no_workload():
    loaded = _loaded_by("import repro.tools.cli")
    assert _workload_modules(loaded) == []
    assert _under(loaded, "agents", "streams", "simulation", "executor") == []


def test_info_loads_no_engine():
    loaded = _loaded_by(
        """
        from repro.tools.cli import main
        assert main(["info"], out=io.StringIO()) == 0
        """
    )
    assert _under(loaded, "agents", "streams") == []
    engines = [
        "repro.simulation.engine", "repro.simulation.sharded",
        "repro.simulation.parallel", "repro.simulation.sweep",
        "repro.executor.simulated",
    ]
    assert [name for name in engines if name in loaded] == []


def test_simulate_loads_the_named_workload_alone():
    loaded = _loaded_by(
        """
        from repro.tools.cli import main
        argv = ["simulate", "--workload", "guidance", "--chunks", "2", "--nodes", "2"]
        assert main(argv, out=io.StringIO()) == 0
        """
    )
    assert _workload_modules(loaded) == ["repro.workloads.guidance"]
    assert _under(loaded, "agents", "streams") == []
    unloaded = [
        "repro.simulation.parallel", "repro.simulation.sharded",
        "repro.simulation.sweep", "multiprocessing",
    ]
    assert [name for name in unloaded if name in loaded] == []


def test_simulate_fleet_churn_loads_no_window_driver():
    loaded = _loaded_by(
        """
        from repro.tools.cli import main
        argv = ["simulate", "--workload", "churn", "--agents", "40", "--duration", "5"]
        assert main(argv, out=io.StringIO()) == 0
        """
    )
    assert _workload_modules(loaded) == ["repro.workloads.churn", "repro.workloads.zones"]
    unloaded = ["repro.simulation.parallel", "repro.simulation.sweep", "multiprocessing"]
    assert [name for name in unloaded if name in loaded] == []


def test_fork_lanes_from_a_cold_start():
    """The fork path imports ``multiprocessing`` itself: a process that never
    loaded it forks its lanes and gets the sequential reference's result."""
    seen = _fresh(
        """
        import json, sys
        from repro.workloads import ZonalConfig, run_zonal

        cold = "multiprocessing" not in sys.modules
        cfg = ZonalConfig(zones=2, nodes_per_zone=2, cores_per_node=2, tasks_per_zone=40)
        forked, stats = run_zonal(cfg, engine="parallel", workers=2)
        reference, _ = run_zonal(cfg, engine="sharded")
        print(json.dumps([cold, stats["mode"], forked == reference]))
        """
    )
    assert seen == [True, "fork", True]
