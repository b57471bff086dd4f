"""The benchmark JSON writers stamp the scale and host beside each figure.

A ``BENCH_*.json`` artifact is only comparable with another one measured at
the same scale on a like host, so both writers of the runtime benches fold
``scale`` and ``host {cpus, python, platform}`` into every write, and keep
the keys an earlier test of the module wrote.  Each writer runs against a
temporary path: the committed artifacts are never touched.
"""

import importlib
import json
import os
import platform
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "module_name, experiment",
    [
        ("bench_runtime_scaling", "runtime_scaling"),
        ("bench_runtime_overhead", "runtime_overhead"),
    ],
)
def test_writer_stamps_scale_and_host(monkeypatch, tmp_path, module_name, experiment):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench = importlib.import_module(module_name)
    path = tmp_path / f"BENCH_{experiment}.json"
    monkeypatch.setattr(bench, "RESULTS_PATH", str(path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")

    bench._merge_results({"first": [{"tasks": 1}]})
    bench._merge_results({"second": {"rate": 2.5}})

    results = json.loads(path.read_text())
    assert results == {
        "first": [{"tasks": 1}],
        "second": {"rate": 2.5},
        "experiment": experiment,
        "scale": "smoke",
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
