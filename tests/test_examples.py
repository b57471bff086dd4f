"""Every script under ``examples/`` runs to completion.

Each one is run as a user would, ``python examples/<name>.py`` with
``PYTHONPATH=src``, in a fresh interpreter and a scratch working directory
(so a stray output file cannot land in the checkout): it must exit 0 and
print no traceback.  Nothing else runs the examples, so an API change that
breaks one is caught here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs_cleanly(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.strip()
