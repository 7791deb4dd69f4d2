"""Smoke test: the fast demo scripts run to completion.

Demo 04 trains a small pendulum controller in about 3 s.  Demo 05 runs the
acceptance pointmass pipeline, including the save_demos / load_demos /
save_model round trip, in about 6 s.  Demo 06 trains for about 11 s
(2-core machine, Python 3.11, numpy 2.4) and is run by hand instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = (
    "01_linear_recovery.py",
    "02_polynomial_lifting.py",
    "03_vanderpol_prediction.py",
    "04_pendulum_tracking.py",
    "05_relocation_pipeline.py",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
