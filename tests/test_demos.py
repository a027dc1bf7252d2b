"""Every demo runs to completion.

Each demo is copied into a temporary directory first, because demo 05
writes ``comparison.svg`` next to itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_latents_and_diagnostics.py", "02_ddim_pipeline.py", "03_gradients.py",
     "04_noise_diffusion_run.py", "05_method_comparison.py", "06_feasibility_analysis.py"],
)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
