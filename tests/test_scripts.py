"""Smoke tests for the runnable wrappers in ``scripts/``: they import the
harness by name, so a renamed function breaks them without this check."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("script", ["run_fig2.py", "run_fig3.py"])
def test_preset_script_writes_a_report(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), str(tmp_path), "--snapshots", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.csv").is_file()
    assert f"wrote {tmp_path / 'results.csv'}" in proc.stdout


def test_calibration_script_imports():
    spec = importlib.util.spec_from_file_location(
        "calibrate_target_sir", SCRIPTS / "calibrate_target_sir.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
