"""Smoke test for ``scripts/calibrate_target_sir.py``: it calls the harness
by name, so a renamed function breaks it without this check."""

import importlib.util
from pathlib import Path

from hetsim.config import DEFAULT_TARGET_SIR_DB

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_calibration_script_imports():
    spec = importlib.util.spec_from_file_location(
        "calibrate_target_sir", SCRIPTS / "calibrate_target_sir.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    outage = module.lpue_outage_n3(DEFAULT_TARGET_SIR_DB, 2)
    assert 0.0 <= outage <= 1.0
