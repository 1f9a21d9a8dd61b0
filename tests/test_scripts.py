"""Smoke tests for the code outside the package that calls it by name:
``scripts/calibrate_target_sir.py`` and the perfbench tracer and runner. A
renamed function breaks them without these checks."""

import argparse
import importlib
import importlib.util
from pathlib import Path

from hetsim.config import DEFAULT_TARGET_SIR_DB

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
TRACER = ROOT / "perfbench" / "tracer.py"
RUNNER = ROOT / "perfbench" / "runner.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_script_imports():
    module = _load("calibrate_target_sir", SCRIPTS / "calibrate_target_sir.py")
    assert callable(module.main)
    outage = module.lpue_outage_n3(DEFAULT_TARGET_SIR_DB, 2)
    assert 0.0 <= outage <= 1.0


def test_tracer_wrapped_names_resolve():
    # the tracer swaps each (module, attribute) for a timing wrapper at run
    # time; every one must name a callable of the package
    tracer = _load("perfbench_tracer", TRACER)
    assert tracer.WRAPPED
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_benchmark_setup_probe_runs():
    # the benchmark's setup step loads and validates each preset's shipped
    # config through hetsim.config before it times anything else
    runner = _load("perfbench_runner", RUNNER)
    for preset in ("fig2", "fig3"):
        result = runner._setup(argparse.Namespace(preset=preset))
        assert result["setup_s"] > 0, preset
