"""Smoke tests for the code outside the package that calls it by name:
``scripts/calibrate_target_sir.py`` and the perfbench tracer and runner. A
renamed function breaks them without these checks. Also the line counter
``scripts/code_lines.py`` and the reach audit ``scripts/reach.py``, on
samples, and the defects of ``scripts/mutants.py``, which must still apply
to the source."""

import argparse
import importlib
import importlib.util
from pathlib import Path

from hetsim import cli
from hetsim.association import SCHEMES
from hetsim.config import DEFAULT_TARGET_SIR_DB, fig2_defaults
from hetsim.power_control import ALGORITHMS

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


_SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves a code line

# a comment-only line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return y


class C:
    """Class docstring."""

    s = """a string that is
    not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, def, the two lines of y, return, class and the two of s
    module = _load("code_lines", SCRIPTS / "code_lines.py")
    assert module.code_lines(_SAMPLE) == 8
    (tmp_path / "sample.py").write_text(_SAMPLE, encoding="utf-8")
    (tmp_path / "empty.py").write_text("# only a comment\n", encoding="utf-8")
    assert module.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["0", "empty.py"], ["8", "sample.py"], ["8", "total"]]


_TOY = '''"""Toy module."""


def pick(x):
    """Docstring."""
    if x > 0:
        return "up"
    elif x < 0:
        raise ValueError("negative")
    y = (x +
         1)
    return y


@staticmethod
def never():
    return 0
'''


def test_reach_lists_unreached_statements_but_not_raises(tmp_path):
    module = _load("reach", SCRIPTS / "reach.py")
    (tmp_path / "toy.py").write_text(_TOY, encoding="utf-8")

    def run(*args):
        toy = _load("toy", tmp_path / "toy.py")
        for x in args:
            toy.pick(x)

    # the elif, both lines of y and its return, and never's body; not the
    # raise, the docstrings or the decorated def
    assert module.audit(lambda: run(1), tmp_path) == {
        "toy.py": [(8, "elif x < 0:"), (10, "y = (x +"), (12, "return y"),
                   (17, "return 0")],
    }
    assert module.audit(lambda: run(1, 0), tmp_path) == {
        "toy.py": [(17, "return 0")],
    }
    # the report paths cover every algorithm, scheme and shipped config
    paths = module.report_paths(tmp_path)
    assert ["oracle-check"] in paths and ["fig3", "--out", str(tmp_path)] in paths
    configs = len(list(ROOT.glob("configs/*.cfg")))
    sweeps = (len(ALGORITHMS) + 1) * len(SCHEMES) + configs
    assert sum(path[0] == "sweep" for path in paths) == sweeps


def test_tracer_wrapped_names_resolve():
    # the tracer swaps each (module, attribute) for a timing wrapper at run
    # time; every one must name a callable of the package
    tracer = _load("perfbench_tracer", TRACER)
    assert tracer.WRAPPED
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def _traced_run(monkeypatch, out_dir, argv):
    """(tracer module, spans) of one in-process ``hetsim`` run under the
    perfbench tracer. Every wrapped name is registered with ``monkeypatch``
    first, so undoing it restores the originals."""
    tracer = _load("perfbench_tracer", TRACER)
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    traced = tracer.install(out_dir)
    try:
        code = traced.call(tracer.ROOT_SPAN, cli.main, (argv,), {})
    finally:
        monkeypatch.undo()
    assert code == 0
    return tracer, traced.spans


def test_traced_runs_report_the_power_control_layers(monkeypatch, tmp_path):
    # the wrappers read each call's arguments and result, so a changed call
    # shape breaks a traced run even where every wrapped name resolves
    tracer, spans = _traced_run(
        monkeypatch, tmp_path, ["oracle-check", "--count", "20"]
    )
    metrics = tracer.layer_metrics([spans])
    # oracle-check runs its size groups through
    # power_control.iterate_power_control, not the cli name the tracer
    # wraps: its kernel spans read 0 (fig2's below do not)
    assert sum(span[0] == "power_control.iterate" for span in spans) == 0
    assert metrics["power_control.feasibility_s"][0] > 0
    assert metrics["power_control.oracle_solve_s"][0] > 0

    out = tmp_path / "fig2"
    tracer, spans = _traced_run(
        monkeypatch, tmp_path,
        ["fig2", "--out", str(out), "--set", "mc.snapshots=1"],
    )
    metrics = tracer.layer_metrics([spans])
    for algorithm in tracer.ALGORITHMS:
        assert metrics[f"power_control.sweeps.{algorithm}"][0] > 0, algorithm
    assert metrics["harness.snapshot_samples"][0] == len(fig2_defaults().sweep)
    assert metrics["report.bytes_written"][0] > 0


def test_benchmark_setup_probe_runs():
    # the benchmark's setup step loads and validates each preset's shipped
    # config through hetsim.config before it times anything else
    runner = _load("perfbench_runner", RUNNER)
    for preset in ("fig2", "fig3"):
        result = runner._setup(argparse.Namespace(preset=preset))
        assert result["setup_s"] > 0, preset


def test_every_mutant_still_applies():
    # each defect of scripts/mutants.py must still find its text exactly
    # once, and name tests that exist; running the catalogue stays outside
    # the test suite (python3 scripts/mutants.py)
    module = _load("mutants", SCRIPTS / "mutants.py")
    names = [m.name for m in module.MUTANTS]
    assert len(names) == len(set(names)) == 11
    for mutant in module.MUTANTS:
        assert module.stale(mutant) is None, (mutant.name, module.stale(mutant))
        assert mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert f"def {name.split('[')[0]}(" in source, (mutant.name, test)
