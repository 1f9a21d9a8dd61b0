#!/usr/bin/env python3
"""Show the statements of ``src/hetsim`` that no report path reaches.

The script runs the report paths of the command line in process under a
``sys.settrace`` line trace (``report_paths``): ``hetsim fig2`` and
``fig3`` at their defaults, ``fig2`` at ``--jobs 2`` (on a host with two
CPUs or more), ``oracle-check``, ``sweep`` for every power-control
algorithm and every uplink association scheme on the grid and every
downlink scheme on the disc, and a ``sweep`` of each shipped
``configs/*.cfg``. The sweeps and the pooled run use two snapshots per
point: what they reach does not grow with the count. The trace follows
the forked workers of the pooled run: a child forked during a traced run
keeps the trace and, just before it exits by ``os._exit``, writes the
lines it saw to a file that the traced process reads once the run is
over. Reports go to a temporary directory and the runs' stdout is
discarded.

It then prints each statement of the package that never ran and is not a
``raise``, as ``path:line: text``, and the count. Error paths stay,
whatever reaches them; docstrings are not statements here. A statement
that only the tests reach is a candidate for deletion: mutants
(``scripts/mutants.py``) show that the tests bite, reach shows that the
code is needed.

Usage: ``python3 scripts/reach.py``. It exits 0 whatever it finds.
"""

import argparse
import ast
import contextlib
import io
import os
import pickle
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import docstring_lines  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetsim"
# statements that compile to no code a line trace can see
_SILENT = (ast.Global, ast.Nonlocal)


def report_paths(out):
    """The argument lists of ``hetsim.cli.main`` that make the reports, each
    writing under the directory ``out``."""
    from hetsim.association import SCHEMES
    from hetsim.power_control import ALGORITHMS

    small = ["--set", "mc.snapshots=2"]
    paths = [["fig2"], ["fig3"], ["oracle-check"]]
    if (os.cpu_count() or 1) >= 2:
        paths.append(["fig2", "--jobs", "2", *small])
    for algorithm in ALGORITHMS:
        for scheme in SCHEMES:
            paths.append([
                "sweep", *small, "--set", f"pc.algorithm={algorithm}",
                "--set", f"assoc.uplink={scheme}",
            ])
    for scheme in SCHEMES:
        paths.append([
            "sweep", *small, "--set", "geometry=disc",
            "--set", f"assoc.downlink={scheme}",
        ])
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        paths.append(["sweep", "--config", str(config), *small])
    return [
        path if path[0] == "oracle-check" else [*path, "--out", str(out)]
        for path in paths
    ]


# (lines seen, directory) of the traced run in progress, empty between
# runs: a child forked during a run hands its lines over through the
# directory. A fork hook cannot be unregistered, and tests trace in their
# own process, so the hook does nothing while this is empty.
_TRACED = []


def _follow_fork():
    """In a child forked during a traced run: wrap ``os._exit`` so that the
    child writes the lines it saw (its own copy of the run's set) to the
    run's directory before it exits. The line event of the exit call
    itself comes before the call, so every line the child ran is
    written."""
    if not _TRACED:
        return
    seen, out = _TRACED
    exit_now = os._exit

    def hand_off(code):
        try:
            with open(os.path.join(out, f"{os.getpid()}.pickle"), "wb") as file:
                pickle.dump(seen, file)
        finally:
            exit_now(code)

    os._exit = hand_off


os.register_at_fork(after_in_child=_follow_fork)


def trace_lines(run, root):
    """Call ``run()`` under a line trace; the (real path, line) pairs it
    executed in the files under the directory ``root``, in this process
    and in the children it forked that exited by ``os._exit``."""
    root = os.path.realpath(root) + os.sep
    inside, seen = {}, set()

    def lines(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(root)
        return lines if inside[name] else None

    previous = sys.gettrace()
    with tempfile.TemporaryDirectory(prefix="hetsim-reach-") as out:
        _TRACED[:] = [seen, out]
        sys.settrace(calls)
        try:
            run()
        finally:
            sys.settrace(previous)
            _TRACED.clear()
        for path in Path(out).iterdir():
            seen |= pickle.loads(path.read_bytes())
    return {(os.path.realpath(name), line) for name, line in seen}


def unreached(source, lines):
    """(line, text) of each statement of the Python ``source`` that does not
    run on any of ``lines``, skipping ``raise`` statements and docstrings, in
    line order. A simple statement runs on its lines, a compound one on its
    header: its decorators down to the line before its body."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    text = source.splitlines()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Raise, *_SILENT)):
            continue
        if isinstance(node, ast.Expr) and node.lineno in docstrings:
            continue
        start = min(
            [node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]
        )
        body = getattr(node, "body", None)
        stop = max(body[0].lineno, start + 1) if body else node.end_lineno + 1
        if lines.isdisjoint(range(start, stop)):
            found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def audit(run, root):
    """{path relative to ``root``: unreached (line, text) pairs} of the Python
    files under ``root`` after ``run()``, in path order."""
    seen = trace_lines(run, root)
    result = {}
    for path in sorted(Path(root).rglob("*.py")):
        lines = {line for name, line in seen if name == str(path.resolve())}
        result[path.relative_to(root).as_posix()] = unreached(
            path.read_text(encoding="utf-8"), lines
        )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))

    def run():
        # imported under the trace, so that module-level statements count
        from hetsim import cli

        with tempfile.TemporaryDirectory(prefix="hetsim-reach-") as out:
            for path in report_paths(out):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(path)
                if code != 0:
                    raise SystemExit(f"hetsim {' '.join(path)} exited {code}")

    found = audit(run, PACKAGE)
    total = 0
    for name, statements in found.items():
        for line, text in statements:
            print(f"src/hetsim/{name}:{line}: {text}")
        total += len(statements)
    print(f"{total} statements unreached (raise statements not counted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
