"""One measured step of the benchmark, in a fresh process.

    python3 perfbench/runner.py run --result FILE --cal-kernel K [--cal-procs N] [--trace-dir DIR] -- HETSIM_ARGS...
    python3 perfbench/runner.py setup --result FILE --preset fig2|fig3

``run`` calls ``hetsim.cli.main(HETSIM_ARGS)`` in this process and records
its exit code, wall time, captured standard output and peak RSS. With
``--trace-dir`` the call runs under the span tracer of ``tracer.py``.

``setup`` times what every hetsim command pays before it starts work:
importing the package and loading and validating a preset config file. It
also reports the interpreter, numpy and BLAS versions.

Both modes also time a fixed calibration kernel K (``matvec`` or ``scalar``)
in the same process: ``run`` just before and just after the hetsim call,
``setup`` just after the set-up. run.py divides by it to take the host's
drifting speed out of the timings.
With ``--cal-procs N`` (a hetsim run at ``--jobs N``) the kernel runs in N
forked processes at once, so that it sees the cores the pool runs on.

Both write one JSON object to ``--result``. The package is imported from
the ``PYTHONPATH`` the caller sets.
"""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _matvec(rng, rounds):
    """Like power control on a large system: matrix-vector sweeps with a
    clamp, where numpy's arithmetic dominates."""
    import numpy as np

    a = rng.random((128, 128)) / 128
    p = np.zeros(128)
    for _ in range(rounds):
        g = rng.standard_normal(256)
        d = np.hypot(g[:128], g[128:])
        for _ in range(8):
            p = np.minimum(a @ p + d, 1e3)
        float(p.sum())


def _scalar(rng, rounds):
    """Like snapshot generation and power control on tiny systems: scalar
    draws and numpy calls on arrays of 2 to 8 entries, where the cost of
    each call dominates."""
    import numpy as np

    systems = [(rng.random((n, n)) / (4 * n), rng.random(n)) for n in range(2, 9)]
    for k in range(rounds):
        pts = []
        for _ in range(8):
            r = 100.0 * np.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            pts.append((r * np.cos(ang), r * np.sin(ang)))
        a, noise = systems[k % len(systems)]
        p = np.zeros(noise.shape[0])
        for _ in range(3):
            q = np.minimum(a @ p + noise, 10.0)
            if float(np.max(np.abs(q - p))) < 1e-12:
                break
            p = q
        float(np.asarray(pts).sum())


# calibration kernels and their rounds per call; each call takes about
# 0.2 s on a 2 GHz Xeon
KERNELS = {"matvec": (_matvec, 3000), "scalar": (_scalar, 2100)}


def calibrate(kernel):
    """Seconds this process takes for the fixed work of one kernel call."""
    import numpy as np

    work, rounds = KERNELS[kernel]
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    work(rng, rounds)
    return time.perf_counter() - start


def calibrate_on(kernel, procs):
    """Mean calibration time of `procs` processes running it at once."""
    if procs == 1:
        return calibrate(kernel)
    with multiprocessing.get_context("fork").Pool(procs) as pool:
        return sum(pool.map(calibrate, [kernel] * procs)) / procs


def _setup(args):
    start = time.perf_counter()
    import hetsim.cli  # what the hetsim command imports
    from hetsim.config import fig2_defaults, fig3_defaults, parse_config

    base = {"fig2": fig2_defaults, "fig3": fig3_defaults}[args.preset]()
    parse_config(ROOT / "configs" / f"{args.preset}_default.cfg", base=base).validate()
    setup_s = time.perf_counter() - start
    # importing is interpreter work, which the scalar kernel is too
    cal_s = calibrate("scalar")

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict view
        blas = {}
    return {
        "setup_s": setup_s,
        "cal_s": cal_s,
        "hetsim_file": hetsim.cli.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _run(args):
    from hetsim import cli

    recorder = None
    if args.trace_dir:
        import tracer

        recorder = tracer.install(args.trace_dir)
    captured = io.StringIO()
    cal_s = calibrate_on(args.cal_kernel, args.cal_procs)
    start_mono = time.monotonic()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if recorder is None:
            code = cli.main(args.hetsim_args)
        else:
            code = recorder.call(tracer.ROOT_SPAN, cli.main, (args.hetsim_args,), {})
    wall_s = time.perf_counter() - start
    end_mono = time.monotonic()
    cal_s += calibrate_on(args.cal_kernel, args.cal_procs)
    if recorder is not None:
        recorder.write()
    return {
        "exit_code": code,
        "wall_s": wall_s,
        "cal_s": cal_s / 2,
        # time.monotonic() at the start and end of the hetsim call
        "start": start_mono,
        "end": end_mono,
        "stdout": captured.getvalue(),
        "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--result", required=True)
    run.add_argument("--trace-dir")
    run.add_argument("--cal-procs", type=int, default=1)
    run.add_argument("--cal-kernel", choices=KERNELS, required=True)
    run.add_argument("hetsim_args", nargs=argparse.REMAINDER)
    setup = sub.add_parser("setup")
    setup.add_argument("--result", required=True)
    setup.add_argument("--preset", choices=("fig2", "fig3"), required=True)
    args = parser.parse_args()
    if args.mode == "run":
        if args.hetsim_args[:1] == ["--"]:
            args.hetsim_args = args.hetsim_args[1:]
        result = _run(args)
    else:
        result = _setup(args)
    result["pid"] = os.getpid()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
