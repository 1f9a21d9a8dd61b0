"""hetsim benchmark: run one workload for a fixed time, check every report it
writes, and print its metrics.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0

``--workload`` is one of fig2, fig3, oracle, fig2_par, or ``all``. With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Workloads,
metrics and the layer map are described in perfbench/README.md.

Every hetsim invocation runs in a fresh child process (perfbench/runner.py)
with ``OPENBLAS_NUM_THREADS=1`` and the checkout's ``src/`` as its only
``PYTHONPATH`` entry; no CPU pinning or cache control is used.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNNER = BENCH / "runner.py"
NPROC = len(os.sched_getaffinity(0))

# setup_s is timed in a fresh process before every timed hetsim run, after
# one untimed warm-up that fills the bytecode cache; a run that makes fewer
# hetsim runs than this tops the probes up at its end
SETUP_PROBES_MIN = 7
# a hetsim invocation taking longer than this counts as failed and is killed
CHILD_TIMEOUT_S = 120.0
RSS_POLL_S = 0.05
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
# Every timing is scaled by CAL_REF_S over the time of runner.calibrate()
# measured in the same process next to it, so that it reads as on a host
# where the calibration takes CAL_REF_S. The host's speed drifts by up to
# 2x within minutes and the calibration follows it (README.md, "Host
# speed"); the calibration code never changes, so a faster hetsim still
# reads faster.
CAL_REF_S = 0.2


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # hetsim arguments before --jobs/--seed/--out
    jobs: int | None  # --jobs of the timed runs; None for oracle-check
    # --jobs of one extra hetsim run whose report must be identical. fig2's
    # twin runs at nproc jobs, so it checks fig2 == fig2_par on every seed
    # and gives the parallel rate for harness.parallel_efficiency.
    twin_jobs: int | None
    preset: str  # preset config the set-up probe loads
    reference: str  # key of reference.json holding the default-seed digest
    # runner.py calibration kernel whose speed follows the workload's: the
    # host's slow spells slow per-call overhead more than arithmetic
    kernel: str


# The grid preset at 25 of its 100 seeds: one command takes about as long
# as fig3's or oracle-check's, so a run averages over several commands.
FIG2 = ("fig2", "--set", "mc.snapshots=25")

WORKLOADS = {
    # why each workload is here: README.md and BENCHMARK.json
    "fig2": Workload(FIG2, 1, NPROC, "fig2", "fig2", "matvec"),
    "fig3": Workload(("fig3",), 1, None, "fig3", "fig3", "scalar"),
    "oracle": Workload(
        ("oracle-check", "--count", "1000"), None, None, "fig2", "oracle", "scalar"
    ),
    "fig2_par": Workload(FIG2, NPROC, None, "fig2", "fig2", "matvec"),
}

CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}

ORACLE_SUMMARY = re.compile(r"oracle check: (\d+)/(\d+) passed")


@dataclass
class Rep:
    """One successful hetsim invocation."""

    wall_s: float
    cal_s: float  # calibration time, mean of the one before and after
    evals: int
    peak_rss_bytes: int
    layers: dict = field(default_factory=dict)

    @property
    def scaled_s(self):
        return self.wall_s * CAL_REF_S / self.cal_s

    @property
    def evals_per_s(self):
        return self.evals / self.scaled_s


def _tree_pids(pid):
    pids, todo = [], [pid]
    while todo:
        p = todo.pop()
        pids.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return pids


def _tree_rss_bytes(pid):
    total = 0
    for p in _tree_pids(pid):
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * PAGE_BYTES
        except OSError:
            continue
    return total


def _kill_tree(pid):
    for p in reversed(_tree_pids(pid)):
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


def _child(cmd, log_path):
    """Run cmd to completion while sampling the RSS of its process tree;
    returns (exit code, [(time.monotonic(), RSS in bytes)])."""
    samples = []
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                samples.append((time.monotonic(), _tree_rss_bytes(proc.pid)))
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                _kill_tree(proc.pid)
            proc.wait()
    return proc.returncode, samples


def _report_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _src_digest():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class WorkloadRun:
    """The child processes of one workload run and the failures among them."""

    def __init__(self, name, seed, work):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.problems = []
        self.count = 0
        refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        ref = refs[self.workload.reference]
        # with no stored digest for this seed, every report of the run must
        # equal the run's first one
        self.expected = ref["sha256"] if ref["seed"] == seed else None
        self.env = {}

    def fail(self, what):
        self.problems.append(what)
        print(f"FAIL {self.name}: {what}", file=sys.stderr)

    def _new_dir(self):
        self.count += 1
        path = self.work / f"{self.name}-{self.count}"
        path.mkdir()
        return path

    def setup_probe(self):
        """One setup_s sample from a fresh process, or None if it failed.
        The first probe of a run is the warm-up: it records the versions
        and returns None."""
        d = self._new_dir()
        result_path = d / "result.json"
        cmd = [
            sys.executable, str(RUNNER), "setup",
            "--result", str(result_path), "--preset", self.workload.preset,
        ]
        self.attempted += 1
        code, _ = _child(cmd, d / "log.txt")
        if code != 0 or not result_path.is_file():
            self.fail(f"set-up probe exited {code}: {(d / 'log.txt').read_text()[-500:]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        hetsim_file = Path(result["hetsim_file"]).resolve()
        if not hetsim_file.is_relative_to(ROOT / "src"):
            self.fail(f"hetsim imported from {hetsim_file}, not this checkout")
            return None
        shutil.rmtree(d)
        if not self.env:
            self.env = {k: result[k] for k in ("python", "numpy", "blas")}
            return None
        return result["setup_s"] * CAL_REF_S / result["cal_s"]

    def hetsim(self, jobs=None, trace=False):
        """One hetsim invocation; returns a Rep, or None if it failed."""
        w = self.workload
        jobs = w.jobs if jobs is None else jobs
        d = self._new_dir()
        out_dir = d / "out"
        argv = list(w.command)
        if jobs is not None:
            argv += ["--jobs", str(jobs), "--out", str(out_dir)]
        argv += ["--seed", str(self.seed)]
        result_path = d / "result.json"
        cmd = [
            sys.executable, str(RUNNER), "run", "--result", str(result_path),
            "--cal-kernel", w.kernel, "--cal-procs", str(jobs or 1),
        ]
        if trace:
            trace_dir = d / "trace"
            trace_dir.mkdir()
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", *argv]
        self.attempted += 1
        label = " ".join(argv[:3]) + (" (traced)" if trace else "")
        code, samples = _child(cmd, d / "log.txt")
        if code != 0 or not result_path.is_file():
            self.fail(f"{label}: runner exited {code}: {(d / 'log.txt').read_text()[-800:]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["exit_code"] != 0:
            self.fail(f"{label}: hetsim exited {result['exit_code']}")
            return None
        if jobs is None:
            digest, evals, problem = self._check_oracle(result["stdout"])
        else:
            digest, evals, problem = self._check_report(out_dir)
        if problem is None:
            if self.expected is None:
                self.expected = digest
                print(f"report sha256 {digest}")
            elif digest != self.expected:
                problem = f"report digest {digest[:16]} != expected {self.expected[:16]}"
        if problem is not None:
            self.fail(f"{label}: {problem}")
            return None
        rep = Rep(
            wall_s=result["wall_s"],
            cal_s=result["cal_s"],
            evals=evals,
            # only while hetsim ran: the calibration's processes don't count
            peak_rss_bytes=max(
                [rss for t, rss in samples if result["start"] <= t <= result["end"]]
                + [result["maxrss_bytes"]]
            ),
        )
        if trace:
            rep.layers = tracer.layer_metrics(tracer.load_spans(trace_dir, result["pid"]))
        shutil.rmtree(d)
        return rep

    def _check_oracle(self, stdout):
        match = ORACLE_SUMMARY.search(stdout)
        if match is None:
            return None, 0, "no oracle-check summary line"
        passed, total = int(match[1]), int(match[2])
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        problem = None if passed == total else f"{total - passed} oracle instances failed"
        return digest, total, problem

    def _check_report(self, out_dir):
        with open(out_dir / "results.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        evals = sum(int(r["seed_count"]) for r in rows)
        digest = _report_digest(out_dir)
        # prioritized power control protects high-priority users exactly
        leaks = [
            (r["sweep_value"], r["algorithm"], r["hpue_outage"])
            for r in rows
            if r["algorithm"] in ("ptpc", "ptpc_gr") and float(r["hpue_outage"]) != 0.0
        ]
        problem = f"high-priority outage under prioritized control: {leaks}" if leaks else None
        return digest, evals, problem


def _median_rep(reps):
    return sorted(reps, key=lambda r: r.scaled_s)[(len(reps) - 1) // 2]


def run_workload(name, seed, seconds, trace, work):
    """Measure one workload; returns (metrics, attempted, failed, env)."""
    run = WorkloadRun(name, seed, work)
    run.setup_probe()
    setup, reps, traced = [], [], []
    measured = 0.0
    while True:
        # probes spread over the run see the same host speed as the hetsim
        # runs; their time is not counted against `seconds`
        setup.append(run.setup_probe())
        round_start = time.perf_counter()
        rep = run.hetsim()
        if rep is not None:
            reps.append(rep)
        if trace:
            rep = run.hetsim(trace=True)
            if rep is not None:
                traced.append(rep)
        round_s = time.perf_counter() - round_start
        measured += round_s
        # stop where the measured time lands closest to `seconds`
        if measured + round_s / 2 >= seconds:
            break
    while len(setup) < SETUP_PROBES_MIN:
        setup.append(run.setup_probe())
    setup = [s for s in setup if s is not None]
    # same input at the other job count: the report must be byte-identical
    twin = run.hetsim(jobs=run.workload.twin_jobs) if run.workload.twin_jobs else None

    if not setup or not reps or (trace and not traced):
        raise RuntimeError(f"{name}: no successful run to report ({run.problems})")
    if not trace:
        metrics = {
            # over the whole run, host speed scaled out
            "evals_per_s": (
                sum(r.evals for r in reps) / sum(r.scaled_s for r in reps), "1/s"
            ),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_bytes for r in reps) / 1e6, "MB"),
        }
    else:
        for rep in traced[1:]:
            moved = [k for k in tracer.EXACT_COUNTS if rep.layers[k] != traced[0].layers[k]]
            if moved:
                run.fail(f"exact counts differ between traced runs: {moved}")
        metrics = dict(_median_rep(traced).layers)
        metrics["trace.overhead_s"] = (
            statistics.median(r.scaled_s for r in traced)
            - statistics.median(r.scaled_s for r in reps),
            "s",
        )
        efficiency = 0.0
        if twin is not None:
            # the serial run closest in time to the twin, which ran last,
            # so that both see about the same host speed. Raw wall times:
            # the twin's calibration runs in NPROC processes at once, which
            # slows it, so its scaled rate does not compare with a serial one
            serial = reps[-1]
            efficiency = (twin.evals / twin.wall_s) / (NPROC * serial.evals / serial.wall_s)
        metrics["harness.parallel_efficiency"] = (efficiency, "ratio")
        metrics["host.calibration_s"] = (statistics.median(r.cal_s for r in reps), "s")
    env = {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        **run.env,
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "child_env": {"OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"]},
        "pinning": "none",
        "cache_control": "none",
    }
    print(f"{name}: hetsim wall_s/calibration_s of {len(reps)} untraced runs: "
          + " ".join(f"{r.wall_s:.3f}/{r.cal_s:.3f}" for r in reps))
    print(f"{name}: evals_per_s unscaled {sum(r.evals for r in reps) / sum(r.wall_s for r in reps):.6g}")
    print(f"{name}: scaled setup_s of {len(setup)} probes: "
          + " ".join(f"{s:.4f}" for s in setup))
    return metrics, run.attempted, len(run.problems), env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not (ROOT / "src" / "hetsim" / "__init__.py").is_file():
        print(f"no hetsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, attempted, failed, env = run_workload(
                name, args.seed, args.seconds, args.trace == 1, work
            )
            print(f"workload {name}")
            print("env " + json.dumps(env, sort_keys=True))
            print(f"error_ratio {failed}/{attempted} = {failed / attempted:.4g}")
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit) in metrics.items():
                print(f"{prefix}{key} = {value:.6g} {unit}")
                summary["metrics"][prefix + key] = {"value": value, "unit": unit}
            summary["attempted"] += attempted
            summary["failed"] += failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
