"""Outside-in span tracing of one hetsim run, and the per-layer metrics
computed from the spans.

``install`` swaps the names that ``hetsim.cli`` and ``hetsim.harness`` look
up at call time for timing wrappers; no file of the package changes. Each
wrapped call records one span ``(name, start, end, parent, snapshot, info)``
in memory: ``parent`` is the index of the enclosing span in the same
process, ``snapshot`` the ``(sweep value, seed)`` of the snapshot being
evaluated, and ``info`` the exact counts read off the call's result. A
process writes its spans out once, when its part of the run ends: the
runner process after ``cli.main`` returns, a forked pool worker when it
exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

# (module, attribute, span name). ``hetsim.power_control.feasibility_check``
# is wrapped as well because ``fixed_point_oracle`` calls it through its own
# module; the nested span is what gets subtracted from the oracle's self time.
WRAPPED = (
    ("hetsim.cli", "parse_config", "config.load"),
    ("hetsim.cli", "parse_config_text", "config.load"),
    ("hetsim.harness", "generate_fig2_snapshot", "network.generate"),
    ("hetsim.harness", "generate_fig3_snapshot", "network.generate"),
    ("hetsim.harness", "build_gain_matrix", "network.gains"),
    ("hetsim.harness", "associate", "association.associate"),
    ("hetsim.harness", "score_matrix", "association.score_matrix"),
    ("hetsim.harness", "cell_loads", "scheduling.cell_loads"),
    ("hetsim.harness", "access_probability", "scheduling.access_probability"),
    ("hetsim.harness", "prioritized_caps", "power_control.caps"),
    ("hetsim.harness", "iterate_power_control", "power_control.iterate"),
    ("hetsim.cli", "iterate_power_control", "power_control.iterate"),
    ("hetsim.cli", "feasibility_check", "power_control.feasibility"),
    ("hetsim.power_control", "feasibility_check", "power_control.feasibility"),
    ("hetsim.cli", "fixed_point_oracle", "power_control.oracle_solve"),
    ("hetsim.harness", "outage_ratio", "harness.metrics"),
    ("hetsim.harness", "throughput_metrics", "harness.metrics"),
    ("hetsim.cli", "emit_report", "report.emit"),
)

ROOT_SPAN = "harness.run"
GENERATE = "network.generate"
# spans outside any snapshot's pipeline
UNSCOPED = ("config.load", "report.emit")

ALGORITHMS = ("tpc", "tpc_gr", "ptpc", "ptpc_gr")

# every span name whose self time is reported as ``<name>_s``
SELF_TIMED = (
    "config.load",
    "network.generate",
    "network.gains",
    "association.associate",
    "association.score_matrix",
    "scheduling.cell_loads",
    "scheduling.access_probability",
    "power_control.caps",
    "power_control.iterate",
    "power_control.feasibility",
    "power_control.oracle_solve",
    "harness.metrics",
    "report.emit",
)

# tail percentile rule: the highest percentile with this many samples beyond it
TAIL_BEYOND = 10


def _info(name, args, kwargs, result):
    """Exact counts read off one call's arguments and result."""
    if name == "network.gains":
        rx, tx = result.gains.shape
        return {"entries": rx * tx}
    if name == "power_control.iterate":
        return {
            "algorithm": kwargs.get("algorithm", "tpc"),
            "n": len(result.p),
            "sweeps": result.iterations,
            "converged": bool(result.converged),
        }
    if name == "report.emit":
        files = [result["csv"], result["json"], *result["xy"]]
        return {"bytes": sum(os.path.getsize(p) for p in files)}
    return None


class Tracer:
    """In-memory span store of one process of a traced run."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.snapshot = None

    def _claim_process(self):
        # A forked pool worker inherits the runner's tracer; it starts an
        # empty store of its own and writes it when the worker exits.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.stack, self.snapshot = [], [], None
            mp_util.Finalize(None, self.write, exitpriority=10)

    def call(self, name, fn, args, kwargs):
        self._claim_process()
        if name == GENERATE:
            self.snapshot = (int(args[1]), int(args[2]))
        elif name in UNSCOPED:
            self.snapshot = None
        snapshot = self.snapshot
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(index)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            info = None if result is None else _info(name, args, kwargs, result)
            self.spans[index] = (name, start, end, parent, snapshot, info)

    def write(self):
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(out_dir):
    """Swap every name in WRAPPED for a timing wrapper; returns the tracer.
    Run the command under ``tracer.call(ROOT_SPAN, cli.main, (argv,), {})``
    and call ``tracer.write()`` afterwards."""
    tracer = Tracer(out_dir)
    for module_name, attr, name in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, _wrapper(tracer, name, getattr(module, attr)))
    return tracer


def load_spans(trace_dir, runner_pid):
    """Spans per process, the runner process's list first."""
    processes = {}
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        processes[pid] = json.loads(path.read_text(encoding="utf-8"))
    if runner_pid not in processes:
        raise ValueError("the traced run wrote no spans of its runner process")
    runner = processes.pop(runner_pid)
    return [runner, *processes.values()]


def _self_times(spans):
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _tail(samples):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it; (0, 0) when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def layer_metrics(processes):
    """Per-layer metrics of one traced run: {name: (value, unit)}.

    ``processes`` comes from ``load_spans``. Self times are summed over all
    processes; ``harness.self_s`` is the runner's root span minus its
    children. In every run the layer self times plus ``harness.self_s`` add
    up to ``trace.wall_s + harness.worker_busy_s``, where the last term is
    the time pool workers spent inside traced calls (0 without a pool).
    """
    runner = processes[0]
    roots = [i for i, s in enumerate(runner) if s[0] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root = roots[0]

    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    calls = dict.fromkeys(SELF_TIMED, 0)
    gain_entries = flops = report_bytes = 0
    per_alg = defaultdict(lambda: {"s": 0.0, "calls": 0, "sweeps": 0, "max": 0, "conv": 0})
    envelopes = {}
    worker_busy = 0.0
    harness_self = 0.0
    for index, spans in enumerate(processes):
        own = _self_times(spans)
        for (name, start, end, parent, snapshot, info), t in zip(spans, own):
            if name == ROOT_SPAN:
                harness_self += t
                continue
            self_s[name] += t
            calls[name] += 1
            if index > 0 and parent is None:
                worker_busy += end - start
            if snapshot is not None:
                key = tuple(snapshot)
                lo, hi = envelopes.get(key, (start, end))
                envelopes[key] = (min(lo, start), max(hi, end))
            if name == "network.gains":
                gain_entries += info["entries"]
            elif name == "report.emit":
                report_bytes += info["bytes"]
            elif name == "power_control.iterate":
                n, sweeps = info["n"], info["sweeps"]
                flops += 2 * n * n * (sweeps + 1)
                alg = per_alg[info["algorithm"]]
                alg["s"] += end - start
                alg["calls"] += 1
                alg["sweeps"] += sweeps
                alg["max"] = max(alg["max"], sweeps)
                alg["conv"] += info["converged"]

    snapshot_ms = [1e3 * (hi - lo) for lo, hi in envelopes.values()]
    tail_pct, tail_ms = _tail(snapshot_ms)
    wall = runner[root][2] - runner[root][1]

    m = {f"{name}_s": (self_s[name], "s") for name in SELF_TIMED}
    m["harness.self_s"] = (harness_self, "s")
    m["harness.worker_busy_s"] = (worker_busy, "s")
    m["network.generate_calls"] = (calls["network.generate"], "count")
    m["network.gain_entries"] = (gain_entries, "count")
    m["scheduling.access_probability_calls"] = (calls["scheduling.access_probability"], "count")
    for name in ALGORITHMS:
        alg = per_alg[name]
        m[f"power_control.iterate_s.{name}"] = (alg["s"], "s")
        m[f"power_control.sweeps.{name}"] = (alg["sweeps"], "count")
        m[f"power_control.sweeps_max.{name}"] = (alg["max"], "count")
        m[f"power_control.sweeps_per_s.{name}"] = (
            alg["sweeps"] / alg["s"] if alg["s"] > 0 else 0.0,
            "1/s",
        )
        m[f"power_control.converged_ratio.{name}"] = (
            alg["conv"] / alg["calls"] if alg["calls"] else 0.0,
            "ratio",
        )
    m["power_control.flops_computed"] = (flops, "flop")
    m["harness.snapshot_ms.p50"] = (
        statistics.median(snapshot_ms) if snapshot_ms else 0.0,
        "ms",
    )
    m["harness.snapshot_ms.tail"] = (tail_ms, "ms")
    m["harness.snapshot_ms.tail_pct"] = (tail_pct, "%")
    m["harness.snapshot_samples"] = (len(snapshot_ms), "count")
    m["report.bytes_written"] = (report_bytes, "B")
    m["trace.wall_s"] = (wall, "s")
    return m


# metrics that must repeat exactly between two traced runs of one input
EXACT_COUNTS = (
    "network.generate_calls",
    "network.gain_entries",
    "scheduling.access_probability_calls",
    *(f"power_control.sweeps.{a}" for a in ALGORITHMS),
    *(f"power_control.sweeps_max.{a}" for a in ALGORITHMS),
    "power_control.flops_computed",
    "harness.snapshot_samples",
    "report.bytes_written",
)
