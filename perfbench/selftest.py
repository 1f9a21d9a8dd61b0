"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Makes two traced runs of each workload at seed 1 (``run.py --trace 1
--seconds 0``: one untraced and one traced hetsim invocation each, plus the
job-count twin) and exits 0 only if

* both runs are correct, so the traced report equals the untraced one;
* every count in ``tracer.EXACT_COUNTS`` is identical in the two runs;
* ``network.generate_calls`` is the number of snapshots of the input;
* fig2_par's exact counts equal fig2's. The two run the same input, so
  this fails if the forked pool workers lose their spans.

The layer self times plus ``harness.self_s`` equal ``trace.wall_s +
harness.worker_busy_s`` by construction, so that identity is not tested.
"""

import json
import subprocess
import sys
from pathlib import Path

import tracer
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
SEED = 1
# sweep points x snapshots per point: the grid preset's 4 points at the 25
# seeds run.py sets, the disc preset's 5 points at 200 seeds, and no
# generation in oracle-check
SNAPSHOTS = {"fig2": 4 * 25, "fig3": 5 * 200, "oracle": 0, "fig2_par": 4 * 25}


def _traced_run(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {name: v["value"] for name, v in result["metrics"].items()}


def check(workload):
    """(problems found for one workload, its exact counts); no problems
    when it passes."""
    problems = []
    runs = [_traced_run(workload) for _ in range(2)]
    for k, (result, _) in enumerate(runs):
        if not result["correct"]:
            problems.append(f"run {k}: {result['failed']}/{result['attempted']} failed")
    first, second = (m for _, m in runs)
    for name in tracer.EXACT_COUNTS:
        if first[name] != second[name]:
            problems.append(f"{name} moved: {first[name]} -> {second[name]}")
    if first["network.generate_calls"] != SNAPSHOTS[workload]:
        problems.append(
            f"network.generate_calls is {first['network.generate_calls']}, "
            f"not {SNAPSHOTS[workload]}"
        )
    return problems, {name: first[name] for name in tracer.EXACT_COUNTS}


def main():
    failed = False
    counts = {}
    for workload in WORKLOADS:
        problems, counts[workload] = check(workload)
        if workload == "fig2_par":
            problems += [
                f"{name} is {counts['fig2_par'][name]}, fig2 has {counts['fig2'][name]}"
                for name in tracer.EXACT_COUNTS
                if counts["fig2_par"][name] != counts["fig2"][name]
            ]
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
