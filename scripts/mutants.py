#!/usr/bin/env python3
"""Show that the tests catch plausible defects.

Each mutant in ``MUTANTS`` is one defect: a text that occurs exactly once in
one source file, the text that replaces it, and the tests that must fail
once it is in. For each selected mutant the script copies the repository's
``src``, ``tests`` and ``configs`` and its ``pyproject.toml`` into a
temporary directory, applies the defect there and runs the named tests with
pytest. The repository itself is never written.

Usage: ``python3 scripts/mutants.py [--list] [NAME ...]`` (default: every
mutant). It prints one ``killed``, ``SURVIVED`` or ``ERROR`` line per
mutant and exits 0 only if every selected mutant was killed. A mutant that
survives marks a missing test, or code that no reported number depends on.
A mutant whose text no longer occurs exactly once is stale: update it with
the code it mutates (``tests/test_scripts.py`` checks this on every run).

Two mutants of ``src/hetsim/power_control.py`` survived the whole tier-1
suite and are left out of the catalogue as equivalent, so they need not be
tried again:

* ``_MIN_BLOCK = 2`` -> ``1``: the smallest block size is a perf knob.
  Block sizes never change a result; a one-sweep block only pays one more
  convergence test. A guard on the sweeps fig2 computes would pin it.
* ``_SCALE_FLOOR = 1e-30`` -> ``1e-12``: the floor of the convergence
  test's scale acts only while an iterate is exactly zero, where both
  floors give the same verdict on every tested input.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    why: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant(
        "chunk-dependent-disc-row",
        "the disc's interference total as one (seeds, cells) gemv, whose "
        "sums differ from each snapshot's own in the last bits",
        "src/hetsim/harness.py",
        "    total = (g @ bs_powers)[..., None]\n",
        "    total = (g[:, 0] @ bs_powers)[:, None, None]\n",
        ("tests/test_harness.py::test_disc_results_match_one_scheme_at_a_time",),
    ),
    Mutant(
        "cap-taken-on-p-max",
        "prioritized runs clip their low-priority users at the budget, not "
        "at the static caps",
        "src/hetsim/power_control.py",
        "    cap = stacked(system.cap) if prioritized else np.inf\n",
        "    cap = stacked(system.p_max) if prioritized else np.inf\n",
        (
            "tests/test_power_control.py::test_prioritized_run_protects_receivers",
            "tests/test_power_control.py::test_kernel_matches_reference_loop",
        ),
    ),
    Mutant(
        "one-over-n-access",
        "a joiner gets the channel with 1 / n instead of 1 / (n + 1)",
        "src/hetsim/scheduling.py",
        "    return 1.0 / (counts + 1.0)\n",
        "    return 1.0 / np.maximum(counts, 1.0)\n",
        (
            "tests/test_scheduling.py::test_round_robin_three_incumbents",
            "tests/test_harness.py::test_disc_results_match_one_scheme_at_a_time",
        ),
    ),
    Mutant(
        "out-of-order-merge",
        "the job results of a run with a pool merged in reverse order",
        "src/hetsim/harness.py",
        "    return results\n",
        "    results.reverse()\n    return results\n",
        (
            "tests/test_harness.py::test_reports_identical_across_job_counts",
            "tests/test_harness.py::"
            "test_raw_identical_across_job_counts_and_nan_where_absent",
        ),
    ),
    Mutant(
        "claims-count-not-taken",
        "a claim returns the count of indices left, not the index it takes, "
        "so the first claim is past the end and index 0 never runs",
        "src/hetsim/harness.py",
        "            return left - 1\n",
        "            return left\n",
        ("tests/test_harness.py::test_parent_runs_jobs_beside_one_worker_fewer",),
    ),
    Mutant(
        "results-read-unrewound",
        "the caller reads a worker's results file from where the worker's "
        "write left the shared offset, not from its start",
        "src/hetsim/harness.py",
        "            os.lseek(out, 0, os.SEEK_SET)\n",
        "            pass\n",
        ("tests/test_harness.py::test_parent_runs_jobs_beside_one_worker_fewer",),
    ),
    Mutant(
        "claims-unlocked",
        "the workers read and advance the shared claim record without its "
        "lock, so two of them can take the same index",
        "src/hetsim/harness.py",
        "        fcntl.lockf(self.fd, fcntl.LOCK_EX)\n",
        "        pass\n",
        ("tests/test_harness.py::test_claims_hold_under_contention",),
    ),
    Mutant(
        "worker-skips-finalizers",
        "a forked worker exits without running the exit finalizers "
        "registered in it, so perfbench's tracer loses the worker's spans",
        "src/hetsim/harness.py",
        "            util._run_finalizers()\n",
        "            pass\n",
        ("tests/test_harness.py::test_workers_run_their_exit_finalizers",),
    ),
    Mutant(
        "twin-resumed-one-sweep-late",
        "a soft-removal twin resumes at the sweep after its base run's fork",
        "src/hetsim/power_control.py",
        "        sweep, p0, base = record\n",
        "        sweep, p0, base = record\n"
        "        sweep = sweep and sweep + 1\n",
        (
            "tests/test_power_control.py::test_twin_forks_mid_run",
            "tests/test_harness.py::test_shared_twin_sweeps_match_separate_runs",
        ),
    ),
    Mutant(
        "twin-record-keeps-returned-state",
        "a base run's fork record keeps the state it returns, so a caller "
        "that writes into that state changes what the twin copies",
        "src/hetsim/power_control.py",
        "        system._forks[(twin, *options)] = (*fork, kept)\n",
        "        system._forks[(twin, *options)] = (*fork, state)\n",
        ("tests/test_power_control.py::test_twin_ignores_writes_into_the_base_result",),
    ),
    Mutant(
        "outage-tiers-swapped",
        "a grid snapshot reports the low-priority tier's outage as the "
        "high-priority one's and the other way round",
        "src/hetsim/harness.py",
        "            outage_ratio(state, ~snapshot.lpue_mask),\n"
        "            outage_ratio(state, snapshot.lpue_mask),\n",
        "            outage_ratio(state, snapshot.lpue_mask),\n"
        "            outage_ratio(state, ~snapshot.lpue_mask),\n",
        ("tests/test_harness.py::test_fig2_single_snapshot_protects_hpues",),
    ),
    Mutant(
        "cap-share-over-all-users",
        "the equal share of the interference threshold is taken over every "
        "user, not over the low-priority ones",
        "src/hetsim/power_control.py",
        "            share = ith / (lpue_index.size * gain_block)\n",
        "            share = ith / (snapshot.n_users * gain_block)\n",
        (
            "tests/test_power_control.py::"
            "test_prioritized_caps_share_among_low_priority_users_only",
        ),
    ),
    Mutant(
        "grid-seed-off-by-one",
        "a grid job draws the snapshot of the seed after its own",
        "src/hetsim/harness.py",
        "        (seed,) = seeds\n",
        "        seed = seeds[0] + 1\n",
        ("tests/test_acceptance.py::test_default_reports_match_golden_digest[fig2]",),
    ),
    Mutant(
        "metric-mean-with-nans",
        "a reported metric averages every seed's value, the absent (NaN) "
        "ones included",
        "src/hetsim/harness.py",
        "                present = values[~np.isnan(values)]\n",
        "                present = values\n",
        (
            "tests/test_report.py::test_absent_metrics_are_empty_cells_not_zero",
            "tests/test_harness.py::test_monte_carlo_row_shape",
        ),
    ),
    Mutant(
        "ten-times-safety-slack",
        "the per-snapshot prioritized interference check allows 10x its slack",
        "src/hetsim/harness.py",
        "SAFETY_REL_SLACK = 1e-12\n",
        "SAFETY_REL_SLACK = 1e-11\n",
        ("tests/test_harness.py::test_safety_check_allows_only_its_slack",),
    ),
    Mutant(
        "lockstep-late-compaction",
        "a lockstep row that finished leaves the stack one block late, so "
        "the next block overwrites its result",
        "src/hetsim/power_control.py",
        "        converged[live] = done\n"
        "        # the rows that finished leave the stack\n"
        "        keep = ~done\n",
        "        keep = ~converged[live]\n"
        "        converged[live] = done\n",
        (
            "tests/test_power_control.py::test_lockstep_rows_match_single_runs",
            "tests/test_power_control.py::test_kernel_matches_reference_loop",
        ),
    ),
    Mutant(
        "lockstep-gemm",
        "the lockstep sweep as one (B n, n) @ (n, B) gemm, keeping each "
        "row's own block, in place of one gemv per row",
        "src/hetsim/power_control.py",
        "                np.matmul(s_off, sweep_rows[j], out=r)\n",
        "                r[...] = (s_off.reshape(-1, n) @ sweep_rows[j][:, :, 0].T)"
        ".reshape(m, n, m)[np.arange(m), :, np.arange(m)][:, :, None]\n",
        ("tests/test_power_control.py::test_lockstep_rows_match_single_runs",),
    ),
    Mutant(
        "oracle-unsorted-failures",
        "oracle-check reports its failures in the order its size stacks run, "
        "not in instance order",
        "src/hetsim/cli.py",
        "    return sorted(failures)\n",
        "    return failures\n",
        (
            "tests/test_config_cli.py::"
            "test_oracle_check_fails_like_one_instance_at_a_time[4-60]",
        ),
    ),
    Mutant(
        "oracle-rho-match-halved",
        "oracle-check compares only the instances with spectral radius below "
        "0.5, not 0.9, with the exact fixed point",
        "src/hetsim/cli.py",
        "ORACLE_RHO_MATCH = 0.9\n",
        "ORACLE_RHO_MATCH = 0.5\n",
        ("tests/test_config_cli.py::test_oracle_check_counts_its_fixed_point_rows",),
    ),
    Mutant(
        "sweep-subtracts-noise",
        "a sweep subtracts the receiver noise from the interference where it "
        "should add it, so iterates from zero step down",
        "src/hetsim/power_control.py",
        "                r += s_noise\n",
        "                r -= s_noise\n",
        (
            "tests/test_power_control.py::test_fig2_iterates_from_zero_never_decrease",
            "tests/test_power_control.py::"
            "test_lockstep_iterates_from_zero_never_decrease",
        ),
    ),
)


def stale(mutant, root=ROOT):
    """Why ``mutant`` no longer applies to the source under ``root``, or
    None when its text occurs exactly once."""
    count = (Path(root) / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"its text occurs {count} times in {mutant.path}"


def run(mutant):
    """'killed', 'SURVIVED' or 'ERROR: ...' for one mutant, with the
    pytest output."""
    problem = stale(mutant)
    if problem:
        return f"ERROR: stale, {problem}", ""
    with tempfile.TemporaryDirectory(prefix="hetsim-mutant-") as tmp:
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            else:
                shutil.copy2(source, Path(tmp) / name)
        target = Path(tmp) / mutant.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    output = done.stdout + done.stderr
    # pytest exits 1 when a test failed; other codes mean it did not run them
    if done.returncode == 1:
        return "killed", output
    if done.returncode == 0:
        return "SURVIVED", output
    return f"ERROR: pytest exited {done.returncode}", output


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list the mutants")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for mutant in selected:
            print(f"{mutant.name}: {mutant.why}")
        return 0
    failed = False
    for mutant in selected:
        start = time.perf_counter()
        verdict, output = run(mutant)
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)")
        if verdict != "killed":
            failed = True
            print(output[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
