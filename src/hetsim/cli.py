"""Command-line entry point.

Subcommands:

* ``fig2``         grid outage experiment preset
* ``fig3``         disc spectral-efficiency experiment preset
* ``sweep``        Monte Carlo sweep of the configured single variant
* ``oracle-check`` cross-validate the iterated power control against the
                   closed-form fixed-point and feasibility oracles

Exit codes: 0 success, 1 failed oracle check, 2 config error, 3 numeric
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import parse_config, parse_config_text
from .errors import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    SimError,
)
from . import power_control
from .harness import PRESETS, run_experiment, run_preset
from .network import seeded_generators
from .power_control import (
    CochannelSystem,
    feasibility_check,
    fixed_point_oracle,
    sample_instance,
)
from .report import emit_report

# Not called here: perfbench's tracer wraps this name in this module, and
# oracle-check calls the kernel through ``power_control`` (see _check_group).
from .power_control import iterate_power_control  # noqa: F401

# fixed-point comparison of run_oracle_check: spectral radius below which
# it applies, and its relative tolerance
ORACLE_RHO_MATCH = 0.9
ORACLE_REL_TOL = 1e-8
# Most rows in one stack of run_oracle_check, and the most instances it seeds
# at once: it bounds the memory of a run whatever --count.
ORACLE_CHUNK = 256


def run_oracle_check(count, seed):
    """Cross-validate the iterated tracking algorithm on random instances.

    Per instance: the eigenvalue feasibility verdict must match the
    iterate's behavior at the 1e6 W budget of the instance's system
    (converged with every user supported iff feasible), and on comfortably
    feasible systems (spectral radius < ``ORACLE_RHO_MATCH``) the iterate
    must match the direct linear-solve fixed point to ``ORACLE_REL_TOL``
    relative error.

    Instance k is drawn from ``default_rng(seed + k)``, made for
    ``ORACLE_CHUNK`` seeds at a time by ``seeded_generators``. So the runs
    at ``seed`` and ``seed + 1`` share ``count - 1`` instances; runs meant
    to check distinct instances need seeds at least ``count`` apart. The
    instances queue by user count, across those chunks, each written into
    its count's ``(ORACLE_CHUNK, n, n)`` gains and ``(ORACLE_CHUNK, n)``
    noise and target buffers, made on first use; a queue that holds
    ``ORACLE_CHUNK`` instances runs as one stacked system, which one
    ``eigvals``, one kernel run (``iterate_power_control``, whose result
    holds one entry per row) and one ``solve`` check at once, each row with
    the bits it gets alone. The queues still
    partly full run at the end. So a run holds at most one partly full queue
    per user count and one running stack. The stacks are made as tall as
    that bound allows because at these sizes a stacked sweep costs a few
    microseconds plus about 0.2 µs per row, so a 256-row stack sweeps for
    roughly a twentieth of the cost of 256 single-row sweeps; a stack
    sweeps until its slowest row converges. Returns the failures as
    (index, seed, reason) tuples in instance order.
    """
    failures, queues = [], {}
    for first in range(0, count, ORACLE_CHUNK):
        chunk = range(first, min(first + ORACLE_CHUNK, count))
        for k, rng in zip(chunk, seeded_generators([seed + k for k in chunk])):
            inst = sample_instance(rng)
            n = len(inst.targets)
            if n not in queues:
                queues[n] = (
                    [],
                    np.empty((ORACLE_CHUNK, n, n)),
                    np.empty((ORACLE_CHUNK, n)),
                    np.empty((ORACLE_CHUNK, n)),
                )
            index, *buffers = queues[n]
            for buffer, values in zip(buffers, (inst.a, inst.noise, inst.targets)):
                buffer[len(index)] = values
            index.append(k)
            if len(index) == ORACLE_CHUNK:
                failures += _check_group(*queues.pop(n), seed)
    for queue in queues.values():
        failures += _check_group(*queue, seed)
    return sorted(failures)


def _check_group(index, a, noise, targets, seed):
    """run_oracle_check's failures among the instances of one queue: their
    indices, and their gains, noise and targets in the first ``len(index)``
    rows of the buffers."""
    rows = len(index)
    # one validated stack; its kept verdict is reused by the oracle below
    system = CochannelSystem(a[:rows], noise[:rows], targets[:rows], 1e6)
    check = feasibility_check(system)
    # through the module, not this module's name: perfbench's tracer wraps
    # that name and reads bool(result.converged), which a stack's (B,)
    # flags cannot give
    state = power_control.iterate_power_control(
        system, algorithm="tpc", max_iters=200_000, tol=1e-12
    )
    behaved = state.converged & state.supported.all(axis=1)
    failures = []
    for row in np.flatnonzero(check.feasible != behaved).tolist():
        failures.append(
            (
                index[row],
                seed + index[row],
                f"feasibility mismatch: rho={float(check.spectral_radius[row]):.6g} "
                f"converged={bool(state.converged[row])} "
                f"supported={int(state.supported[row].sum())}/{state.p.shape[1]}",
            )
        )
    match = behaved & check.feasible & (check.spectral_radius < ORACLE_RHO_MATCH)
    rows = np.flatnonzero(match)
    if rows.size:
        exact = fixed_point_oracle(system[rows])
        rel = np.abs(state.p[rows] - exact).max(axis=1) / np.abs(exact).max(axis=1)
        for row, err in zip(rows.tolist(), rel.tolist()):
            if err > ORACLE_REL_TOL:
                failures.append(
                    (
                        index[row],
                        seed + index[row],
                        f"fixed-point mismatch: rel error {err:.3e}",
                    )
                )
    return failures


def _add_run_options(parser):
    parser.add_argument("--config", help="config file (key = value text)")
    parser.add_argument(
        "--out", default="results", help="output directory (default: results)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override mc.base_seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes that run the snapshot jobs (1 to os.cpu_count()): "
        "this one and N - 1 forked workers; the report is byte-identical at "
        "every count",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hetsim",
        description="Snapshot Monte Carlo simulator for prioritized "
        "multi-tier cellular networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig2", "grid outage experiment (power-control comparison)"),
        ("fig3", "disc spectral-efficiency experiment (association schemes)"),
        ("sweep", "sweep the configured single algorithm/scheme"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_run_options(p)
    oc = sub.add_parser(
        "oracle-check",
        help="cross-validate power control against exact oracles",
    )
    oc.add_argument("--count", type=int, default=1000, help="instances to run")
    oc.add_argument(
        "--seed", type=int, default=0,
        help="base instance seed: instance k uses seed + k, so seeds less than "
        "--count apart share instances",
    )
    return parser


def _load_config(args, base):
    if args.config is not None:
        cfg = parse_config(args.config, overrides=args.overrides, base=base)
    else:
        cfg = parse_config_text("", overrides=args.overrides, base=base)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ConfigError(
            f"--jobs must be between 1 and the {cpus} CPUs of this machine, "
            f"got {args.jobs}",
            key="--jobs",
        )
    return cfg


def _run_experiment(args):
    if args.command in PRESETS:
        cfg = _load_config(args, PRESETS[args.command][0]())
        report = run_preset(args.command, cfg, jobs=args.jobs)
    else:
        cfg = _load_config(args, None)
        report = run_experiment(cfg, jobs=args.jobs)
    paths = emit_report(report, args.out)
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['json']}")
    print(f"wrote {len(paths['xy'])} xy curve files")
    for row in report.rows:
        bits = [
            f"n={row.sweep_value}",
            f"alg={row.algorithm}",
            f"scheme={row.scheme}",
        ]
        if row.hpue_outage is not None:
            bits.append(f"hpue_outage={row.hpue_outage:.4f}")
        if row.lpue_outage is not None:
            bits.append(f"lpue_outage={row.lpue_outage:.4f}")
        if row.spectral_eff_bps_hz is not None:
            bits.append(f"se={row.spectral_eff_bps_hz:.4f}")
        print("  ".join(bits))
    return EXIT_OK


def _run_oracle_check(args):
    if args.count < 1:
        raise ConfigError(
            f"--count must be at least 1, got {args.count}", key="--count"
        )
    # instance k is seeded with seed + k, and seeds are 128-bit
    if not 0 <= args.seed <= 2**128 - args.count:
        raise ConfigError(
            f"--seed must be in [0, 2**128 - --count], got {args.seed}",
            key="--seed",
        )
    failures = run_oracle_check(args.count, args.seed)
    for index, inst_seed, reason in failures:
        print(f"FAIL instance {index} (seed {inst_seed}): {reason}")
    passed = args.count - len(failures)
    print(f"oracle check: {passed}/{args.count} passed ({passed / args.count:.1%})")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return _run_oracle_check(args)
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimError as exc:
        # generation, convergence, and oracle failures share the numeric code
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
