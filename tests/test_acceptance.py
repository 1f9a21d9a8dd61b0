"""Acceptance gate: every shipped criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
The two experiment presets run once (module-scoped fixtures) on the shipped
default configuration and are shared by the criteria that inspect them.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from conftest import greedy_access_prob_mc, instance_system, sample_feasible_instance
from hetsim.cli import main
from hetsim.config import SimConfig, fig3_defaults
from hetsim.harness import (
    FIELDS,
    FIG2_ALGORITHMS,
    run_experiment,
    run_preset,
)
from hetsim.power_control import (
    CochannelSystem,
    feasibility_check,
    fixed_point_oracle,
    iterate_power_control,
    sample_instance,
)
from hetsim.report import emit_report

JOBS = 2

# sha256 of the default-config fig2 and fig3 reports (every emitted file,
# see _report_digest). A change that moves any reported byte must update
# these digests on purpose and say why.
GOLDEN_DIGESTS = {
    "fig2": "ac540c8d1f05139b91790d180870dfa20b77bd6b29009568da1f694ce2f6f545",
    "fig3": "b3474e8e5462e8c67e9dcea1f7ed1cdbad00c92767c05a5d61046088945e6c2e",
}


def _report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fig2_run():
    cfg = SimConfig()
    t0 = time.perf_counter()
    report = run_preset("fig2", cfg, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def popc_run():
    cfg = SimConfig()
    return run_experiment(cfg, ("popc",), hpue_algorithm="tpc", jobs=JOBS)


@pytest.fixture(scope="module")
def fig3_run():
    cfg = fig3_defaults()
    t0 = time.perf_counter()
    report = run_preset("fig3", cfg, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def _report_digest(out_dir):
    """sha256 over ``name\\0bytes\\0`` of every report file, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_default_reports_match_golden_digest(preset, request, tmp_path):
    report, _ = request.getfixturevalue(f"{preset}_run")
    emit_report(report, tmp_path)
    assert _report_digest(tmp_path) == GOLDEN_DIGESTS[preset]


# sha256 (see _report_digest) of small ``hetsim sweep`` reports of every
# variant no preset covers: two snapshots at sweep points 3,5 (grid) or
# 5,20 (disc), one key set per case.
SWEEP_DIGESTS = {
    "pc.algorithm=opc": "8b7a16d4aac29cec28f83675c6dd14b4c82f78f032956f1db042f7117e31ccab",
    "pc.algorithm=dtpc": "79ca6c1791bc20be97ff6720acfa3feb86fca4c419711e8e1974dc44e488dcb3",
    "pc.algorithm=popc": "6a8a26b9dba05b7df7bd85c28c199ed890f8bb1cae535744b5c3983cfa72281d",
    "pc.algorithm=tpc_gr": "db721ba36d740e1933248eb96dc7507970a6050502c1d8018f00e521e2786526",
    "assoc.uplink=rsrp": "dda25250b06dab890128552aed69dec234cf372fe0de2e138ac07a01de740629",
    "assoc.uplink=rsrq": "9650d74588f4eb8221232679961d70b338fae7b385854942681a50d36ef6801d",
    "assoc.uplink=cre": "c4d6d400f388a5821f0b39612be433d252fa458aaafd76bebc47c22eeaf20522",
    "assoc.uplink=mei": "8820f2ba50b4f8ebce802014cb371fa5665a191a0ddf2975c3a9bc7b4bd746c7",
    "assoc.downlink=rsrp": "329db548db85f6d1dd90cf335c8325787bcdbed34be707545c2833a90c19f807",
    "assoc.downlink=rsrq": "5da4e09b9b4ff15b4c6dbbf4d0d24e6caa8dc3eccd2103657fe4fa64964e0fcc",
    "assoc.downlink=cre": "2cc82d5a8c162c2fa6d8ac89c4a67dab3bcfe38b42daa3d6a9d8a6e1c2b8b23c",
    "assoc.downlink=mei": "d1cbe4f505198edbc40a690ccf486607b9811617f2632fae2cce017d56f12990",
    "assoc.downlink=distance": "a3e03e0cf38fdc2ca499043383abe27ad82f8ee0e2c880fbda31edf89bc87263",
    "assoc.downlink=resource": "edb0acbb5731ead86637d6ec9b4e8720ce454a0f06d50dbaf615e96abb5a52df",
    "assoc.downlink=hybrid": "615b096e79158c7f5e779699d835c2c79d10b0aa22cbafdf8441fe70a8f2c41f",
    "assoc.downlink=home": "1bbc11c2b58c08ab9907b34232d5d8b4c90fdad9495be2130193625735d7feb7",
}


@pytest.mark.parametrize("setting", sorted(SWEEP_DIGESTS))
def test_sweep_reports_match_golden_digest(setting, tmp_path, capsys):
    geometry, sweep = (
        ("disc", "5,20") if setting.startswith("assoc.downlink") else ("grid", "3,5")
    )
    argv = [
        "sweep", "--out", str(tmp_path),
        "--set", f"geometry={geometry}",
        "--set", "mc.snapshots=2",
        "--set", f"mc.sweep={sweep}",
        "--set", setting,
    ]
    assert main(argv) == 0
    assert _report_digest(tmp_path) == SWEEP_DIGESTS[setting]


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        _, system = sample_feasible_instance(np.random.default_rng(k), rho_max=0.9)
        state = iterate_power_control(
            system, algorithm="tpc", tol=1e-12, max_iters=10_000
        )
        exact = fixed_point_oracle(system)
        worst = max(worst, float(np.abs(state.p - exact).max() / exact.max()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "oracle equivalence",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s over 1000 instances",
    )


def test_criterion_2_feasibility_oracle():
    disagreements = []
    for k in range(500):
        system = instance_system(sample_instance(np.random.default_rng(10_000 + k)))
        check = feasibility_check(system)
        state = iterate_power_control(
            system, algorithm="tpc", tol=1e-12, max_iters=200_000
        )
        behaved = state.converged and bool(state.supported.all())
        if check.feasible != behaved:
            disagreements.append(k)
    _report(
        2,
        "feasibility oracle",
        not disagreements,
        f"{len(disagreements)} disagreements in 500 instances",
    )


def test_criterion_3_fig2_replication(fig2_run):
    report, elapsed = fig2_run
    rows = {(r.sweep_value, r.algorithm): r for r in report.rows}
    sweep = report.config.sweep

    protected = max(
        rows[(n, alg)].hpue_outage for n in sweep for alg in ("ptpc", "ptpc_gr")
    )
    a_ok = protected == 0.0
    b_ok = rows[(6, "tpc")].hpue_outage > 0.0
    c_ok = all(
        rows[(n, "tpc_gr")].lpue_outage <= rows[(n, "tpc")].lpue_outage + 0.01
        for n in sweep
    )
    d_ok = all(
        rows[(n, "ptpc")].lpue_outage >= rows[(n, "tpc")].lpue_outage - 0.01
        for n in sweep
    )
    t_ok = elapsed < 180.0
    _report(
        3,
        "grid outage replication",
        a_ok and b_ok and c_ok and d_ok and t_ok,
        f"protected={protected:.4f} tpc_hp(n=6)={rows[(6, 'tpc')].hpue_outage:.3f} "
        f"c_ok={c_ok} d_ok={d_ok} runtime={elapsed:.1f}s",
    )


def test_criterion_4_prioritized_safety(fig2_run, popc_run):
    report, _ = fig2_run
    cfg = report.config
    margin = FIELDS.index("safety_margin_w")
    prioritized = [FIG2_ALGORITHMS.index(alg) for alg in ("ptpc", "ptpc_gr")]
    margins = np.concatenate([
        report.raw[:, prioritized, margin].ravel(),
        popc_run.raw[:, 0, margin].ravel(),
    ])
    count = margins.size
    # a NaN (absent) margin fails the bound below
    worst = margins.max()
    # harness already asserts per snapshot; re-check the recorded margins
    # against the stated absolute slack
    _report(
        4,
        "prioritized safety invariant",
        count == 3 * len(cfg.sweep) * cfg.snapshots and worst <= 1e-12,
        f"worst margin {worst:.3e} W over {count} prioritized snapshots",
    )


def test_criterion_5_fig3_replication(fig3_run):
    report, elapsed = fig3_run
    rows = {(r.sweep_value, r.scheme): r for r in report.rows}
    sweep = report.config.sweep

    hybrid_ok = all(
        rows[(n, "hybrid")].spectral_eff_bps_hz
        >= rows[(n, "resource")].spectral_eff_bps_hz
        for n in sweep
    )
    dense = [n for n in sweep if n >= 10]
    resource_mean = np.mean(
        [rows[(n, "resource")].spectral_eff_bps_hz for n in dense]
    )
    distance_mean = np.mean(
        [rows[(n, "distance")].spectral_eff_bps_hz for n in dense]
    )
    ordering_ok = resource_mean < distance_mean
    # every scheme's per-seed spectral efficiency at n = 0
    per_seed_zero = report.raw[
        sweep.index(0), :, FIELDS.index("spectral_eff_bps_hz")
    ]
    agree = max(
        abs(a - b)
        for row in zip(*per_seed_zero)
        for a in row
        for b in row
    )
    t_ok = elapsed < 60.0
    _report(
        5,
        "disc spectral-efficiency replication",
        hybrid_ok and ordering_ok and agree <= 1e-12 and t_ok,
        f"hybrid>=resource={hybrid_ok} resource_mean={resource_mean:.3f} "
        f"distance_mean={distance_mean:.3f} n0_spread={agree:.1e} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_6_access_probability():
    t0 = time.perf_counter()
    trials = 100_000
    worst_sigma = 0.0
    for n in range(11):
        est = greedy_access_prob_mc(n, trials, 1000 + n)
        p = 1.0 / (n + 1)
        sigma = np.sqrt(p * (1 - p) / trials)
        if sigma > 0:
            worst_sigma = max(worst_sigma, abs(est - p) / sigma)
        else:
            worst_sigma = max(worst_sigma, 0.0 if est == p else np.inf)
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "greedy access probability",
        worst_sigma <= 3.0 and elapsed < 2.0,
        f"worst deviation {worst_sigma:.2f} sigma, {elapsed:.2f}s",
    )


def test_criterion_7_opc_fairness_pathology():
    a = np.array([[1.0, 0.01], [0.01, 0.5]])
    state = iterate_power_control(
        CochannelSystem(
            a, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 10.0, eta=0.01
        ),
        algorithm="opc", tol=1e-12,
    )
    rates = np.log2(1.0 + state.sir)
    ok = state.converged and state.p[0] > state.p[1] and rates[0] > rates[1]
    _report(
        7,
        "opportunistic fairness pathology",
        ok,
        f"p={state.p.round(4).tolist()} rates={rates.round(4).tolist()}",
    )


def test_criterion_8_dtpc_dominance():
    worst_gap = np.inf
    support_ok = True
    for k in range(200):
        inst, _ = sample_feasible_instance(
            np.random.default_rng(20_000 + k), rho_max=0.9
        )
        system = CochannelSystem(
            inst.a, inst.noise, inst.targets, 1e3, eta=inst.eta
        )
        st_tpc = iterate_power_control(
            system, algorithm="tpc", tol=1e-12, max_iters=20_000
        )
        st_dtpc = iterate_power_control(
            system, algorithm="dtpc", tol=1e-12, max_iters=20_000
        )
        gap = float(
            np.log2(1 + st_dtpc.sir).sum() - np.log2(1 + st_tpc.sir).sum()
        )
        worst_gap = min(worst_gap, gap)
        sup = st_dtpc.supported
        if sup.any() and not np.all(
            st_dtpc.sir[sup] >= inst.targets[sup] * (1 - 1e-6) - 1e-12
        ):
            support_ok = False
    _report(
        8,
        "dynamic-target dominance",
        worst_gap >= -1e-9 and support_ok,
        f"worst throughput gap {worst_gap:.3e}, supported-SIR ok={support_ok}",
    )


def test_criterion_9_determinism(tmp_path, monkeypatch):
    overrides = ["--set", "mc.snapshots=6", "--set", "mc.sweep=3,4"]
    outs = [tmp_path / name for name in ("a", "b", "j1", "j8")]
    assert main(["fig2", "--out", str(outs[0]), *overrides]) == 0
    assert main(["fig2", "--out", str(outs[1]), *overrides]) == 0
    assert main(["fig2", "--out", str(outs[2]), "--jobs", "1", *overrides]) == 0
    # --jobs is bounded by the CPU count; the 8-worker pool runs on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert main(["fig2", "--out", str(outs[3]), "--jobs", "8", *overrides]) == 0
    payloads = [(p / "results.csv").read_bytes() for p in outs]
    jsons = [(p / "summary.json").read_bytes() for p in outs]
    ok = (
        payloads[0] == payloads[1] == payloads[2] == payloads[3]
        and jsons[0] == jsons[1] == jsons[2] == jsons[3]
    )
    _report(
        9,
        "byte-identical determinism",
        ok,
        f"csv bytes {len(payloads[0])}, four runs compared",
    )
