import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CountingNumpy,
    instance_system,
    make_snapshot,
    sample_feasible_instance,
    two_user_toy,
)
from hetsim import harness, power_control
from hetsim.association import associate
from hetsim.config import SimConfig, fig2_defaults
from hetsim.errors import OracleError
from hetsim.network import (
    GainMatrix,
    build_gain_matrix,
    generate_fig2_snapshot,
)
from hetsim.harness import run_preset
from hetsim.power_control import (
    ALGORITHMS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    DEFAULT_TOL_SUPPORT,
    PRIORITIZED_BASE,
    SOFT_REMOVAL_TWINS,
    CochannelSystem,
    PrioritizedCapSet,
    _aligned,
    cochannel_system,
    feasibility_check,
    fixed_point_oracle,
    iterate_power_control,
    prioritized_caps,
    sample_instance,
)


# ---------------------------------------------------------------- updates


def _sweep(r, algorithm, target, p_max, eta=None):
    """One synchronous sweep from p = 0 on uncoupled unit-gain users whose
    noise is ``r``, so each user's effective interference is exactly r."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    n = r.size
    state = iterate_power_control(
        CochannelSystem(
            np.eye(n), r, np.full(n, target, dtype=float), p_max, eta=eta
        ),
        algorithm=algorithm,
        max_iters=1,
        p0=np.zeros(n),
    )
    return state.p


def test_tpc_update_tracks_and_caps():
    assert _sweep(1 / 9, "tpc", 1.0, 10.0) == pytest.approx([1 / 9])
    assert _sweep(8.0, "tpc", 2.0, 10.0)[0] == 10.0


def test_tpc_single_user_converges_in_one_step():
    a = np.array([[0.5]])
    system = CochannelSystem(a, np.array([0.1]), np.array([1.0]), 10.0)
    st_ = iterate_power_control(system)
    assert st_.p[0] == pytest.approx(0.2, rel=1e-12)
    assert st_.sir[0] == pytest.approx(1.0, rel=1e-12)


def test_tpc_gr_matches_tpc_when_feasible():
    r = np.array([0.3, 0.5])
    assert _sweep(r, "tpc_gr", 1.0, 10.0) == pytest.approx(
        _sweep(r, "tpc", 1.0, 10.0)
    )


def test_tpc_gr_soft_removal_value():
    assert _sweep(20.0, "tpc_gr", 1.0, 10.0) == pytest.approx([5.0])


def test_tpc_gr_rejects_budget_with_infinite_square():
    # p_max**2 overflows above ~1.34e154 W; soft removal would return p = inf,
    # so the system rejects such a budget when it is built
    with pytest.raises(ValueError, match="finite square"):
        CochannelSystem(np.eye(1), np.array([2e160]), np.array([1.0]), 1e155)


@given(q=st.floats(10.001, 1e12))
def test_tpc_gr_backs_off_monotonically(q):
    # demand beyond the budget: power p_max**2/q decreases toward zero
    p, p2 = _sweep([q, 2 * q], "tpc_gr", 1.0, 10.0)
    assert 0 < p <= 10.0
    assert p2 < p


def test_opc_update_values():
    assert _sweep(0.2, "opc", 1.0, 10.0, eta=0.02) == pytest.approx([0.1])
    assert _sweep(0.05, "opc", 1.0, 10.0, eta=1.0)[0] == 10.0  # capped


def test_opc_better_channel_gets_more_power():
    p = _sweep([0.01, 0.1], "opc", 1.0, 10.0, eta=0.02)
    assert p[0] > p[1]


def test_dtpc_branches():
    p = _sweep([0.05, 0.5], "dtpc", 1.0, 10.0, eta=0.01)
    assert p[0] == pytest.approx(0.2)  # opc side
    assert p[1] == pytest.approx(0.5)  # tpc side


def test_prioritized_update_caps_lpues_only():
    # one synchronous sweep from p0 with R = 1: both users demand 8 W, only
    # the low-priority one is clipped at its 5 W cap
    system = CochannelSystem(
        np.eye(2), np.ones(2), np.array([8.0, 8.0]), 10.0,
        lpue_mask=np.array([False, True]), cap=np.array([np.inf, 5.0]),
    )
    state = iterate_power_control(system, algorithm="ptpc", max_iters=1)
    assert state.p == pytest.approx([8.0, 5.0])


# ------------------------------------------------- effective interference


def test_effective_interference_noise_only():
    # from p = 0, one tracking sweep at unit target returns R = noise / gain
    system = CochannelSystem(
        np.array([[0.5]]), np.array([0.1]), np.array([1.0]), 10.0
    )
    state = iterate_power_control(system, max_iters=1)
    assert state.p == pytest.approx([0.2])


def test_effective_interference_two_user_toy():
    # at the toy's fixed point R_i = (0.1 / 9 + 0.1) / 1 = 1 / 9
    state = iterate_power_control(
        CochannelSystem(*two_user_toy(), 10.0),
        p0=np.array([1 / 9, 1 / 9]),
        max_iters=1,
    )
    assert state.p == pytest.approx([1 / 9, 1 / 9], rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sir_equals_power_over_effective_interference(seed):
    # the SIR the iteration reports (p / R) is the SIR of the shared channel
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    gains = rng.uniform(0.01, 1.0, size=(n, n))
    noise = rng.uniform(0.01, 0.1, size=n)
    # user i served by receiver i, with its own target and a 2 W budget
    targets = rng.uniform(0.5, 2.0, size=n)
    system = CochannelSystem(gains, noise, targets, np.full(n, 2.0))
    state = iterate_power_control(system, max_iters=3)
    # user i is served by receiver i: its row of gains, its own link on the
    # diagonal, every other user interfering
    own = np.diag(gains) * state.p
    reference = own / (gains @ state.p - own + noise)
    assert state.sir == pytest.approx(reference, rel=1e-12)


# ----------------------------------------------------------- fixed points


def test_two_user_fixed_point():
    state = iterate_power_control(CochannelSystem(*two_user_toy(), 10.0), tol=1e-12)
    assert state.converged
    assert state.p == pytest.approx([1 / 9, 1 / 9], rel=1e-8)
    assert state.supported.all()


def test_oracle_two_user_value():
    assert fixed_point_oracle(CochannelSystem(*two_user_toy(), 10.0)) == pytest.approx(
        [1 / 9, 1 / 9], rel=1e-12
    )


def test_oracle_decoupled_system():
    a = np.diag([0.5, 2.0])
    noise = np.array([0.1, 0.4])
    targets = np.array([1.0, 2.0])
    system = CochannelSystem(a, noise, targets, 10.0)
    assert fixed_point_oracle(system) == pytest.approx(
        targets * noise / np.diag(a), rel=1e-12
    )


def test_oracle_rejects_infeasible_and_bad_input():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(OracleError):
        fixed_point_oracle(
            CochannelSystem(a, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 10.0)
        )
    # a bad system fails when it is built, before any oracle sees it
    with pytest.raises(ValueError, match="finite and non-negative"):
        CochannelSystem(
            np.array([[1.0, -0.1], [0.1, 1.0]]),
            np.array([0.1, 0.1]),
            np.array([1.0, 1.0]),
            10.0,
        )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_oracle_is_componentwise_minimal(seed):
    # any vector meeting all targets (constructed with a margin) dominates it
    rng = np.random.default_rng(seed)
    inst, system = sample_feasible_instance(rng)
    p_star = fixed_point_oracle(system)
    f = system.coupling
    u = inst.targets * inst.noise / np.diag(inst.a)
    slack = rng.uniform(0.0, 1.0, size=len(u))
    other = np.linalg.solve(np.eye(len(u)) - f, u + slack)
    assert np.all(p_star <= other + 1e-12)


def test_infeasible_toy_saturates_everyone():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    system = CochannelSystem(a, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 10.0)
    state = iterate_power_control(system)
    assert state.converged
    assert state.p == pytest.approx([10.0, 10.0])
    assert not state.supported.any()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_tpc_monotone_from_zero_and_matches_oracle(seed):
    inst, system = sample_feasible_instance(np.random.default_rng(seed))
    p = np.zeros(len(inst.targets))
    prev = p
    for _ in range(4000):
        p = iterate_power_control(system, max_iters=1, p0=p).p
        assert np.all(p >= prev - 1e-15)
        if np.abs(p - prev).max() <= 1e-13 * max(p.max(), 1e-30):
            break
        prev = p
    exact = fixed_point_oracle(system)
    assert p == pytest.approx(exact, rel=1e-8)


def test_idempotence_at_fixed_point():
    system = CochannelSystem(*two_user_toy(), 10.0)
    state = iterate_power_control(system, tol=1e-12)
    again = iterate_power_control(system, max_iters=1, p0=state.p).p
    assert np.abs(again - state.p).max() <= 1e-10


def test_opc_converges_on_random_ten_user_instances():
    for seed in range(10):
        inst = sample_instance(np.random.default_rng(seed), n_users=10)
        state = iterate_power_control(
            CochannelSystem(inst.a, inst.noise, inst.targets, 10.0, eta=inst.eta),
            algorithm="opc",
            max_iters=500,
        )
        assert state.converged, f"opc failed to converge for seed {seed}"


def test_opc_fairness_pathology_two_user():
    # better direct channel wins almost all the throughput
    a = np.array([[1.0, 0.01], [0.01, 0.5]])
    state = iterate_power_control(
        CochannelSystem(
            a, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 10.0, eta=0.01
        ),
        algorithm="opc",
        tol=1e-12,
    )
    assert state.converged
    assert state.p[0] > state.p[1]
    rates = np.log2(1.0 + state.sir)
    assert rates[0] > rates[1]


def test_dtpc_fixed_point_keeps_supported_users_at_target():
    inst, _ = sample_feasible_instance(np.random.default_rng(42))
    state = iterate_power_control(
        CochannelSystem(inst.a, inst.noise, inst.targets, 1e3, eta=inst.eta),
        algorithm="dtpc",
        tol=1e-12,
        max_iters=20_000,
    )
    assert state.converged
    assert state.supported.all()
    assert np.all(state.sir >= inst.targets * (1 - 1e-9))


@pytest.mark.parametrize(
    "p0", [[0.1], [0.1, 0.1, 0.1], [0.1, -1e-300], [0.1, np.nan], [np.inf, 0.1]]
)
def test_p0_must_be_finite_non_negative_per_user(p0):
    # the convergence test takes max(p) as the inf-norm of a non-negative p
    system = CochannelSystem(*two_user_toy(), 10.0)
    with pytest.raises(ValueError, match="p0"):
        iterate_power_control(system, p0=np.array(p0))


def test_dtpc_requires_eta():
    system = CochannelSystem(*two_user_toy(), 10.0)
    with pytest.raises(ValueError, match="eta"):
        iterate_power_control(system, algorithm="dtpc")


def test_unknown_hpue_algorithm_rejected():
    # the high-priority users track with tpc or share the base map; no
    # other map is reachable from the harness
    system = CochannelSystem(
        *two_user_toy(), 10.0, eta=0.1, lpue_mask=np.array([False, True])
    )
    for hpue_algorithm in ("opc", "dtpc", "tpc_gr", "ptpc", "bogus"):
        with pytest.raises(ValueError, match="unknown base"):
            iterate_power_control(system, hpue_algorithm=hpue_algorithm)


# ------------------------------------------------------------- feasibility


def test_feasibility_two_user_values():
    noise, targets = np.array([0.1, 0.1]), np.array([1.0, 1.0])
    a = np.array([[1.0, 0.1], [0.1, 1.0]])
    res = feasibility_check(CochannelSystem(a, noise, targets, 10.0))
    assert res.feasible
    assert res.spectral_radius == pytest.approx(0.1, abs=1e-9)

    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    res = feasibility_check(CochannelSystem(a, noise, targets, 10.0))
    assert not res.feasible
    assert res.spectral_radius == pytest.approx(2.0, abs=1e-8)


def test_feasibility_single_user():
    system = CochannelSystem(
        np.array([[0.7]]), np.array([0.1]), np.array([5.0]), 10.0
    )
    res = feasibility_check(system)
    assert res.feasible
    assert res.spectral_radius == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_feasibility_within_collatz_wielandt_bracket_and_scales(seed, scale):
    # Collatz-Wielandt: for a non-negative F and any positive v, the Perron
    # root lies between the smallest and the largest ratio (F v)_i / v_i
    rng = np.random.default_rng(seed)
    inst = sample_instance(rng)
    system = instance_system(inst)
    res = feasibility_check(system)
    f = system.coupling
    for v in (np.ones(len(f)), rng.uniform(0.1, 10.0, size=len(f))):
        ratios = (f @ v) / v
        assert ratios.min() * (1.0 - 1e-12) <= res.spectral_radius
        assert res.spectral_radius <= ratios.max() * (1.0 + 1e-12)
    scaled = feasibility_check(
        CochannelSystem(inst.a, inst.noise, scale * inst.targets, 1e6)
    )
    assert scaled.spectral_radius == pytest.approx(
        scale * res.spectral_radius, rel=1e-5, abs=1e-8
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_feasible_iff_m_matrix_solve_is_positive(seed):
    # rho(F) < 1 iff I - F is a non-singular M-matrix, iff (I - F) p = u has
    # a componentwise positive solution for the oracle's positive u
    inst = sample_instance(np.random.default_rng(seed))
    system = instance_system(inst)
    check = feasibility_check(system)
    assume(abs(check.spectral_radius - 1.0) >= 1e-9)
    f = system.coupling
    u = inst.targets * inst.noise / np.diag(inst.a)
    p = np.linalg.solve(np.eye(len(u)) - f, u)
    assert bool((p > 0).all()) == check.feasible
    if check.feasible:
        fixed_point_oracle(system)
    else:
        with pytest.raises(OracleError):
            fixed_point_oracle(system)


# --------------------------------------------------------- prioritization


def _two_lpue_snapshot():
    return make_snapshot(
        [(0.0, False), (50.0, True)],
        [((50.0, float(i)), 1) for i in range(2)],
    )


def test_prioritized_caps_equal_share_value():
    # one protected receiver, two low-priority users with gain 1e-4 each:
    # each gets half of the 1e-3 W budget, so cap = 5 W
    snap = _two_lpue_snapshot()
    gains = np.array([[1e-4, 1e-4], [1e-2, 1e-2]])
    gm = GainMatrix(gains=gains, noise=np.full(2, 1e-13))
    caps = prioritized_caps(snap, gm, ith=1e-3)
    assert caps.cap[:2] == pytest.approx([5.0, 5.0])


def test_prioritized_caps_share_among_low_priority_users_only():
    # a high-priority user of the macro cell takes no share of the
    # threshold: the two low-priority users still get 5 W each, and the
    # high-priority user no cap
    snap = make_snapshot(
        [(0.0, False), (50.0, True)],
        [((0.0, 1.0), 0), ((50.0, 0.0), 1), ((50.0, 1.0), 1)],
    )
    gains = np.array([[1e-2, 1e-4, 1e-4], [1e-6, 1e-2, 1e-2]])
    gm = GainMatrix(gains=gains, noise=np.full(3, 1e-13))
    caps = prioritized_caps(snap, gm, ith=1e-3)
    assert list(snap.lpue_mask) == [False, True, True]
    assert caps.cap[1:] == pytest.approx([5.0, 5.0])
    assert caps.cap[0] == np.inf


def test_prioritized_caps_equality_at_cap():
    # transmit exactly at cap: aggregate equals the threshold
    snap = _two_lpue_snapshot()
    gains = np.array([[1e-4, 1e-4], [1e-2, 1e-2]])
    gm = GainMatrix(gains=gains, noise=np.full(2, 1e-13))
    caps = prioritized_caps(snap, gm, ith=1e-3)
    agg = gains[0] @ caps.cap[:2]
    assert agg == pytest.approx(1e-3, rel=1e-12)


@given(
    grid_rows=st.integers(1, 3),
    n_small=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    ith_w=st.floats(1e-18, 1e-3),
)
@settings(max_examples=25, deadline=None)
def test_prioritized_caps_hold_every_threshold(grid_rows, n_small, seed, ith_w):
    # equal shares: users at their caps fill each protected receiver's
    # threshold at most, up to rounding
    cfg = SimConfig(grid_rows=grid_rows)
    snap = generate_fig2_snapshot(cfg, n_small, seed)
    caps = prioritized_caps(snap, build_gain_matrix(snap, cfg), ith=ith_w)
    agg = caps.gain_block @ caps.cap[caps.lpue_index]
    assert np.all(agg <= caps.ith * (1 + 1e-12))


def test_prioritized_run_protects_receivers(cfg):
    snap = generate_fig2_snapshot(cfg, 3, 5)
    gm = build_gain_matrix(snap, cfg)
    caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
    system = cochannel_system(snap, gm, associate(snap, gm, "home", cfg), cfg, caps)
    for alg in ("ptpc", "ptpc_gr", "popc"):
        state = iterate_power_control(
            system, algorithm=alg, max_iters=cfg.max_iters
        )
        agg = caps.gain_block @ state.p[caps.lpue_index]
        assert np.all(agg <= caps.ith * (1 + 1e-12))
        # high-priority users must all be supported at this calibration
        hp = ~snap.lpue_mask
        assert state.supported[hp].all()


def test_prioritized_requires_caps():
    lpue_mask, cap = np.array([False, True]), np.array([np.inf, 5.0])
    for fields in ({}, {"lpue_mask": lpue_mask}, {"cap": cap}):
        system = CochannelSystem(*two_user_toy(), 10.0, **fields)
        with pytest.raises(ValueError, match="lpue_mask and caps"):
            iterate_power_control(system, algorithm="ptpc")


def test_cochannel_system_is_uplink_only(cfg):
    # the system reads the uplink gains: user i's row is its serving base
    # station's
    snap = generate_fig2_snapshot(cfg, 2, 3)
    gm = build_gain_matrix(snap, cfg)
    serving = associate(snap, gm, "home", cfg)
    system = cochannel_system(snap, gm, serving, cfg)
    n = snap.n_users
    assert system.off.shape == (n, n)
    assert np.array_equal(system.diag, gm.gains[serving, np.arange(n)])
    assert np.array_equal(system.targets, np.full(n, cfg.target_sir_linear))


def test_cochannel_system_carries_the_snapshot_and_caps(cfg):
    # the budget and eta come from the config, one per user, the priorities
    # from the snapshot and the caps from the cap set when one is given
    cfg = dataclasses.replace(cfg, pmax_w=0.5, opc_eta=1e-4)
    snap = generate_fig2_snapshot(cfg, 2, 3)
    gm = build_gain_matrix(snap, cfg)
    serving = associate(snap, gm, "home", cfg)
    caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
    assert cochannel_system(snap, gm, serving, cfg).cap is None
    system = cochannel_system(snap, gm, serving, cfg, caps)
    for name, want in (
        ("p_max", np.full(snap.n_users, 0.5)),
        ("eta", np.full(snap.n_users, 1e-4)),
        ("lpue_mask", snap.lpue_mask),
        ("cap", caps.cap),
    ):
        assert np.array_equal(getattr(system, name), want), name


# -------------------------------------------------------- the system


_EYE2 = np.eye(2)


def _bad_field(message, **fields):
    """A valid two-user system but for ``fields``."""
    return _EYE2, np.ones(2), np.ones(2), fields, message


# (a, noise, targets, other fields, expected message); the budget is 1 W
# unless the fields name another
_BAD_SYSTEMS = {
    "not-square": (np.ones((2, 3)), np.ones(2), np.ones(2), {}, "must be square"),
    "size-mismatch": (np.eye(3), np.ones(2), np.ones(2), {}, "must be square"),
    "negative-gain": (
        np.array([[1.0, -0.1], [0.1, 1.0]]), np.ones(2), np.ones(2), {},
        "finite and non-negative",
    ),
    "nan-gain": (
        np.array([[1.0, np.nan], [0.1, 1.0]]), np.ones(2), np.ones(2), {},
        "finite and non-negative",
    ),
    "inf-gain": (
        np.array([[1.0, np.inf], [0.1, 1.0]]), np.ones(2), np.ones(2), {},
        "finite and non-negative",
    ),
    "zero-diagonal": (
        np.array([[0.0, 0.1], [0.1, 1.0]]), np.ones(2), np.ones(2), {},
        "diagonal",
    ),
    "zero-noise": (_EYE2, np.array([0.1, 0.0]), np.ones(2), {}, "noise"),
    "nan-noise": (_EYE2, np.array([0.1, np.nan]), np.ones(2), {}, "noise"),
    "inf-noise": (_EYE2, np.array([0.1, np.inf]), np.ones(2), {}, "noise"),
    "noise-shape": (_EYE2, np.ones(3), np.ones(2), {}, "noise"),
    "negative-target": (
        _EYE2, np.ones(2), np.array([1.0, -1.0]), {}, "target SIRs"
    ),
    "nan-target": (_EYE2, np.ones(2), np.array([1.0, np.nan]), {}, "target SIRs"),
    "inf-target": (_EYE2, np.ones(2), np.array([1.0, np.inf]), {}, "target SIRs"),
    "zero-budget": _bad_field("budgets", p_max=np.array([1.0, 0.0])),
    "negative-budget": _bad_field("budgets", p_max=-1.0),
    "nan-budget": _bad_field("budgets", p_max=np.array([1.0, np.nan])),
    "budget-infinite-square": _bad_field("finite square", p_max=1e155),
    "budget-shape": _bad_field("budgets", p_max=np.ones(3)),
    "zero-eta": _bad_field("eta", eta=np.array([0.1, 0.0])),
    "negative-eta": _bad_field("eta", eta=-0.1),
    "eta-shape": _bad_field("eta", eta=np.ones(3)),
    "lpue-mask-shape": _bad_field("lpue_mask", lpue_mask=np.ones(3, dtype=bool)),
    "negative-cap": _bad_field("caps", cap=np.array([np.inf, -1.0])),
    "nan-cap": _bad_field("caps", cap=np.array([np.inf, np.nan])),
    "cap-shape": _bad_field("caps", cap=np.ones(3)),
}


@pytest.mark.parametrize("case", sorted(_BAD_SYSTEMS))
def test_system_rejects_bad_input_when_built(case):
    a, noise, targets, fields, message = _BAD_SYSTEMS[case]
    with pytest.raises(ValueError, match=message):
        CochannelSystem(a, noise, targets, **{"p_max": 1.0, **fields})


def test_system_owns_read_only_copies():
    # like NetworkSnapshot: later writes to the caller's arrays do not reach
    # the system, and its own arrays cannot be written
    a, noise, targets = two_user_toy()
    p_max, eta = np.full(2, 10.0), np.full(2, 0.1)
    lpue_mask, cap = np.array([False, True]), np.array([np.inf, 0.05])
    system = CochannelSystem(
        a, noise, targets, p_max, eta=eta, lpue_mask=lpue_mask, cap=cap
    )
    before = iterate_power_control(system, algorithm="ptpc", tol=1e-12)
    kept = {
        name: getattr(system, name).copy()
        for name in (
            "noise", "targets", "p_max", "eta", "lpue_mask", "cap", "diag", "off"
        )
    }
    for arr in (a, noise, targets, p_max, eta, cap):
        arr[...] = 7.0
    lpue_mask[...] = True
    for name, value in kept.items():
        assert np.array_equal(getattr(system, name), value), name
    assert np.array_equal(system.off, [[0.0, 0.1], [0.1, 0.0]])
    again = iterate_power_control(system, algorithm="ptpc", tol=1e-12)
    assert np.array_equal(again.p, before.p)
    for name in (*kept, "coupling"):
        arr = getattr(system, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.noise = np.ones(2)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_coupling_keeps_the_full_matrix_bits(seed):
    # F, taken from the zero-diagonal coupling the system keeps, equals
    # target_i * a[i, j] / a[i, i] of the full matrix bit for bit (same
    # operation order), and 0 on the diagonal
    inst = sample_instance(np.random.default_rng(seed))
    f = inst.targets[:, None] * inst.a / np.diag(inst.a)[:, None]
    np.fill_diagonal(f, 0.0)
    assert np.array_equal(instance_system(inst).coupling, f)


def test_verdict_and_coupling_are_computed_once(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(f):
        calls.append(len(f))
        return eigvals(f)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    system = CochannelSystem(*two_user_toy(), 10.0)
    check = feasibility_check(system)
    assert fixed_point_oracle(system) == pytest.approx([1 / 9, 1 / 9], rel=1e-12)
    assert feasibility_check(system) is check
    assert system.coupling is system.coupling
    assert calls == [2]


# ------------------------------------------- kernel equivalence reference


def _reference_iterate(
    a, noise, targets, p_max, *, algorithm, eta, lpue_mask, caps,
    hpue_algorithm, max_iters, tol, p0, sweeps=None,
):
    """Frozen per-map power-control loop: every sweep evaluates the hp and
    lp maps over all users and merges them by mask. Returns (p, iterations,
    converged) for comparison with ``iterate_power_control``. A ``sweeps``
    list receives, for every sweep, the iterate before it and its tracking
    demand target * R."""

    def update(alg, r):
        if alg == "tpc":
            return np.minimum(p_max, targets * r)
        if alg == "tpc_gr":
            q = targets * r
            return np.where(q <= p_max, q, p_max * p_max / q)
        if alg == "opc":
            return np.minimum(p_max, eta / r)
        if alg == "dtpc":
            return np.minimum(p_max, np.maximum(targets * r, eta / r))
        raise AssertionError(alg)

    n = targets.shape[0]
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), (n,)).astype(float)
    if eta is not None:
        eta = np.broadcast_to(np.asarray(eta, dtype=float), (n,)).astype(float)
    prioritized = algorithm in PRIORITIZED_BASE
    base_alg = PRIORITIZED_BASE.get(algorithm, algorithm)
    hp_alg = hpue_algorithm or ("tpc" if prioritized else algorithm)
    diag = np.diag(a).copy()
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    p = np.zeros(n) if p0 is None else np.asarray(p0, dtype=float).copy()
    static_cap = caps.cap if prioritized else None
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        r = (off @ p + noise) / diag
        if sweeps is not None:
            sweeps.append((p, targets * r))
        if lpue_mask is None:
            new = update(base_alg, r)
        else:
            new = update(hp_alg, r)
            new[lpue_mask] = update(base_alg, r)[lpue_mask]
        if static_cap is not None:
            new = np.minimum(new, static_cap)
        delta = np.abs(new - p).max() if n else 0.0
        scale = max(np.abs(p).max() if n else 0.0, 1e-30)
        p = new
        iterations = it
        if delta < tol * scale:
            converged = True
            break
    return p, iterations, converged


def _synthetic_caps(rng, a, lpue_mask, p_max):
    """A cap set for a random square system: the rows of the high-priority
    users act as protected receivers, with caps drawn below the budget so
    that some of them bind."""
    protected = np.flatnonzero(~lpue_mask)
    lpue_index = np.flatnonzero(lpue_mask)
    gain_block = a[np.ix_(protected, lpue_index)]
    cap = np.full(len(lpue_mask), np.inf)
    budget = np.broadcast_to(p_max, cap.shape)[lpue_index]
    cap[lpue_index] = budget * rng.uniform(0.05, 1.0, size=lpue_index.size)
    # a threshold the drawn caps honor at every protected receiver
    ith = float((gain_block @ cap[lpue_index]).max(initial=0.0)) + 1e-6
    return PrioritizedCapSet(
        cap=cap,
        ith=ith,
        lpue_index=lpue_index,
        gain_block=gain_block,
    )


def _equivalence_systems():
    """(a, noise, targets, p_max, eta, lpue_mask, caps) tuples: seeded random
    instances with synthetic caps, and small fig2 snapshots with their real
    prioritized caps."""
    systems = []
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        inst = sample_instance(rng, n_users=int(rng.integers(3, 9)))
        n = len(inst.targets)
        lpue_mask = np.zeros(n, dtype=bool)
        lpue_mask[rng.permutation(n)[: n // 2 + 1]] = True
        p_max = 10.0 ** rng.uniform(-1.0, 1.0)
        caps = _synthetic_caps(rng, inst.a, lpue_mask, p_max)
        systems.append(
            (inst.a, inst.noise, inst.targets, p_max, inst.eta, lpue_mask, caps)
        )
    small = SimConfig(grid_rows=2)
    for n_small, seed in ((3, 1), (5, 2)):
        snap = generate_fig2_snapshot(small, n_small, seed)
        gm = build_gain_matrix(snap, small)
        # the arrays cochannel_system reduces the snapshot to, which the
        # reference loop reads
        serving = associate(snap, gm, "home", small)
        a, noise = gm.gains[serving], gm.noise[serving]
        caps = prioritized_caps(snap, gm, ith=small.ith_w)
        targets = np.full(snap.n_users, small.target_sir_linear)
        systems.append(
            (a, noise, targets, small.pmax_w, small.opc_eta, snap.lpue_mask, caps)
        )
    return systems


_EQUIVALENCE_CASES = [(alg, hp) for alg in ALGORITHMS for hp in (None, "tpc")]


# the ids end in "static": every cap the kernel applies is a static clip
@pytest.mark.parametrize(
    "algorithm,hpue_algorithm",
    _EQUIVALENCE_CASES,
    ids=[f"{alg}-{hp}-static" for alg, hp in _EQUIVALENCE_CASES],
)
def test_kernel_matches_reference_loop(algorithm, hpue_algorithm):
    prioritized = algorithm in PRIORITIZED_BASE
    for k, (a, noise, targets, p_max, eta, lpue_mask, caps) in enumerate(
        _equivalence_systems()
    ):
        n = len(targets)
        explicit = np.random.default_rng(k).uniform(0.0, 1.0, size=n) * p_max
        masks = (lpue_mask,) if prioritized else (None, lpue_mask)
        # a loose tol stops while the iterate still moves, which pins the
        # scale of the convergence test
        for mask, p0, tol in itertools.product(
            masks, (None, explicit), (1e-9, 0.05)
        ):
            # the system always holds the caps: only prioritized runs apply them
            system = CochannelSystem(
                a, noise, targets, p_max, eta=eta, lpue_mask=mask, cap=caps.cap
            )
            kwargs = dict(
                algorithm=algorithm,
                hpue_algorithm=hpue_algorithm,
                max_iters=300,
                tol=tol,
                p0=p0,
            )
            state = iterate_power_control(system, **kwargs)
            p, iterations, converged = _reference_iterate(
                a, noise, targets, p_max, eta=eta, lpue_mask=mask,
                caps=caps if prioritized else None, **kwargs
            )
            label = (k, mask is not None, p0 is not None, tol)
            assert np.array_equal(state.p, p), label
            assert state.iterations == iterations, label
            assert state.converged == converged, label


# ------------------------------------------------ soft-removal twin sweeps


def _fork_record(system):
    """The one fork record a base run from zero kept on ``system``: (first
    sweep past its twin's removal bound, iterate before it, base result),
    the sweep and iterate None when no sweep passed the bound."""
    (record,) = system._forks.values()
    return record


def _run_twins(
    a, noise, targets, p_max, base, *, eta=None, lpue_mask=None, caps=None,
    **kwargs,
):
    """Run ``base`` from zero, which keeps its fork record on the system,
    then its twin from zero there, which resumes from that record. The twin
    must equal, bit for bit, the twin run on a fresh system and the
    reference loop, and the base must equal the base run from an explicit
    zero start, which neither keeps nor reads a record. Returns the
    record's (first sweep past the twin's removal bound, iterate before
    it)."""
    twin = SOFT_REMOVAL_TWINS[base]

    def fresh():
        return CochannelSystem(
            a, noise, targets, p_max, eta=eta, lpue_mask=lpue_mask,
            cap=None if caps is None else caps.cap,
        )

    system = fresh()
    watched = iterate_power_control(system, algorithm=base, **kwargs)
    sweep, p, kept = _fork_record(system)
    # the record keeps read-only copies of the base result
    for name in ("p", "sir", "supported"):
        arr = getattr(kept, name)
        assert arr is not getattr(watched, name) and not arr.flags.writeable
        assert np.array_equal(arr, getattr(watched, name))
    shared = iterate_power_control(system, algorithm=twin, **kwargs)
    alone = iterate_power_control(
        fresh(), algorithm=base, p0=np.zeros(len(targets)), **kwargs
    )
    full = iterate_power_control(fresh(), algorithm=twin, **kwargs)
    defaults = dict(hpue_algorithm=None, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL)
    want = _reference_iterate(
        a, noise, targets, p_max, algorithm=twin, eta=eta, lpue_mask=lpue_mask,
        caps=caps, p0=None, **{**defaults, **kwargs}
    )
    for got, same in ((watched, alone), (shared, full)):
        assert np.array_equal(got.p, same.p)
        assert got.iterations == same.iterations
        assert got.converged == same.converged
    assert np.array_equal(shared.p, want[0])
    assert (shared.iterations, shared.converged) == want[1:]
    assert np.array_equal(shared.sir, full.sir)
    assert np.array_equal(shared.supported, full.supported)
    return sweep, p


def _chain():
    # from p = 0 the demands run 0.1, 0.3, 0.7, 1.5, 3.1, 6.3, 12.7: the
    # budget of 10 W is first exceeded in sweep 7
    return np.array([[1.0, 2.0], [2.0, 1.0]]), np.full(2, 0.1), np.ones(2)


def test_twin_forks_at_first_sweep():
    a, noise, targets = two_user_toy()
    sweep, p = _run_twins(a, np.array([0.1, 20.0]), targets, 10.0, "tpc")
    assert sweep == 1
    assert np.array_equal(p, np.zeros(2))


def test_twin_forks_mid_run():
    sweep, p = _run_twins(*_chain(), 10.0, "tpc")
    assert sweep == 7
    assert p == pytest.approx([6.3, 6.3])


def test_twin_never_forks_and_copies_the_base_result():
    a, noise, targets = two_user_toy()
    assert _run_twins(a, noise, targets, 10.0, "tpc") == (None, None)
    system = CochannelSystem(a, noise, targets, 10.0)
    base = iterate_power_control(system)
    shared = iterate_power_control(system, algorithm="tpc_gr")
    assert shared.p is not base.p and shared.sir is not base.sir
    assert shared.supported is not base.supported


def test_twin_ignores_writes_into_the_base_result():
    # a caller writes into each base run's result before the twin runs on
    # the same fig2 system; the twin must equal, bit for bit, its run on a
    # fresh system. ptpc_gr copies the ptpc result (its run never forks)
    cfg = fig2_defaults()
    snap = generate_fig2_snapshot(cfg, 3, 1)
    gm = build_gain_matrix(snap, cfg)
    serving = associate(snap, gm, cfg.assoc_uplink, cfg)
    caps = prioritized_caps(snap, gm, cfg.ith_w)
    system = cochannel_system(snap, gm, serving, cfg, caps)
    for base in ("tpc", "ptpc"):
        twin = SOFT_REMOVAL_TWINS[base]
        state = iterate_power_control(system, algorithm=base, hpue_algorithm="tpc")
        state.p[:] = 0.0
        state.sir[:] = 0.0
        state.supported[:] = False
        shared = iterate_power_control(system, algorithm=twin, hpue_algorithm="tpc")
        alone = iterate_power_control(
            cochannel_system(snap, gm, serving, cfg, caps),
            algorithm=twin, hpue_algorithm="tpc",
        )
        for name in ("p", "sir", "supported"):
            assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()
        assert (shared.iterations, shared.converged) == (
            alone.iterations, alone.converged
        )
    options = ("tpc", DEFAULT_MAX_ITERS, DEFAULT_TOL, DEFAULT_TOL_SUPPORT)
    assert system._forks[("ptpc_gr", *options)][0] is None


def test_twin_max_iters_reached_before_fork():
    assert _run_twins(*_chain(), 10.0, "tpc", max_iters=4) == (None, None)


def test_prioritized_twin_forks_only_past_removal_bound():
    # uncoupled users, each with a 5 W cap under a 10 W budget: a demand
    # below 20 W = p_max**2 / cap is clipped to 5 W by both runs. The bound
    # sits one ulp below 20 W, so 20 W itself forks, with identical results
    caps = PrioritizedCapSet(
        cap=np.array([np.inf, 5.0]),
        ith=1.0,
        lpue_index=np.array([1]),
        gain_block=np.ones((1, 1)),
    )
    kwargs = dict(lpue_mask=np.array([False, True]), caps=caps)
    for demand, sweep in ((19.9, None), (20.0, 1), (25.0, 1)):
        got, _ = _run_twins(
            np.eye(2), np.array([1.0, demand]), np.ones(2), 10.0, "ptpc",
            **kwargs,
        )
        assert got == sweep, demand


@pytest.mark.parametrize("base", sorted(SOFT_REMOVAL_TWINS))
@pytest.mark.parametrize("hpue_algorithm", [None, "tpc"])
def test_twin_sweeps_match_reference_loop(base, hpue_algorithm):
    forks = set()
    for a, noise, targets, p_max, eta, lpue_mask, caps in _equivalence_systems():
        # a tenth of the budget pushes demands past it, and past the removal
        # bound p_max**2 / cap of the prioritized runs
        for budget, tol in itertools.product((p_max, 0.1 * p_max), (1e-9, 0.05)):
            sweep, _ = _run_twins(
                a, noise, targets, budget, base,
                eta=eta, lpue_mask=lpue_mask,
                caps=caps if base in PRIORITIZED_BASE else None,
                hpue_algorithm=hpue_algorithm, max_iters=300, tol=tol,
            )
            forks.add(sweep is None)
    # the systems cover both a fork and a run without one
    assert forks == {True, False}


def test_twin_copy_checks_the_kernel_options_first():
    # a base run that never forks keeps its result for its twin to copy,
    # but the twin checks its options before it reads a record
    system = CochannelSystem(*two_user_toy(), 10.0)
    iterate_power_control(system)
    assert _fork_record(system)[:2] == (None, None)
    with pytest.raises(ValueError, match="bogus"):
        iterate_power_control(
            system, algorithm="tpc_gr", hpue_algorithm="bogus", max_iters=-5
        )
    with pytest.raises(ValueError, match="max_iters"):
        iterate_power_control(system, algorithm="tpc_gr", max_iters=-5)
    with pytest.raises(TypeError):
        iterate_power_control(system, algorithm="tpc_gr", tolerance=1)


def test_twin_takes_its_base_runs_options(monkeypatch):
    # a base run keeps its record under its twin and its hpue_algorithm,
    # max_iters, tol and tol_support, the defaults included, and a twin run
    # with exactly those resumes from it: 10 sweeps without a fork on the
    # toy, a fork at sweep 7 on the chain, and neither within 3 sweeps
    defaults = (None, DEFAULT_MAX_ITERS, DEFAULT_TOL, DEFAULT_TOL_SUPPORT)
    for arrays, forks in ((two_user_toy(), None), (_chain(), 7)):
        system = CochannelSystem(*arrays, 10.0)
        iterate_power_control(system)
        iterate_power_control(system, max_iters=3, tol=0.1)
        assert list(system._forks) == [
            ("tpc_gr", *defaults), ("tpc_gr", None, 3, 0.1, DEFAULT_TOL_SUPPORT)
        ]
        assert system._forks[("tpc_gr", *defaults)][0] == forks
        counting = CountingNumpy()
        with monkeypatch.context() as patch:
            patch.setattr(power_control, "np", counting)
            got = iterate_power_control(
                system, algorithm="tpc_gr", max_iters=3, tol=0.1
            )
        # no sweep passed the bound, so the twin copies the base result
        assert counting.matmuls == 0
        want = iterate_power_control(
            CochannelSystem(*arrays, 10.0), algorithm="tpc_gr", max_iters=3, tol=0.1
        )
        assert want.iterations <= 3
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.p.tobytes() == want.p.tobytes()


def test_fork_records_do_not_leak():
    # The chain keeps two records: the defaults' (a fork at sweep 7) and
    # that of tol = 1.5 and tol_support = 0.6 (converged at sweep 3 with no
    # fork, every user supported). A twin run with other options or from a
    # p0 equals the twin run on a fresh system, bit for bit. Read from the
    # wrong record, max_iters = 5 would return the sweep-6 iterate after no
    # sweep, p0 = 9 would start at sweep 7, and tol = 1.5 would copy the
    # other tol_support's flags.
    def fresh():
        return CochannelSystem(*_chain(), 10.0)

    system = fresh()
    iterate_power_control(system)
    iterate_power_control(system, tol=1.5, tol_support=0.6)
    for options in (
        dict(max_iters=5), dict(tol=1e-6), dict(tol_support=0.5),
        dict(hpue_algorithm="tpc"), dict(tol=1.5), dict(tol_support=0.6),
        dict(p0=np.full(2, 9.0)), dict(p0=np.zeros(2)),
    ):
        got = iterate_power_control(system, algorithm="tpc_gr", **options)
        want = iterate_power_control(fresh(), algorithm="tpc_gr", **options)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        for name in ("p", "sir", "supported"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # a base run from a p0 keeps no record
    iterate_power_control(system, p0=np.full(2, 9.0), max_iters=40)
    assert len(system._forks) == 2
    # nor does a stack, nor a stack of its rows; their twins run from zero
    stack = _stacked([system, CochannelSystem(*_chain(), 20.0)])
    iterate_power_control(stack)
    sub = stack[np.array([1])]
    assert "_forks" not in stack.__dict__ and "_forks" not in sub.__dict__
    _assert_rows_match(
        iterate_power_control(sub, algorithm="tpc_gr"),
        [iterate_power_control(CochannelSystem(*_chain(), 20.0), algorithm="tpc_gr")],
    )


# ------------------------------ blocked convergence test and matrix layout


def _tol_passing_first_at(sweep):
    """A tol that tpc on the chain, with a budget it never reaches, first
    passes at ``sweep``: from p = 0, sweep t >= 2 moves the iterate by
    2**(t-1) / (2**(t-1) - 1) times its max, a ratio falling towards 1."""
    return 1e30 if sweep == 1 else 1.0 + 1.5 / (2.0 ** (sweep - 1) - 1.0)


def _chain_run(**kwargs):
    """tpc on the chain with an unreachable budget: the kernel's state and
    the reference loop's (p, iterations, converged)."""
    a, noise, targets = _chain()
    kwargs = dict(algorithm="tpc", hpue_algorithm=None, p0=None, **kwargs)
    state = iterate_power_control(CochannelSystem(a, noise, targets, 1e30), **kwargs)
    return state, _reference_iterate(
        a, noise, targets, 1e30, eta=None, lpue_mask=None, caps=None, **kwargs
    )


@pytest.mark.parametrize(
    "sweep", [1, 2, 3, 8, 15, 16, 17, 18, 31, 32, 33, 40, 48, 49]
)
def test_convergence_lands_anywhere_in_a_block(sweep):
    # the kernel's first block holds 16 sweeps and, as the step grows, the
    # next one 32: offsets inside both, their first and last sweeps, and
    # the block after them
    state, want = _chain_run(tol=_tol_passing_first_at(sweep), max_iters=100)
    assert (state.iterations, state.converged) == (sweep, True)
    assert np.array_equal(state.p, want[0])
    assert want[1:] == (sweep, True)


@pytest.mark.parametrize("max_iters", [1, 15, 16, 17, 33])
def test_max_iters_returns_its_sweep_unconverged(max_iters):
    state, want = _chain_run(tol=1e-9, max_iters=max_iters)
    assert (state.iterations, state.converged) == (max_iters, False)
    assert np.array_equal(state.p, want[0])
    assert want[1:] == (max_iters, False)
    assert state.p == pytest.approx(0.1 * (2.0**max_iters - 1.0))
    # a pass on the last allowed sweep converges
    state, _ = _chain_run(tol=_tol_passing_first_at(max_iters), max_iters=max_iters)
    assert (state.iterations, state.converged) == (max_iters, True)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_user_matches_reference_loop(algorithm):
    prioritized = algorithm in PRIORITIZED_BASE
    caps = PrioritizedCapSet(
        cap=np.array([0.15]),
        ith=1.0,
        lpue_index=np.array([0]),
        gain_block=np.ones((1, 1)),
    )
    a, noise, targets = np.array([[0.5]]), np.array([0.1]), np.ones(1)
    fields = dict(
        eta=np.array([0.01]),
        lpue_mask=np.array([True]) if prioritized else None,
    )
    system = CochannelSystem(
        a, noise, targets, 10.0, cap=caps.cap if prioritized else None, **fields
    )
    for p0, max_iters in itertools.product((None, np.array([3.0])), (1, 2, 16, 300)):
        kwargs = dict(
            algorithm=algorithm,
            hpue_algorithm=None,
            max_iters=max_iters,
            tol=1e-9,
            p0=p0,
        )
        state = iterate_power_control(system, **kwargs)
        p, iterations, converged = _reference_iterate(
            a, noise, targets, 10.0, caps=caps if prioritized else None,
            **fields, **kwargs
        )
        assert np.array_equal(state.p, p), (p0, max_iters)
        assert (state.iterations, state.converged) == (iterations, converged)


def test_single_user_twins():
    a, targets = np.array([[0.5]]), np.ones(1)
    assert _run_twins(a, np.array([0.1]), targets, 10.0, "tpc") == (None, None)
    sweep, p = _run_twins(a, np.array([20.0]), targets, 10.0, "tpc")
    assert (sweep, p.tolist()) == (1, [0.0])


def test_twin_fork_past_the_converged_sweep_is_dropped():
    # tol = 1.5 passes at sweep 3 (0.4 < 1.5 * 0.3), but the block runs on
    # to sweep 7, whose demand of 12.7 W first exceeds the 10 W budget
    system = CochannelSystem(*_chain(), 10.0)
    state = iterate_power_control(system, tol=1.5)
    assert (state.iterations, state.converged) == (3, True)
    assert _fork_record(system)[:2] == (None, None)
    assert _run_twins(*_chain(), 10.0, "tpc", tol=1.5) == (None, None)
    # the reference loop stops at sweep 3 too, and finds sweep 7 only when
    # it runs on
    assert _check_fork(*_chain(), 10.0, "tpc", tol=1.5) is None
    assert _check_fork(*_chain(), 10.0, "tpc") == 7


def _check_fork(
    a, noise, targets, p_max, base, *, lpue_mask=None, caps=None,
    hpue_algorithm=None, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL,
):
    """Run ``base`` from zero and check its fork record against the
    reference loop's sweeps: the first sweep, up to the one the run
    returns, whose demand exceeds the removal bound max(p_max,
    nextafter(p_max**2 / cap, 0)) on a user of the base map, with the
    iterate before it, or (None, None) when there is none. Returns the
    sweep."""
    prioritized = base in PRIORITIZED_BASE
    system = CochannelSystem(
        a, noise, targets, p_max, lpue_mask=lpue_mask,
        cap=None if caps is None else caps.cap,
    )
    kwargs = dict(
        algorithm=base, hpue_algorithm=hpue_algorithm, max_iters=max_iters,
        tol=tol, p0=None,
    )
    state = iterate_power_control(system, **kwargs)
    sweeps = []
    _, iterations, _ = _reference_iterate(
        a, noise, targets, p_max, eta=None, lpue_mask=lpue_mask,
        caps=caps if prioritized else None, sweeps=sweeps, **kwargs
    )
    assert state.iterations == iterations == len(sweeps)
    budget = np.broadcast_to(np.asarray(p_max, dtype=float), targets.shape)
    cap = caps.cap if prioritized else np.inf
    with np.errstate(divide="ignore"):
        bound = np.maximum(budget, np.nextafter(budget * budget / cap, 0.0))
    if lpue_mask is not None and (prioritized or hpue_algorithm == "tpc"):
        bound = np.where(lpue_mask, bound, np.inf)
    want = next(
        ((k, p) for k, (p, q) in enumerate(sweeps, 1) if (q > bound).any()),
        (None, None),
    )
    sweep, p, _ = _fork_record(system)
    assert sweep == want[0]
    if sweep is not None:
        assert np.array_equal(p, want[1])
    return sweep


@pytest.mark.parametrize("sweep", [1, 2, 15, 16, 17, 18, 32, 48, 49])
def test_fork_lands_anywhere_in_a_block(sweep):
    # on the chain from p = 0 the demand of sweep t is 0.1 * (2**t - 1), so
    # a budget between those of sweeps t - 1 and t forks at t. The step
    # doubles each sweep, so the first block (sweeps 1-16) is followed by a
    # full one (17-48): the first and last sweeps of both, and the next block
    a, noise, targets = _chain()
    assert _check_fork(a, noise, targets, 0.1 * (2.0**sweep - 1.5), "tpc") == sweep


@pytest.mark.parametrize("base", sorted(SOFT_REMOVAL_TWINS))
def test_fork_is_the_first_sweep_past_the_bound_on_fig2(cfg, base):
    # fig2's snapshots with their caps, high-priority users on tpc; a
    # hundredth of the budget makes the prioritized runs fork as well
    forks = []
    for n_small, seed, scale in itertools.product((3, 4, 5, 6), (1, 2), (1.0, 0.01)):
        snap = generate_fig2_snapshot(cfg, n_small, seed)
        gm = build_gain_matrix(snap, cfg)
        serving = associate(snap, gm, "home", cfg)
        caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
        forks.append(_check_fork(
            gm.gains[serving], gm.noise[serving],
            np.full(snap.n_users, cfg.target_sir_linear),
            scale * cfg.pmax_w, base, lpue_mask=snap.lpue_mask, caps=caps,
            hpue_algorithm="tpc", tol=cfg.tol,
        ))
    assert any(sweep is not None for sweep in forks)


@pytest.mark.parametrize("base", sorted(SOFT_REMOVAL_TWINS))
@pytest.mark.parametrize("hpue_algorithm", [None, "tpc"])
def test_fork_is_the_first_sweep_past_the_bound_on_capped_systems(
    base, hpue_algorithm
):
    forks = []
    for seed, tol in itertools.product(range(30), (1e-9, 0.05)):
        rng = np.random.default_rng(3000 + seed)
        inst, p_max, lpue_mask, caps = _random_prioritized_system(rng)
        forks.append(_check_fork(
            inst.a, inst.noise, inst.targets, p_max, base,
            lpue_mask=lpue_mask, caps=caps, hpue_algorithm=hpue_algorithm,
            max_iters=300, tol=tol,
        ))
    # both outcomes, and forks past the first sweep
    assert None in forks
    assert any(sweep is not None and sweep > 1 for sweep in forks)


def _fig2_kernel_runs(monkeypatch):
    """A 2-seed fig2 preset run in process: its report, and each kernel run
    in call order as (state, sweeps computed, sweeps needed, the fork
    record it kept or None). A run needs its iterations, less those a twin
    shares with its base run through the record it resumes from."""
    counting = CountingNumpy()
    runs = []

    def recording(system, *, algorithm, **kwargs):
        options = (kwargs["hpue_algorithm"], kwargs["max_iters"], kwargs["tol"],
                   kwargs["tol_support"])
        resumed = system._forks.get((algorithm, *options))
        before = counting.matmuls
        state = iterate_power_control(system, algorithm=algorithm, **kwargs)
        start = 1 if resumed is None else resumed[0]
        needed = 0 if start is None else state.iterations - start + 1
        kept = system._forks.get((SOFT_REMOVAL_TWINS.get(algorithm), *options))
        runs.append((state, counting.matmuls - before, needed, kept))
        return state

    with monkeypatch.context() as patch:
        patch.setattr(power_control, "np", counting)
        patch.setattr(harness, "iterate_power_control", recording)
        report = run_preset(
            "fig2", dataclasses.replace(fig2_defaults(), snapshots=2)
        )
    return report, runs


def test_fig2_computes_few_sweeps_past_the_needed_ones(monkeypatch):
    report, runs = _fig2_kernel_runs(monkeypatch)
    over = [computed - needed for _, computed, needed, _ in runs]
    working = sum(needed > 0 for _, _, needed, _ in runs)
    # the base runs keep a record each, and their twins share sweeps
    assert sum(kept is not None for *_, kept in runs) == len(runs) // 2
    assert sum(needed for _, _, needed, _ in runs) < sum(s.iterations for s, *_ in runs)
    assert working > 0 and min(over) >= 0
    # fixed blocks of 16 sweeps computed 192 sweeps too many here, up to 15
    # in one run
    assert max(over) <= 4 and sum(over) <= working
    # one sweep per block computes just the sweeps needed, with the same bits
    monkeypatch.setattr(power_control, "_BLOCK", 1)
    single, single_runs = _fig2_kernel_runs(monkeypatch)
    assert single.raw.tobytes() == report.raw.tobytes()
    for (want, _, needed, fork), (got, computed, _, kept) in zip(
        runs, single_runs, strict=True
    ):
        assert computed == needed
        assert np.array_equal(got.p, want.p)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert (kept is None) == (fork is None)
        if kept is not None:
            assert kept[0] == fork[0]
            assert np.array_equal(kept[1], fork[1])


@pytest.mark.parametrize("n", [*range(1, 10), 153, 189, 225, 261])
def test_aligned_matrix_gives_the_same_products(n):
    rng = np.random.default_rng(n)
    # entries over twelve decades, so any change of summation order shows
    a = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-12.0, 0.0, (n, n))
    view = _aligned(a)
    assert view.ctypes.data % 64 == 0
    assert view.strides == (view.strides[0], 8) and view.strides[0] % 64 == 0
    assert np.array_equal(view, a)
    out = np.empty(n)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 1.0, n)
        np.matmul(view, x, out=out)
        assert np.array_equal(out, np.matmul(a.copy(), x))


# -------------------------------------------- standard interference maps


def _capped_system(seed, p_max, algorithm):
    """The system of a feasible instance with the budget ``p_max`` and the
    inputs ``algorithm`` needs: eta, and the prioritized mask and caps."""
    rng = np.random.default_rng(seed)
    inst, _ = sample_feasible_instance(rng)
    fields = dict(eta=inst.eta)
    if algorithm in PRIORITIZED_BASE:
        n = len(inst.targets)
        lpue_mask = np.zeros(n, dtype=bool)
        lpue_mask[rng.permutation(n)[: n // 2 + 1]] = True
        fields.update(
            lpue_mask=lpue_mask,
            cap=_synthetic_caps(rng, inst.a, lpue_mask, p_max).cap,
        )
    return CochannelSystem(inst.a, inst.noise, inst.targets, p_max, **fields)


# Capped tpc and ptpc are standard interference functions (Yates, IEEE JSAC
# 13(7), 1995): positive, monotone and scalable. opc is not one, since its
# eta / R falls as interference grows, so it is not tested here.
@pytest.mark.parametrize("algorithm", ["tpc", "ptpc"])
@given(seed=st.integers(0, 10_000), p_max=st.floats(0.05, 10.0))
@settings(max_examples=25, deadline=None)
def test_iterates_from_zero_never_decrease(algorithm, seed, p_max):
    # exact: gemv with non-negative entries and the monotone per-user maps
    # keep floating-point order, so no tolerance is needed
    system = _capped_system(seed, p_max, algorithm)
    p = np.zeros(len(system.targets))
    for _ in range(5000):
        nxt = iterate_power_control(
            system, algorithm=algorithm, max_iters=1, p0=p
        ).p
        assert np.all(nxt >= p)
        if np.array_equal(nxt, p):
            break
        p = nxt
    else:
        pytest.fail("iterates did not settle within 5000 sweeps")


def _assert_cut_runs_never_step_down(run, cuts):
    """Iterate k of a run from p = 0 is what the run cut at ``max_iters =
    k`` returns (its converged iterate, if it stops earlier). The iterates
    at ``cuts`` never step down in any user, bit for bit."""
    prev = 0.0
    for k in cuts:
        p = run(max_iters=k).p
        assert np.all(p >= prev), k
        prev = p


# The kernel's blocks, stacks and cut-offs keep the order of the sweeps: each
# iterate it returns from p = 0 is the one before it swept once more
@pytest.mark.parametrize("algorithm", ["tpc", "ptpc"])
def test_fig2_iterates_from_zero_never_decrease(cfg, algorithm):
    # fig2's snapshots as the preset runs them: the caps, high-priority users
    # on tpc, cfg.tol; every sweep of each run up to its convergence
    for n_small in (3, 4, 5, 6):
        snap = generate_fig2_snapshot(cfg, n_small, 1)
        gm = build_gain_matrix(snap, cfg)
        serving = associate(snap, gm, cfg.assoc_uplink, cfg)
        caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
        system = cochannel_system(snap, gm, serving, cfg, caps)

        def run(max_iters):
            return iterate_power_control(
                system, algorithm=algorithm, hpue_algorithm="tpc",
                max_iters=max_iters, tol=cfg.tol,
            )

        sweeps = run(cfg.max_iters).iterations
        assert sweeps > 16, n_small
        _assert_cut_runs_never_step_down(run, range(1, sweeps + 1))


@pytest.mark.parametrize("algorithm", ["tpc", "ptpc"])
@given(
    rows=st.integers(1, 5),
    n=st.integers(2, 8),
    hpue_algorithm=st.sampled_from([None, "tpc"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_lockstep_iterates_from_zero_never_decrease(
    algorithm, rows, n, hpue_algorithm, seed
):
    # stacks of random systems with per-user budgets, masks and binding
    # caps: the first 48 sweeps, across the first blocks, and cuts deep in
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(rows):
        inst = sample_instance(rng, n_users=n)
        p_max = 10.0 ** rng.uniform(-1.5, 1.0, size=n)
        mask = rng.random(n) < 0.5
        systems.append(CochannelSystem(
            inst.a, inst.noise, inst.targets, p_max, lpue_mask=mask,
            cap=_synthetic_caps(rng, inst.a, mask, p_max).cap,
        ))
    stack = _stacked(systems)
    _assert_cut_runs_never_step_down(
        lambda max_iters: iterate_power_control(
            stack, algorithm=algorithm, hpue_algorithm=hpue_algorithm,
            max_iters=max_iters, tol=1e-12,
        ),
        [*range(1, 49), 100, 1000, 10_000],
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(seed=st.integers(0, 10_000), p_max=st.floats(0.05, 10.0))
@settings(max_examples=25, deadline=None)
def test_runs_from_zero_and_from_budget_meet(algorithm, seed, p_max):
    # every map is two-sided scalable, so its fixed point is unique: the
    # runs from zero and from the budget meet, to the default pc.tol, when
    # each stops at 1e-12. The standard maps also approach it monotonically
    # from both ends, so there the two runs bracket it
    system = _capped_system(seed, p_max, algorithm)
    n = len(system.targets)
    runs = [
        iterate_power_control(
            system, algorithm=algorithm, tol=1e-12, max_iters=20_000, p0=p0
        )
        for p0 in (np.zeros(n), np.full(n, p_max))
    ]
    low, high = runs
    assert low.converged and high.converged
    if algorithm in ("tpc", "ptpc"):
        assert np.all(low.p <= high.p)
    assert np.abs(high.p - low.p).max() <= DEFAULT_TOL * high.p.max()


def _random_prioritized_system(rng):
    """A ``sample_instance`` system with log-uniform per-user budgets, a
    random low-priority mask (possibly empty or full) and caps below the
    budgets. Returns (instance, budgets, mask, caps)."""
    inst = sample_instance(rng)
    n = len(inst.targets)
    p_max = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    lpue_mask = rng.uniform(size=n) < 0.5
    return inst, p_max, lpue_mask, _synthetic_caps(rng, inst.a, lpue_mask, p_max)


# Every map is two-sided scalable (Sung & Leung, IEEE Trans. IT 51(7), 2005):
# for a > 1 and p / a <= p' <= a * p, I(p) / a < I(p') < a * I(p). Each
# branch (target * R, eta / R, p_max**2 / q) scales so, and min / max with
# the budget and the caps keep it.
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(1.0, 100.0, exclude_min=True),
    u=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_maps_are_two_sided_scalable(algorithm, seed, a, u):
    rng = np.random.default_rng(seed)
    inst, p_max, lpue_mask, caps = _random_prioritized_system(rng)
    n = len(inst.targets)
    p = p_max * 10.0 ** rng.uniform(-3.0, 0.5, size=n)
    # p' anywhere in [p / a, a * p], its ends included
    p_other = np.clip(p * a ** (2.0 * np.array(u[:n]) - 1.0), p / a, p * a)

    system = CochannelSystem(
        inst.a, inst.noise, inst.targets, p_max,
        eta=inst.eta, lpue_mask=lpue_mask, cap=caps.cap,
    )

    def sweep(p0):
        return iterate_power_control(
            system, algorithm=algorithm, max_iters=1, p0=p0
        ).p

    base, other = sweep(p), sweep(p_other)
    slack = 1e-12
    assert np.all(base > 0)
    assert np.all(other < a * base * (1 + slack))
    assert np.all(other > base / a * (1 - slack))


@pytest.mark.parametrize("base", sorted(SOFT_REMOVAL_TWINS))
@given(
    seed=st.integers(0, 2**32 - 1),
    hpue_algorithm=st.sampled_from([None, "tpc"]),
    tol=st.sampled_from([1e-9, 0.05]),
)
@settings(max_examples=40, deadline=None)
def test_twin_resume_equals_full_run_on_random_systems(
    base, seed, hpue_algorithm, tol
):
    # _run_twins asserts that the resumed twin equals the twin run from the
    # start bit for bit: powers, iteration count and convergence flag
    rng = np.random.default_rng(seed)
    inst, p_max, lpue_mask, caps = _random_prioritized_system(rng)
    _run_twins(
        inst.a, inst.noise, inst.targets, p_max, base,
        eta=inst.eta, lpue_mask=lpue_mask,
        caps=caps if base in PRIORITIZED_BASE else None,
        hpue_algorithm=hpue_algorithm, max_iters=300, tol=tol,
    )


# ------------------------------------------------ fixed-point certificate


def _certify(system, algorithm, tol, hpue_algorithm=None):
    """Check a converged tpc or ptpc run against theory, not against the
    reference loop. Returns the number of users it leaves clipped.

    Both map p to min(c, F p + u), with F the system's coupling, u = target
    * noise / a[i, i] and the per-user clip c = min(p_max, cap) (the budget
    alone for tpc). With C the users the run leaves at their clip and U the
    others, the fixed point of that split has p_C = c_C and
    (I - F_UU) p_U = u_U + F_UC c_C, and it must map onto itself. The run
    stops at the first sweep p -> p' with |p' - p| < tol * max(p). When C
    already sat at its clip in p, p'_U - p*_U = -(I - F_UU)^-1 F_UU
    (p'_U - p_U), so p' lies within ||(I - F_UU)^-1 F_UU||_inf * tol * max(p)
    of p*, up to a few ulps of rounding.
    """
    state = iterate_power_control(
        system, algorithm=algorithm, hpue_algorithm=hpue_algorithm, tol=tol
    )
    assert state.converged
    # the sweep before the returned one
    prev = iterate_power_control(
        system, algorithm=algorithm, hpue_algorithm=hpue_algorithm, tol=tol,
        max_iters=state.iterations - 1,
    ).p
    c = system.p_max
    if algorithm in PRIORITIZED_BASE:
        c = np.minimum(c, system.cap)
    clipped = state.p >= c * (1 - 1e-12)
    free = ~clipped
    assert np.array_equal(prev[clipped], c[clipped])
    f = system.coupling
    u = system.targets * system.noise / system.diag
    f_uu = f[np.ix_(free, free)]
    i_minus_f = np.eye(f_uu.shape[0]) - f_uu
    p_star = c.copy()
    p_star[free] = np.linalg.solve(
        i_minus_f, u[free] + f[np.ix_(free, clipped)] @ c[clipped]
    )
    residual = np.abs(np.minimum(c, f @ p_star + u) - p_star).max()
    assert residual <= 1e-12 * p_star.max()
    gain = np.abs(np.linalg.solve(i_minus_f, f_uu)).sum(axis=1).max(initial=0.0)
    bound = (gain * tol + 4 * np.finfo(float).eps) * prev.max()
    assert np.abs(state.p - p_star).max() <= bound
    return int(clipped.sum())


@pytest.mark.parametrize("algorithm", ["tpc", "ptpc"])
def test_fig2_runs_meet_the_fixed_point_certificate(cfg, algorithm):
    # fig2's snapshots at sweep points 3..6 and seeds 1-5, each run as the
    # preset runs it: one system with the caps, high-priority users on tpc
    clipped = 0
    for n_small, seed in itertools.product((3, 4, 5, 6), range(1, 6)):
        snap = generate_fig2_snapshot(cfg, n_small, seed)
        gm = build_gain_matrix(snap, cfg)
        serving = associate(snap, gm, cfg.assoc_uplink, cfg)
        caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
        system = cochannel_system(snap, gm, serving, cfg, caps)
        clipped += _certify(system, algorithm, cfg.tol, hpue_algorithm="tpc")
    # the certificate covers clipped users, not only the plain linear solve
    assert clipped > 0


@pytest.mark.parametrize("algorithm", ["tpc", "ptpc"])
@given(seed=st.integers(0, 10_000), p_max=st.floats(0.05, 10.0))
@settings(max_examples=40, deadline=None)
def test_capped_runs_meet_the_fixed_point_certificate(algorithm, seed, p_max):
    _certify(_capped_system(seed, p_max, algorithm), algorithm, DEFAULT_TOL)


# ------------------------------------------------------ reordered sums


def _permuted(system, perm):
    """``system`` with its users reordered by ``perm``: user k of the new
    system is user ``perm[k]`` of the old, so each row of its coupling
    gemv sums the same products in another order."""
    a = system.off + np.diag(system.diag)
    return CochannelSystem(
        a[np.ix_(perm, perm)], system.noise[perm], system.targets[perm],
        system.p_max[perm], eta=system.eta[perm],
        lpue_mask=system.lpue_mask[perm], cap=system.cap[perm],
    )


def _ulps(x, y):
    """The largest distance in units in the last place between the
    non-negative float arrays ``x`` and ``y``: their int64 views count the
    floats between them."""
    return int(np.abs(x.view(np.int64) - y.view(np.int64)).max(initial=0))


@pytest.mark.parametrize("n_small", [3, 4, 5, 6])
def test_reordered_sums_move_only_the_last_bits(cfg, n_small):
    # the reports' digests pin the BLAS's summation order: the same fig2
    # system with its users permuted sums each interference row in another
    # order. Only the powers' last bits may move; every count, flag and
    # support verdict stays
    worst = 0
    for seed in range(1, 11):
        snap = generate_fig2_snapshot(cfg, n_small, seed)
        gm = build_gain_matrix(snap, cfg)
        serving = associate(snap, gm, cfg.assoc_uplink, cfg)
        caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
        system = cochannel_system(snap, gm, serving, cfg, caps)
        perm = np.random.default_rng(seed).permutation(snap.n_users)
        moved = _permuted(system, perm)
        # old user perm[k] is new user k
        back = np.argsort(perm)
        for alg in harness.FIG2_ALGORITHMS:
            kwargs = dict(
                algorithm=alg, hpue_algorithm="tpc", max_iters=cfg.max_iters,
                tol=cfg.tol, tol_support=cfg.tol_support,
            )
            state = iterate_power_control(system, **kwargs)
            other = iterate_power_control(moved, **kwargs)
            assert (other.iterations, other.converged) == (
                state.iterations, state.converged
            ), (seed, alg)
            assert np.array_equal(other.supported[back], state.supported)
            worst = max(worst, _ulps(other.p[back], state.p))
    # 9, 42, 22 and 26 ulps at n_small = 3..6 with OpenBLAS 0.3.31
    assert worst <= 64


# ------------------------------------------------------- lockstep stacks


@pytest.mark.parametrize("n", [*range(10), 225])
def test_stacked_matmul_matches_per_slice_gemv(n):
    # the lockstep kernel's sweep is one (B, n, n) @ (B, n, 1) product,
    # which NumPy runs as one gemv per slice: each slice's bits are those of
    # the slice's own 2-D product, on an aligned stack and on a stack of
    # one row alike. A NumPy or BLAS that batches the slices another way
    # fails here first
    rng = np.random.default_rng(1000 + n)
    stack = 5
    # entries over twelve decades, so any change of summation order shows
    a = rng.uniform(0.0, 1.0, (stack, n, n)) * 10.0 ** rng.uniform(
        -12.0, 0.0, (stack, n, n)
    )
    x = rng.uniform(0.0, 1.0, (stack, n)) * 10.0 ** rng.uniform(-6.0, 1.0, (stack, n))
    want = np.array([np.matmul(a[b], x[b]) for b in range(stack)])
    aligned = _aligned(a)
    assert n == 0 or (aligned.ctypes.data % 64 == 0 and aligned.strides[1] % 64 == 0)
    out = np.empty((stack, n, 1))
    for matrices in (a, aligned):
        np.matmul(matrices, x[:, :, None], out=out)
        assert out[:, :, 0].tobytes() == want.tobytes()
    for b in range(stack):
        one = _aligned(a[b])[None]
        assert (one @ x[b, None, :, None])[0, :, 0].tobytes() == want[b].tobytes()


def _stacked(systems):
    """One CochannelSystem stacking ``systems`` (same n) along a leading axis."""
    def field(name):
        values = [getattr(s, name) for s in systems]
        return None if values[0] is None else np.stack(values)

    a = np.stack([s.off + np.diag(s.diag) for s in systems])
    return CochannelSystem(
        a, field("noise"), field("targets"), field("p_max"), eta=field("eta"),
        lpue_mask=field("lpue_mask"), cap=field("cap"),
    )


def _assert_rows_match(stack_state, singles):
    """Each row of a stack's result, in the stack's shape, is the single
    run's, in the single system's shape, bit for bit."""
    rows, n = len(singles), singles[0].p.shape[0]
    for name in ("p", "sir", "supported"):
        assert getattr(stack_state, name).shape == (rows, n), name
    assert stack_state.iterations.shape == stack_state.converged.shape == (rows,)
    assert stack_state.converged.dtype == bool
    for b, one in enumerate(singles):
        assert type(one.iterations) is int and type(one.converged) is bool, b
        for name in ("p", "sir", "supported"):
            got, want = getattr(stack_state, name)[b], getattr(one, name)
            assert got.dtype == want.dtype, (b, name)
            assert got.tobytes() == want.tobytes(), (b, name)
        assert stack_state.iterations[b] == one.iterations, b
        assert stack_state.converged[b] == one.converged, b


def _run_lockstep(systems, *, p0=None, **kwargs):
    """The lockstep run of ``systems`` stacked, checked row by row against
    their single runs. Returns the lockstep state."""
    rows = [None] * len(systems) if p0 is None else list(p0)
    state = iterate_power_control(_stacked(systems), p0=p0, **kwargs)
    _assert_rows_match(
        state,
        [iterate_power_control(s, p0=q, **kwargs) for s, q in zip(systems, rows)],
    )
    return state


@given(
    rows=st.integers(2, 5),
    n=st.integers(1, 6),
    algorithm=st.sampled_from(ALGORITHMS),
    hpue_algorithm=st.sampled_from([None, "tpc"]),
    masked=st.booleans(),
    explicit_p0=st.booleans(),
    max_iters=st.sampled_from([1, 7, 16, 40, 300]),
    tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_lockstep_rows_match_single_runs(
    rows, n, algorithm, hpue_algorithm, masked, explicit_p0, max_iters, tol, seed
):
    # B random systems of one size in lockstep: every row's powers, SIRs,
    # support flags, sweep count and convergence flag equal those of
    # its system run alone, whatever the algorithm, caps, masks, budgets,
    # starts and cut-offs
    rng = np.random.default_rng(seed)
    masked = masked or algorithm in PRIORITIZED_BASE
    systems = []
    for _ in range(rows):
        inst = sample_instance(rng, n_users=n)
        p_max = 10.0 ** rng.uniform(-1.5, 1.0, size=n)
        fields = dict(eta=inst.eta)
        if masked:
            mask = rng.random(n) < 0.5
            fields.update(
                lpue_mask=mask, cap=_synthetic_caps(rng, inst.a, mask, p_max).cap
            )
        systems.append(
            CochannelSystem(inst.a, inst.noise, inst.targets, p_max, **fields)
        )
    p0 = None
    if explicit_p0:
        p0 = rng.uniform(0.0, 1.0, (rows, n)) * np.stack([s.p_max for s in systems])
    _run_lockstep(
        systems, p0=p0, algorithm=algorithm, hpue_algorithm=hpue_algorithm,
        max_iters=max_iters, tol=tol,
    )


def test_lockstep_rows_finish_in_different_blocks_and_fork_apart():
    # chains whose budgets sit between the demands of sweeps t - 1 and t
    # fork at t and then converge on their budget a few sweeps later, so
    # the rows leave the stack in different blocks and in an order unlike
    # the stack's; the last budget is never reached and runs to max_iters
    a, noise, targets = _chain()
    budgets = [30.0, 0.2, 2000.0, 5.0, 1e30, 400.0, 1.0]
    systems = [CochannelSystem(a, noise, targets, b) for b in budgets]
    state = _run_lockstep(systems, algorithm="tpc", max_iters=60)
    assert state.converged.tolist() == [True] * 4 + [False] + [True] * 2
    assert state.iterations[4] == 60
    # first blocks of 16 sweeps, then 2 to 32: finishes in at least three
    assert len({int(i) // 16 for i in state.iterations}) >= 3
    # the single runs kept fork records at seven different sweeps, which
    # their twins resume from; soft removal does not settle on the
    # infeasible chain, so they end apart, most at max_iters
    assert [_fork_record(s)[0] for s in systems] == [9, 2, 15, 6, None, 12, 4]
    shared = [
        iterate_power_control(s, algorithm="tpc_gr", max_iters=60) for s in systems
    ]
    assert [one.iterations for one in shared] == [60, 58, 60, 60, 60, 60, 60]
    # rows cut at max_iters while others converge in the same block
    _run_lockstep(systems, algorithm="tpc", max_iters=12)


def test_lockstep_single_system_is_a_stack_of_one():
    # a single system's (n,) arrays and Python scalars are row 0 of the
    # stack of one; only the single system keeps a fork record
    system = CochannelSystem(*_chain(), 10.0)
    one = iterate_power_control(system, algorithm="tpc")
    assert _fork_record(system)[0] == 7
    stack = _stacked([system])
    assert stack.targets.shape == (1, 2)
    _assert_rows_match(iterate_power_control(stack, algorithm="tpc"), [one])
    _assert_rows_match(
        iterate_power_control(stack, algorithm="tpc_gr"),
        [iterate_power_control(system, algorithm="tpc_gr")],
    )
    assert "_forks" not in stack.__dict__
    pair = _stacked([system, system])
    with pytest.raises(ValueError, match="p0"):
        iterate_power_control(pair, p0=np.ones(2))


def test_single_system_results_take_its_shape():
    # (n,) arrays, and Python scalars that a JSON encoder (as perfbench's
    # tracer, which records a run's sweeps) takes as they are; p0 has the
    # shape of the system's targets
    system = CochannelSystem(*_chain(), 10.0)
    base = iterate_power_control(system, max_iters=5)
    # the twin copies the base result: the chain forks at sweep 7
    for state in (base, iterate_power_control(system, algorithm="tpc_gr",
                                              max_iters=5)):
        for name in ("p", "sir", "supported"):
            assert getattr(state, name).shape == (2,), name
        assert type(state.iterations) is int and type(state.converged) is bool
        assert json.dumps([state.iterations, state.converged]) == "[5, false]"
    with pytest.raises(ValueError, match="p0"):
        iterate_power_control(system, p0=np.zeros((1, 2)))


def test_stacked_system_validates_and_checks_every_row():
    systems = [
        instance_system(sample_instance(np.random.default_rng(s), n_users=4))
        for s in range(6)
    ]
    stack = _stacked(systems)
    assert stack.off.shape == (6, 4, 4) and stack.off.strides[1] % 64 == 0
    assert stack.coupling.tobytes() == np.stack([s.coupling for s in systems]).tobytes()
    check = feasibility_check(stack)
    assert check.spectral_radius.tolist() == [
        feasibility_check(s).spectral_radius for s in systems
    ]
    assert check.feasible.tolist() == [feasibility_check(s).feasible for s in systems]
    rows = np.flatnonzero(check.feasible)
    assert rows.size
    sub = stack[rows]
    radius = sub.feasibility.spectral_radius
    assert radius.tolist() == check.spectral_radius[rows].tolist()
    exact = fixed_point_oracle(sub)
    for row, p in zip(rows, exact):
        assert p.tobytes() == fixed_point_oracle(systems[row]).tobytes()
    if rows.size < len(systems):
        with pytest.raises(OracleError, match="infeasible"):
            fixed_point_oracle(stack)
    bad = np.stack([np.eye(2), [[1.0, -0.1], [0.1, 1.0]]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        CochannelSystem(bad, np.ones((2, 2)), np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError, match="noise"):
        CochannelSystem(np.stack([np.eye(2)] * 2), np.ones(2), np.ones((2, 2)), 1.0)
