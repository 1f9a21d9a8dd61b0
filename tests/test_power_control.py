import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot, two_user_toy
from hetsim.association import AssociationMap, associate
from hetsim.errors import OracleError
from hetsim.network import (
    GainMatrix,
    build_gain_matrix,
    compute_all_sirs,
    generate_fig2_snapshot,
)
from hetsim.power_control import (
    PrioritizedCapSet,
    cochannel_system,
    dtpc_update,
    feasibility_check,
    fixed_point_oracle,
    interference_matrix,
    iterate_power_control,
    opc_update,
    prioritized_caps,
    run_power_control,
    sample_feasible_instance,
    sample_instance,
    tpc_gr_update,
    tpc_update,
)


def _assoc(primary, direction="uplink"):
    return AssociationMap(
        direction=direction, scheme="home", primary=tuple(primary)
    )


# ---------------------------------------------------------------- updates


def test_tpc_update_tracks_and_caps():
    assert tpc_update(1 / 9, 1.0, 10.0) == pytest.approx(1 / 9)
    assert tpc_update(8.0, 2.0, 10.0) == 10.0


def test_tpc_single_user_converges_in_one_step():
    a = np.array([[0.5]])
    st_ = iterate_power_control(a, np.array([0.1]), np.array([1.0]), 10.0)
    assert st_.p[0] == pytest.approx(0.2, rel=1e-12)
    assert st_.sir[0] == pytest.approx(1.0, rel=1e-12)


def test_tpc_gr_matches_tpc_when_feasible():
    r = np.array([0.3, 0.5])
    assert tpc_gr_update(r, 1.0, 10.0) == pytest.approx(tpc_update(r, 1.0, 10.0))


def test_tpc_gr_soft_removal_value():
    assert tpc_gr_update(20.0, 1.0, 10.0) == pytest.approx(5.0)


@given(q=st.floats(10.001, 1e12))
def test_tpc_gr_backs_off_monotonically(q):
    # demand beyond the budget: power p_max**2/q decreases toward zero
    p = tpc_gr_update(np.array([q]), 1.0, 10.0)[0]
    p2 = tpc_gr_update(np.array([2 * q]), 1.0, 10.0)[0]
    assert 0 < p <= 10.0
    assert p2 < p


def test_opc_update_values():
    assert opc_update(0.2, 0.02, 10.0) == pytest.approx(0.1)
    assert opc_update(0.05, 1.0, 10.0) == 10.0  # capped


def test_opc_better_channel_gets_more_power():
    assert opc_update(0.01, 0.02, 10.0) > opc_update(0.1, 0.02, 10.0)


def test_dtpc_branches():
    assert dtpc_update(0.05, 1.0, 0.01, 10.0) == pytest.approx(0.2)  # opc side
    assert dtpc_update(0.5, 1.0, 0.01, 10.0) == pytest.approx(0.5)  # tpc side


def test_prioritized_update_caps_lpues_only():
    # one synchronous sweep from p0 with R = 1: both users demand 8 W, only
    # the low-priority one is clipped at its 5 W cap
    caps = PrioritizedCapSet(
        cap=np.array([np.inf, 5.0]),
        thresholds=np.ones(1),
        shares=np.ones(1, dtype=int),
        protected=np.zeros(1, dtype=int),
        lpue_index=np.array([1]),
        gain_block=np.ones((1, 1)),
        above_floor=np.ones((1, 1), dtype=bool),
    )
    state = iterate_power_control(
        np.eye(2),
        np.ones(2),
        np.array([8.0, 8.0]),
        10.0,
        algorithm="ptpc",
        lpue_mask=np.array([False, True]),
        caps=caps,
        max_iters=1,
    )
    assert state.p == pytest.approx([8.0, 5.0])


# ------------------------------------------------- effective interference


def test_effective_interference_noise_only():
    # from p = 0, one tracking sweep at unit target returns R = noise / gain
    state = iterate_power_control(
        np.array([[0.5]]), np.array([0.1]), np.array([1.0]), 10.0, max_iters=1
    )
    assert state.p == pytest.approx([0.2])


def test_effective_interference_two_user_toy():
    # at the toy's fixed point R_i = (0.1 / 9 + 0.1) / 1 = 1 / 9
    a, noise, targets = two_user_toy()
    state = iterate_power_control(
        a, noise, targets, 10.0, p0=np.array([1 / 9, 1 / 9]), max_iters=1
    )
    assert state.p == pytest.approx([1 / 9, 1 / 9], rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sir_equals_power_over_effective_interference(seed):
    # the SIR the iteration reports (p / R) is the SIR of the shared channel
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    gains = rng.uniform(0.01, 1.0, size=(n, n))
    gm = GainMatrix(gains=gains, noise=rng.uniform(0.01, 0.1, size=n))
    assoc = _assoc(list(range(n)))
    a, noise = cochannel_system(gm, assoc)
    state = iterate_power_control(
        a, noise, rng.uniform(0.5, 2.0, size=n), 2.0, max_iters=3
    )
    assert state.sir == pytest.approx(
        compute_all_sirs(state.p, gm, assoc), rel=1e-12
    )


# ----------------------------------------------------------- fixed points


def test_two_user_fixed_point():
    a, noise, targets = two_user_toy()
    state = iterate_power_control(a, noise, targets, 10.0, tol=1e-12)
    assert state.converged
    assert state.p == pytest.approx([1 / 9, 1 / 9], rel=1e-8)
    assert state.supported.all()


def test_oracle_two_user_value():
    a, noise, targets = two_user_toy()
    assert fixed_point_oracle(a, noise, targets) == pytest.approx(
        [1 / 9, 1 / 9], rel=1e-12
    )


def test_oracle_decoupled_system():
    a = np.diag([0.5, 2.0])
    noise = np.array([0.1, 0.4])
    targets = np.array([1.0, 2.0])
    assert fixed_point_oracle(a, noise, targets) == pytest.approx(
        targets * noise / np.diag(a), rel=1e-12
    )


def test_oracle_rejects_infeasible_and_bad_input():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(OracleError):
        fixed_point_oracle(a, np.array([0.1, 0.1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fixed_point_oracle(
            np.array([[1.0, -0.1], [0.1, 1.0]]),
            np.array([0.1, 0.1]),
            np.array([1.0, 1.0]),
        )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_oracle_is_componentwise_minimal(seed):
    # any vector meeting all targets (constructed with a margin) dominates it
    rng = np.random.default_rng(seed)
    inst = sample_feasible_instance(rng)
    p_star = fixed_point_oracle(inst.a, inst.noise, inst.targets)
    f = interference_matrix(inst.a, inst.targets)
    u = inst.targets * inst.noise / np.diag(inst.a)
    slack = rng.uniform(0.0, 1.0, size=len(u))
    other = np.linalg.solve(np.eye(len(u)) - f, u + slack)
    assert np.all(p_star <= other + 1e-12)


def test_infeasible_toy_saturates_everyone():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    state = iterate_power_control(
        a, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 10.0
    )
    assert state.converged
    assert state.p == pytest.approx([10.0, 10.0])
    assert not state.supported.any()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_tpc_monotone_from_zero_and_matches_oracle(seed):
    inst = sample_feasible_instance(np.random.default_rng(seed))
    n = len(inst.targets)
    diag = np.diag(inst.a)
    off = inst.a.copy()
    np.fill_diagonal(off, 0.0)
    p = np.zeros(n)
    prev = p
    for _ in range(4000):
        r = (off @ p + inst.noise) / diag
        p = tpc_update(r, inst.targets, 1e6)
        assert np.all(p >= prev - 1e-15)
        if np.abs(p - prev).max() <= 1e-13 * max(p.max(), 1e-30):
            break
        prev = p
    exact = fixed_point_oracle(inst.a, inst.noise, inst.targets)
    assert p == pytest.approx(exact, rel=1e-8)


def test_idempotence_at_fixed_point():
    a, noise, targets = two_user_toy()
    state = iterate_power_control(a, noise, targets, 10.0, tol=1e-12)
    diag = np.diag(a)
    off = a - np.diag(diag)
    r = (off @ state.p + noise) / diag
    again = tpc_update(r, targets, 10.0)
    assert np.abs(again - state.p).max() <= 1e-10


def test_opc_converges_on_random_ten_user_instances():
    for seed in range(10):
        inst = sample_instance(np.random.default_rng(seed), n_users=10)
        state = iterate_power_control(
            inst.a,
            inst.noise,
            inst.targets,
            10.0,
            algorithm="opc",
            eta=inst.eta,
            max_iters=500,
        )
        assert state.converged, f"opc failed to converge for seed {seed}"


def test_opc_fairness_pathology_two_user():
    # better direct channel wins almost all the throughput
    a = np.array([[1.0, 0.01], [0.01, 0.5]])
    state = iterate_power_control(
        a,
        np.array([0.1, 0.1]),
        np.array([1.0, 1.0]),
        10.0,
        algorithm="opc",
        eta=0.01,
        tol=1e-12,
    )
    assert state.converged
    assert state.p[0] > state.p[1]
    rates = np.log2(1.0 + state.sir)
    assert rates[0] > rates[1]


def test_dtpc_fixed_point_keeps_supported_users_at_target():
    inst = sample_feasible_instance(np.random.default_rng(42))
    state = iterate_power_control(
        inst.a,
        inst.noise,
        inst.targets,
        1e3,
        algorithm="dtpc",
        eta=inst.eta,
        tol=1e-12,
        max_iters=20_000,
    )
    assert state.converged
    assert state.supported.all()
    assert np.all(state.sir >= inst.targets * (1 - 1e-9))


def test_dtpc_requires_eta():
    a, noise, targets = two_user_toy()
    with pytest.raises(ValueError):
        iterate_power_control(a, noise, targets, 10.0, algorithm="dtpc")


# ------------------------------------------------------------- feasibility


def test_feasibility_two_user_values():
    a = np.array([[1.0, 0.1], [0.1, 1.0]])
    res = feasibility_check(a, np.array([0.1, 0.1]), np.array([1.0, 1.0]))
    assert res.feasible
    assert res.spectral_radius == pytest.approx(0.1, abs=1e-9)

    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    res = feasibility_check(a, np.array([0.1, 0.1]), np.array([1.0, 1.0]))
    assert not res.feasible
    assert res.spectral_radius == pytest.approx(2.0, abs=1e-8)


def test_feasibility_single_user():
    res = feasibility_check(np.array([[0.7]]), np.array([0.1]), np.array([5.0]))
    assert res.feasible
    assert res.spectral_radius == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_feasibility_matches_dense_eigenvalues_and_scales(seed, scale):
    # the 1e-10 successive-difference stopping rule bounds the achievable
    # absolute accuracy near 1e-8 when the eigenvalue gap is small
    inst = sample_instance(np.random.default_rng(seed))
    res = feasibility_check(inst.a, inst.noise, inst.targets)
    dense = np.abs(
        np.linalg.eigvals(interference_matrix(inst.a, inst.targets))
    ).max()
    assert res.spectral_radius == pytest.approx(dense, rel=1e-5, abs=1e-8)
    scaled = feasibility_check(inst.a, inst.noise, scale * inst.targets)
    assert scaled.spectral_radius == pytest.approx(
        scale * res.spectral_radius, rel=1e-5, abs=1e-8
    )


# --------------------------------------------------------- prioritization


def _two_lpue_snapshot():
    return make_snapshot(
        [(0.0, False, 10.0), (50.0, True, 1.0)],
        [((50.0, float(i)), 1) for i in range(2)],
        direction="uplink",
        geometry="grid",
    )


def test_prioritized_caps_equal_share_value():
    # one protected receiver, two low-priority users with gain 1e-4 each:
    # each gets half of the 1e-3 W budget, so cap = 5 W
    snap = _two_lpue_snapshot()
    gains = np.array([[1e-4, 1e-4], [1e-2, 1e-2]])
    gm = GainMatrix(gains=gains, noise=np.full(2, 1e-13))
    caps = prioritized_caps(snap, gm, ith=1e-3)
    assert caps.shares.tolist() == [2]
    assert caps.cap[:2] == pytest.approx([5.0, 5.0])


def test_prioritized_caps_unconstrained_below_floor(cfg):
    snap = generate_fig2_snapshot(cfg, 1, 2)
    gm = build_gain_matrix(snap, cfg)
    caps = prioritized_caps(snap, gm, ith=1e-12, eps_floor=1.0)
    lp = np.flatnonzero(snap.lpue_mask)
    assert caps.cap[lp] == pytest.approx(snap.p_max[lp])
    assert np.all(caps.shares == 0)


def test_prioritized_caps_equality_at_cap():
    # transmit exactly at cap: aggregate equals the threshold
    snap = _two_lpue_snapshot()
    gains = np.array([[1e-4, 1e-4], [1e-2, 1e-2]])
    gm = GainMatrix(gains=gains, noise=np.full(2, 1e-13))
    caps = prioritized_caps(snap, gm, ith=1e-3)
    agg = gains[0] @ caps.cap[:2]
    assert agg == pytest.approx(1e-3, rel=1e-12)


def test_prioritized_run_protects_receivers(cfg):
    snap = generate_fig2_snapshot(cfg, 3, 5)
    gm = build_gain_matrix(snap, cfg)
    assoc = associate(snap, gm, "home", "uplink")
    caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
    for alg in ("ptpc", "ptpc_gr", "popc"):
        state = run_power_control(
            alg, snap, gm, assoc, caps=caps, max_iters=cfg.max_iters
        )
        agg = caps.gain_block @ state.p[caps.lpue_index]
        assert np.all(agg <= caps.thresholds * (1 + 1e-12))
        # high-priority users must all be supported at this calibration
        hp = ~snap.lpue_mask
        assert state.supported[hp].all()


def test_closed_loop_mode_safe_at_convergence(cfg):
    snap = generate_fig2_snapshot(cfg, 3, 8)
    gm = build_gain_matrix(snap, cfg)
    assoc = associate(snap, gm, "home", "uplink")
    caps = prioritized_caps(snap, gm, ith=cfg.ith_w)
    state = run_power_control(
        "ptpc",
        snap,
        gm,
        assoc,
        caps=caps,
        cap_mode="closed_loop",
        max_iters=20_000,
        tol=1e-10,
    )
    if state.converged:
        agg = caps.gain_block @ state.p[caps.lpue_index]
        assert np.all(agg <= caps.thresholds * (1 + 1e-9))


def test_prioritized_requires_caps():
    a, noise, targets = two_user_toy()
    with pytest.raises(ValueError):
        iterate_power_control(a, noise, targets, 10.0, algorithm="ptpc")


def test_cochannel_system_is_uplink_only(cfg):
    snap = generate_fig2_snapshot(cfg, 2, 3)
    gm = build_gain_matrix(snap, cfg)
    assoc = associate(snap, gm, "home", "uplink")
    a, noise = cochannel_system(gm, assoc)
    assert a.shape == (snap.n_users, snap.n_users)
    down = AssociationMap(
        direction="downlink", scheme="rsrp", primary=assoc.primary
    )
    with pytest.raises(ValueError):
        cochannel_system(gm, down)
