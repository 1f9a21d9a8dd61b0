import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot
from hetsim.association import SCHEMES, associate, link_scores, score_matrix
from hetsim.config import SimConfig
from hetsim.network import (
    GainMatrix,
    build_gain_matrix,
    generate_fig2_snapshot,
    generate_fig3_snapshot,
    tier_powers,
)

# the toys' BS powers: 10 W macro cells, 1 W small cells
TOY = SimConfig(power_macro_w=10.0, power_small_w=1.0)


def _downlink_snapshot(bs_specs, user_positions):
    """bs_specs: list of (x, tier); users get home 0."""
    bs = [(x, tier == "small") for x, tier in bs_specs]
    return make_snapshot(bs, [(pos, 0) for pos in user_positions])


def test_rsrp_score_prefers_stronger_received_power():
    # macro 10 W at gain 1e-9 -> 1e-8; small 1 W at gain 1e-7 -> 1e-7
    snap = _downlink_snapshot([(0.0, "macro"), (100.0, "small")], [(0.0, 0.0)])
    gm = GainMatrix(gains=np.array([[1e-9, 1e-7]]), noise=np.array([1e-13]))
    scores = score_matrix(snap, gm, "rsrp", TOY)
    assert scores[0] == pytest.approx([1e-8, 1e-7])
    assert associate(snap, gm, "rsrp", TOY).tolist() == [1]


def test_cre_bias_flips_the_winner():
    # macro rsrp 1e-8 vs small 2e-9; 10 dB small-tier bias -> 2e-8 wins
    snap = _downlink_snapshot([(0.0, "macro"), (100.0, "small")], [(0.0, 0.0)])
    gm = GainMatrix(gains=np.array([[1e-9, 2e-9]]), noise=np.array([1e-13]))
    assert associate(snap, gm, "rsrp", TOY).tolist() == [0]
    biased = dataclasses.replace(TOY, bias_db=10.0)
    assert score_matrix(snap, gm, "cre", biased)[0, 1] == pytest.approx(2e-8)
    assert associate(snap, gm, "cre", biased).tolist() == [1]


def test_hybrid_zero_access_probability_never_selected():
    snap = _downlink_snapshot([(0.0, "macro"), (1.0, "small")], [(1.0, 0.0)])
    # candidate 1 has far better channel but zero access probability
    gm = GainMatrix(gains=np.array([[1e-9, 1e-2]]), noise=np.array([1e-13]))
    access = np.array([0.5, 0.0])
    power = tier_powers(TOY, snap.bs_small)
    scores = link_scores(
        "hybrid", gm.gains, power=power, noise=gm.noise, access=access
    )
    assert scores[0, 1] == 0.0
    assert np.argmax(scores, axis=1).tolist() == [0]


def test_resource_scheme_picks_lighter_cell():
    # incumbents 4 vs 9 under round robin: joiner shares 1/5 vs 1/10
    users = [((5.0, 0.0), 0)]
    for b, count in ((0, 4), (1, 9)):
        users += [((float(b), 1.0), b)] * count
    snap = make_snapshot([(0.0, True), (10.0, True)], users)
    gm = build_gain_matrix(snap, TOY)
    scores = score_matrix(snap, gm, "resource", TOY)
    assert scores[0] == pytest.approx([1 / 5, 1 / 10])
    assert associate(snap, gm, "resource", TOY)[0] == 0


def test_resource_counts_self_out_of_home_cell():
    # a user already in a 4-user cell keeps its admitted share 1/4
    snap = make_snapshot([(0.0, True)], [((0.0, float(i)), 0) for i in range(4)])
    gm = build_gain_matrix(snap, TOY)
    scores = score_matrix(snap, gm, "resource", TOY)
    assert scores == pytest.approx(np.full((4, 1), 0.25))


def test_unknown_scheme_rejected():
    snap = _downlink_snapshot([(0.0, "macro")], [(1.0, 0.0)])
    gm = GainMatrix(gains=np.array([[1e-9]]), noise=np.array([1e-13]))
    with pytest.raises(ValueError):
        score_matrix(snap, gm, "strongest", TOY)


def test_rsrp_association_on_grid_snapshot(cfg):
    snap = generate_fig2_snapshot(cfg, 2, 4)
    gm = build_gain_matrix(snap, cfg)
    serving = associate(snap, gm, "rsrp", cfg)
    rp = score_matrix(snap, gm, "rsrp", cfg)
    assert serving.shape == (snap.n_users,)
    for i, b in enumerate(serving):
        assert rp[i, b] == rp[i].max()


@given(seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_argmax_invariance_under_increasing_transforms(seed):
    cfg = SimConfig()
    snap = generate_fig3_snapshot(cfg, 8, seed)
    gm = build_gain_matrix(snap, cfg)
    def serving(scores):
        return np.argmax(scores, axis=1).tolist()

    scores = score_matrix(snap, gm, "rsrq", cfg)
    base = serving(scores)
    assert serving(3.0 * scores + 7.0) == base
    assert serving(np.log(scores)) == base
    positive = score_matrix(snap, gm, "rsrp", cfg)
    assert serving(positive) == serving(np.sqrt(positive))


def test_tie_break_lowest_bs_id():
    snap = _downlink_snapshot([(-10.0, "small"), (10.0, "small")], [(0.0, 0.0)])
    gm = build_gain_matrix(snap, TOY)
    assert associate(snap, gm, "rsrp", TOY).tolist() == [0]


def test_mei_equals_rsrq_selection_on_uplink(cfg):
    # equal budgets: the minimum-effective-interference cell is the max-SIR one
    snap = generate_fig2_snapshot(cfg, 3, 6)
    gm = build_gain_matrix(snap, cfg)
    assert np.array_equal(
        associate(snap, gm, "mei", cfg), associate(snap, gm, "rsrq", cfg)
    )


@given(bias_lo=st.floats(0.0, 12.0), bias_delta=st.floats(0.0, 12.0))
@settings(max_examples=20, deadline=None)
def test_cre_small_cell_share_monotone_in_bias(bias_lo, bias_delta):
    cfg = SimConfig()
    snap = generate_fig3_snapshot(cfg, 10, 3)
    gm = build_gain_matrix(snap, cfg)
    def offloaded(bias):
        serving = associate(snap, gm, "cre", dataclasses.replace(cfg, bias_db=bias))
        return set(np.flatnonzero(snap.bs_small[serving]))

    lo = offloaded(bias_lo)
    hi = offloaded(bias_lo + bias_delta)
    assert lo <= hi


def test_resource_load_response(cfg):
    # adding one user to a cell lowers its score for everyone else and
    # cannot attract a user that did not already prefer it
    snap = generate_fig3_snapshot(cfg, 6, 9)
    gm = build_gain_matrix(snap, cfg)
    before = score_matrix(snap, gm, "resource", cfg)
    pick_before = np.argmax(before, axis=1)

    target_bs = 1
    heavier = dataclasses.replace(
        snap,
        user_pos=np.vstack((snap.user_pos, snap.bs_pos[target_bs])),
        home=np.append(snap.home, target_bs),
    )
    after = score_matrix(
        heavier, build_gain_matrix(heavier, cfg), "resource", cfg
    )
    n = snap.n_users
    assert np.all(after[:n, target_bs] < before[:, target_bs])
    pick_after = np.argmax(after[:n], axis=1)
    for i in range(n):
        if pick_after[i] == target_bs:
            assert pick_before[i] == target_bs


def test_uplink_and_downlink_maps_can_differ(cfg):
    up = generate_fig2_snapshot(cfg, 3, 12)
    down = dataclasses.replace(up, direction="downlink")
    g_up = build_gain_matrix(up, cfg)
    g_down = build_gain_matrix(down, cfg)
    # uplink mei reacts to equal user budgets, downlink rsrp to the 10 W
    # macro advantage: the tagged maps disagree for some users
    m_up = associate(up, g_up, "mei", cfg)
    m_down = associate(down, g_down, "rsrp", cfg)
    assert not np.array_equal(m_up, m_down)


def test_score_matrix_shapes(cfg):
    snap = generate_fig3_snapshot(cfg, 5, 2)
    gm = build_gain_matrix(snap, cfg)
    for scheme in SCHEMES:
        m = score_matrix(snap, gm, scheme, cfg)
        assert m.shape == (snap.n_users, snap.n_bs)
        assert np.all(np.isfinite(m))


def test_home_score_marks_the_home_cell(cfg):
    # home is a score like any other: 1 at the home cell, so its argmax is
    # the cell each user was generated in
    for snap in (
        generate_fig2_snapshot(cfg, 3, 4),
        generate_fig3_snapshot(SimConfig(), 5, 2),
    ):
        gm = build_gain_matrix(snap, cfg)
        scores = score_matrix(snap, gm, "home", cfg)
        assert np.array_equal(scores.sum(axis=1), np.ones(snap.n_users))
        assert np.array_equal(associate(snap, gm, "home", cfg), snap.home)
