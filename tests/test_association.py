import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot
from hetsim.association import SCHEMES, associate, link_scores, score_matrix
from hetsim.config import SimConfig, fig3_defaults
from hetsim.network import (
    GainMatrix,
    build_gain_matrix,
    disc_chunk,
    generate_fig2_snapshot,
    generate_fig3_snapshot,
    link_gains,
    tier_powers,
)
from hetsim.scheduling import access_probability

# the toys' BS powers: 10 W macro cells, 1 W small cells
TOY = SimConfig(power_macro_w=10.0, power_small_w=1.0)
# a macro cell and a small cell
MACRO_SMALL = np.array([False, True])


def _snapshot(bs_specs, user_positions):
    """bs_specs: list of (x, tier); users get home 0."""
    bs = [(x, tier == "small") for x, tier in bs_specs]
    return make_snapshot(bs, [(pos, 0) for pos in user_positions])


def _downlink_scores(scheme, gains, small, cfg, **inputs):
    """The disc's downlink scores of user-major ``gains[..., user, bs]``, as
    ``_disc_results`` asks for them: every base station at its tier power,
    each user's interference total at those powers."""
    power = tier_powers(cfg, small)
    return link_scores(
        scheme, gains, power=power, total=(gains @ power)[..., None],
        noise=cfg.noise_w, small=small, bias_db=cfg.bias_db, **inputs,
    )


def test_rsrp_score_prefers_stronger_received_power():
    # downlink: macro 10 W at gain 1e-9 -> 1e-8; small 1 W at gain 1e-7 -> 1e-7
    scores = _downlink_scores("rsrp", np.array([[1e-9, 1e-7]]), MACRO_SMALL, TOY)
    assert scores[0] == pytest.approx([1e-8, 1e-7])
    assert np.argmax(scores, axis=1).tolist() == [1]
    # uplink: every user at the same budget, so the larger gain wins
    snap = _snapshot([(0.0, "macro"), (100.0, "small")], [(0.0, 0.0)])
    gm = GainMatrix(gains=np.array([[1e-7], [1e-9]]), noise=np.full(2, 1e-13))
    assert score_matrix(snap, gm, "rsrp", TOY)[0] == pytest.approx(
        [1e-7 * TOY.pmax_w, 1e-9 * TOY.pmax_w]
    )
    assert associate(snap, gm, "rsrp", TOY).tolist() == [0]


def test_cre_bias_flips_the_winner():
    # downlink macro rsrp 1e-8 vs small 2e-9; 10 dB small-tier bias -> 2e-8 wins
    gains = np.array([[1e-9, 2e-9]])
    rsrp = _downlink_scores("rsrp", gains, MACRO_SMALL, TOY)
    assert np.argmax(rsrp, axis=1).tolist() == [0]
    biased = dataclasses.replace(TOY, bias_db=10.0)
    cre = _downlink_scores("cre", gains, MACRO_SMALL, biased)
    assert cre[0, 1] == pytest.approx(2e-8)
    assert np.argmax(cre, axis=1).tolist() == [1]


def test_hybrid_zero_access_probability_never_selected():
    # candidate 1 has far better channel but zero access probability
    scores = _downlink_scores(
        "hybrid", np.array([[1e-9, 1e-2]]), MACRO_SMALL, TOY,
        access=np.array([0.5, 0.0]),
    )
    assert scores[0, 1] == 0.0
    assert np.argmax(scores, axis=1).tolist() == [0]


def test_link_scores_on_disc_chunk_shapes():
    # every scheme on the disc's (seeds, 1, cells) arrays: one finite score
    # per seed and cell, whatever the scheme reads
    cfg, seeds, cells = fig3_defaults(), 3, 5
    user_pos, bs_pos, loads = disc_chunk(cfg, cells - 1, range(seeds))
    gains = link_gains(user_pos, bs_pos, cfg)
    for scheme in SCHEMES:
        scores = _downlink_scores(
            scheme, gains, np.arange(cells) > 0, cfg,
            access=access_probability(loads)[:, None],
            home=np.zeros((seeds, 1), dtype=int),
        )
        assert scores.shape == (seeds, 1, cells), scheme
        assert np.all(np.isfinite(scores)), scheme


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
    snap = _snapshot([(0.0, "macro")], [(1.0, 0.0)])
    gm = GainMatrix(gains=np.array([[1e-9]]), noise=np.array([1e-13]))
    with pytest.raises(ValueError):
        score_matrix(snap, gm, "strongest", TOY)
    with pytest.raises(ValueError):
        _downlink_scores("strongest", gm.gains, MACRO_SMALL[:1], TOY)


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
    snap = generate_fig2_snapshot(cfg, 2, seed)
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
    snap = _snapshot([(-10.0, "small"), (10.0, "small")], [(0.0, 0.0)])
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
    snap = generate_fig2_snapshot(cfg, 4, 3)
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
    snap = generate_fig2_snapshot(cfg, 2, 9)
    gm = build_gain_matrix(snap, cfg)
    before = score_matrix(snap, gm, "resource", cfg)
    pick_before = np.argmax(before, axis=1)

    target_bs = 9  # a small cell
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


def test_score_matrix_shapes(cfg):
    snap = generate_fig2_snapshot(cfg, 2, 2)
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
