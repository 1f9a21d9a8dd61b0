import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetsim.association import score_matrix
from hetsim.config import SimConfig, fig3_defaults
from hetsim.harness import run_preset
from hetsim.network import build_gain_matrix, generate_fig3_snapshot
from conftest import greedy_access_prob_mc
from hetsim.scheduling import access_probability, cell_loads


def test_empty_cell_admits_certainly():
    assert access_probability(0) == 1.0


def test_round_robin_three_incumbents():
    assert access_probability(3) == 0.25
    assert access_probability(np.array([0, 1, 3])).tolist() == [1.0, 0.5, 0.25]


def test_greedy_matches_round_robin_analytically():
    # both schedulers admit a joiner with 1 / (n + 1): the key moves no number
    base = dataclasses.replace(fig3_defaults(), snapshots=3)
    rows = [
        run_preset("fig3", dataclasses.replace(base, scheduler=name)).rows
        for name in ("round_robin", "greedy")
    ]
    assert rows[0] == rows[1]


@given(n=st.integers(0, 500))
def test_access_probability_strictly_decreasing(n):
    p = access_probability(n)
    assert 0 < p <= 1
    assert access_probability(n + 1) < p


def test_access_probability_validates():
    with pytest.raises(ValueError):
        access_probability(-1)
    with pytest.raises(ValueError):
        access_probability(np.array([2, 0, -1]))


def test_greedy_mc_empty_cell_exact():
    assert greedy_access_prob_mc(0, 1000, 1) == 1.0


def test_greedy_mc_four_incumbents():
    est = greedy_access_prob_mc(4, 100_000, 7)
    assert est == pytest.approx(0.2, abs=0.01)


def test_greedy_mc_deterministic():
    assert greedy_access_prob_mc(3, 5000, 42) == greedy_access_prob_mc(3, 5000, 42)


@pytest.mark.parametrize("n", range(11))
def test_greedy_mc_within_three_sigma(n):
    trials = 20_000
    est = greedy_access_prob_mc(n, trials, 123 + n)
    p = 1.0 / (n + 1)
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(est - p) <= 3 * sigma + 1e-12


def test_round_robin_shares_sum_to_one_per_cell():
    # each admitted user's share is 1 / (others + 1): its resource score at
    # home, where it joins the other members; shares add up to 1
    cfg = SimConfig()
    snap = generate_fig3_snapshot(cfg, 10, 5)
    scores = score_matrix(snap, build_gain_matrix(snap, cfg), "resource", cfg)
    counts = cell_loads(snap)
    for b, total in enumerate(counts):
        if total == 0:
            continue
        members = np.flatnonzero(snap.home == b)
        assert scores[members, b] == pytest.approx(np.full(total, 1.0 / total))
        assert scores[members, b].sum() == pytest.approx(1.0, rel=1e-12)
