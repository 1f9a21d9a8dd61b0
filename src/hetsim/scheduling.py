"""Channel-access probability under round-robin and greedy scheduling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULERS = ("round_robin", "greedy")


@dataclass(frozen=True)
class CellLoad:
    """Load of one cell: ``n_users`` counts incumbents, i.e. the prospective
    joiner is not included."""

    bs_id: int
    n_users: int
    scheduler: str = "round_robin"


def access_probability(load):
    """Probability that a prospective joiner gets the channel: 1 / (n + 1).

    Round robin serves the n + 1 users equally after the join. Greedy serves
    the largest i.i.d. fading gain, and by exchangeability the joiner wins
    with the same 1 / (n + 1). An empty cell admits with probability 1.
    """
    if load.scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {load.scheduler!r}")
    if load.n_users < 0:
        raise ValueError(f"n_users must be non-negative, got {load.n_users}")
    return 1.0 / (load.n_users + 1.0)


def greedy_access_prob_mc(n_users, trials, seed):
    """Monte Carlo estimate of the greedy admission probability.

    Draws n + 1 i.i.d. unit-mean exponential fading gains per trial and
    returns the fraction of trials in which the joiner's gain is the strict
    maximum. Converges to 1 / (n + 1) for any continuous i.i.d. fading law.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n_users < 0:
        raise ValueError(f"n_users must be non-negative, got {n_users}")
    if n_users == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    g = rng.exponential(1.0, size=(int(trials), n_users + 1))
    wins = g[:, 0] > g[:, 1:].max(axis=1)
    return float(wins.mean())


def cell_loads(snapshot, exclude_user=None):
    """Incumbent user count per base station, optionally excluding one user
    (the prospective joiner evaluating its options)."""
    counts = np.bincount(snapshot.home, minlength=snapshot.n_bs)
    if exclude_user is not None:
        counts[snapshot.home[exclude_user]] -= 1
    return counts
