"""Channel-access probability under round-robin and greedy scheduling."""

from __future__ import annotations

import numpy as np

SCHEDULERS = ("round_robin", "greedy")


def access_probability(counts):
    """Probability that a prospective joiner gets the channel of a cell with
    ``counts`` incumbents (the joiner not included): 1 / (n + 1), elementwise.

    Round robin serves the n + 1 users equally after the join. Greedy serves
    the largest i.i.d. fading gain, and by exchangeability the joiner wins
    with the same 1 / (n + 1), so the scheduler changes no number. An empty
    cell admits with probability 1.
    """
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError(
            f"incumbent counts must be non-negative, got {counts.min()}"
        )
    return 1.0 / (counts + 1.0)


def cell_loads(snapshot):
    """User count per base station: how many users each cell is home to."""
    return np.bincount(snapshot.home, minlength=snapshot.n_bs)
