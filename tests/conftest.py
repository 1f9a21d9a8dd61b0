import numpy as np
import pytest

from hetsim.config import SimConfig
from hetsim.network import NetworkSnapshot


@pytest.fixture
def cfg():
    return SimConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def two_user_toy():
    """The classic symmetric toy: unit serving gains, 0.1 cross gains,
    noise 0.1, unit targets. TPC fixed point is (1/9, 1/9)."""
    a = np.array([[1.0, 0.1], [0.1, 1.0]])
    noise = np.array([0.1, 0.1])
    targets = np.array([1.0, 1.0])
    return a, noise, targets


def make_snapshot(bs, users, direction="downlink"):
    """Hand-built snapshot. ``bs``: (x, small) per base station, all on the
    x axis; ``users``: (position, home) per user. The BS powers, budgets
    and targets are the ``SimConfig`` the snapshot is used with."""
    return NetworkSnapshot(
        bs_pos=[(x, 0.0) for x, _ in bs],
        bs_small=[small for _, small in bs],
        user_pos=np.reshape([pos for pos, _ in users], (len(users), 2)),
        home=[home for _, home in users],
        direction=direction,
    )
