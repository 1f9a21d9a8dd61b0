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
    """Hand-built snapshot. ``bs``: (x, small, tx_power) per base station,
    all on the x axis; ``users``: (position, home) per user, each with a
    1 W budget, unit target SIR and opc_eta 1e-6."""
    n = len(users)
    return NetworkSnapshot(
        bs_pos=[(x, 0.0) for x, _, _ in bs],
        bs_small=[small for _, small, _ in bs],
        bs_tx_power=[p for _, _, p in bs],
        user_pos=np.reshape([pos for pos, _ in users], (n, 2)),
        home=[home for _, home in users],
        p_max=np.ones(n),
        target_sir=np.ones(n),
        opc_eta=np.full(n, 1e-6),
        direction=direction,
    )
