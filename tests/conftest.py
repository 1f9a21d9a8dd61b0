import dataclasses

import numpy as np
import pytest

from hetsim.config import SimConfig
from hetsim.network import NetworkSnapshot
from hetsim.power_control import CochannelSystem, feasibility_check, sample_instance


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


def make_snapshot(bs, users):
    """Hand-built snapshot. ``bs``: (x, small) per base station, all on the
    x axis; ``users``: (position, home) per user. The BS powers, budgets
    and targets are the ``SimConfig`` the snapshot is used with."""
    return NetworkSnapshot(
        bs_pos=[(x, 0.0) for x, _ in bs],
        bs_small=[small for _, small in bs],
        user_pos=np.reshape([pos for pos, _ in users], (len(users), 2)),
        home=[home for _, home in users],
    )


def same_snapshot(one, other):
    """Whether two ``NetworkSnapshot`` values hold equal arrays."""
    return all(
        np.array_equal(getattr(one, f.name), getattr(other, f.name))
        for f in dataclasses.fields(NetworkSnapshot)
    )


def instance_system(inst):
    """The ``CochannelSystem`` that ``run_oracle_check`` builds of a
    ``sample_instance`` instance: its arrays with a 1e6 W budget for every
    user, so that only infeasible targets saturate."""
    return CochannelSystem(inst.a, inst.noise, inst.targets, 1e6)


def sample_feasible_instance(rng, n_users=None, rho_max=0.9):
    """Rejection-sample an instance whose coupling spectral radius stays
    below ``rho_max``: (instance, its ``instance_system``), the system
    keeping its verdict."""
    while True:
        inst = sample_instance(rng, n_users)
        system = instance_system(inst)
        if feasibility_check(system).spectral_radius < rho_max:
            return inst, system


def greedy_access_prob_mc(n_users, trials, seed):
    """Monte Carlo estimate of the greedy admission probability, the check
    behind ``access_probability``'s claim that greedy scheduling admits a
    joiner with 1 / (n + 1) as round robin does.

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


class CountingNumpy:
    """numpy as ``hetsim.power_control`` sees it, counting ``np.matmul``
    calls: the kernel makes one per sweep it computes, of a whole stack."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)
