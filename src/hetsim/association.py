"""Cell-association metrics and serving-cell selection.

Every scheme produces a per-user score over candidate base stations (higher
is better) and reduces to an argmax with ties broken toward the lowest BS id.
Interference-dependent metrics (rsrq, mei) need a transmit-power context
before powers have settled; they are evaluated at reference powers, i.e.
full user budgets on the uplink and full BS budgets on the downlink.

Schemes
-------
rsrp      largest received power at reference power
rsrq      largest SIR at reference power
cre       rsrp with a decibel bias multiplying the small tier
mei       smallest effective interference (score = -R)
distance  largest distance-based channel gain (nearest cell)
resource  largest channel-access probability
hybrid    largest product of channel gain and access probability
home      the cell the user was generated in (fixed assignment)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import UPLINK
from .scheduling import access_probability, cell_loads

SCHEMES = (
    "rsrp",
    "rsrq",
    "cre",
    "mei",
    "distance",
    "resource",
    "hybrid",
    "home",
)


@dataclass(frozen=True)
class AssociationMap:
    """Serving base station per user for one link direction: ``primary[i]``
    is user i's serving receiver (uplink) or transmitter (downlink)."""

    direction: str
    scheme: str
    primary: tuple[int, ...]


def reference_powers(snapshot, direction):
    """Transmit powers assumed when scoring interference-aware metrics."""
    if direction == UPLINK:
        return snapshot.p_max
    return snapshot.bs_tx_power


def pairwise_gain(snapshot, gains):
    """(n_users, n_bs) channel gain between every user/BS pair; identical for
    both directions because the path loss is reciprocal."""
    if snapshot.direction == UPLINK:
        return gains.gains.T
    return gains.gains


def received_power(snapshot, gains):
    """(n_users, n_bs) received power of each candidate link at reference
    transmit powers. Uplink entry [i, b]: user i heard at BS b; downlink
    entry [i, b]: BS b heard at user i."""
    g = pairwise_gain(snapshot, gains)
    powers = reference_powers(snapshot, snapshot.direction)
    if snapshot.direction == UPLINK:
        return g * powers[:, None]
    return g * powers[None, :]


def candidate_effective_interference(snapshot, gains):
    """(n_users, n_bs) effective interference R[i, b] the user would see if
    served by candidate b, at reference transmit powers."""
    g = pairwise_gain(snapshot, gains)
    rp = received_power(snapshot, gains)
    powers = reference_powers(snapshot, snapshot.direction)
    if snapshot.direction == UPLINK:
        total = gains.gains @ powers            # per-BS received sum
        interference = total[None, :] - rp
        noise = gains.noise[None, :]
    else:
        total = gains.gains @ powers            # per-user received sum
        interference = total[:, None] - rp
        noise = gains.noise[:, None]
    return (interference + noise) / g


def _access_matrix(snapshot, access_prob):
    """(n_users, n_bs) channel-access probability of each candidate. When no
    vector is supplied, each user is a prospective joiner: the incumbents of
    cell b exclude the user itself, giving p = 1 / (others + 1)."""
    n_bs = snapshot.n_bs
    if access_prob is not None:
        access_prob = np.asarray(access_prob, dtype=float)
        return np.broadcast_to(access_prob, (snapshot.n_users, n_bs))
    counts = cell_loads(snapshot)
    at_home = snapshot.home[:, None] == np.arange(n_bs)[None, :]
    return access_probability(counts[None, :] - at_home)


def score_matrix(snapshot, gains, scheme, *, access_prob=None, bias_db=0.0):
    """(n_users, n_bs) association scores, higher is better."""
    if scheme == "rsrp":
        return received_power(snapshot, gains)
    if scheme == "rsrq":
        rp = received_power(snapshot, gains)
        r = candidate_effective_interference(snapshot, gains)
        g = pairwise_gain(snapshot, gains)
        return rp / (r * g)
    if scheme == "cre":
        bias = np.where(snapshot.bs_small, 10.0 ** (bias_db / 10.0), 1.0)
        return received_power(snapshot, gains) * bias[None, :]
    if scheme == "mei":
        return -candidate_effective_interference(snapshot, gains)
    if scheme == "distance":
        return pairwise_gain(snapshot, gains)
    if scheme == "resource":
        return _access_matrix(snapshot, access_prob).copy()
    if scheme == "hybrid":
        return pairwise_gain(snapshot, gains) * _access_matrix(
            snapshot, access_prob
        )
    raise ValueError(f"unknown association scheme {scheme!r}")


def select_serving(scores):
    """Argmax per row; np.argmax returns the first maximum, which is the
    lowest BS id since ids equal column indices."""
    return tuple(np.argmax(np.asarray(scores), axis=1).tolist())


def associate(
    snapshot, gains, scheme, direction, *, access_prob=None, bias_db=0.0
):
    """Build the serving map for one direction.

    ``direction`` must match the snapshot's link direction (the gain matrix
    is receiver-major for that direction).
    """
    if direction != snapshot.direction:
        raise ValueError(
            f"direction {direction!r} does not match snapshot "
            f"direction {snapshot.direction!r}"
        )
    if scheme == "home":
        primary = tuple(snapshot.home.tolist())
    else:
        primary = select_serving(
            score_matrix(
                snapshot, gains, scheme, access_prob=access_prob, bias_db=bias_db
            )
        )
    return AssociationMap(direction=direction, scheme=scheme, primary=primary)
