"""Cell-association scores and serving-cell selection.

Every scheme is a per-user score over candidate base stations (higher is
better), and a user's serving cell is its argmax with ties broken toward the
lowest BS id. Interference-dependent metrics (rsrq, mei) need a
transmit-power context before powers have settled; they are evaluated at
reference powers: full user budgets on a grid snapshot's uplink
(``score_matrix``), the base stations' tier powers on the disc's downlink
(``link_scores`` on its arrays).

Schemes
-------
rsrp      largest received power at reference power
rsrq      largest SIR at reference power
cre       rsrp with a decibel bias multiplying the small tier
mei       smallest effective interference (score = -R)
distance  largest distance-based channel gain (nearest cell)
resource  largest channel-access probability
hybrid    largest product of channel gain and access probability
home      the cell the user was generated in (score 1 there, 0 elsewhere)
"""

from __future__ import annotations

import numpy as np

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


def score_matrix(snapshot, gains, scheme, cfg):
    """(n_users, n_bs) uplink association scores of a snapshot and its
    ``build_gain_matrix`` gains, higher is better.

    Under the resource and hybrid schemes each user is a prospective joiner:
    the incumbents of cell b exclude the user itself (its home score), so
    its access probability there is p = 1 / (others + 1). Every user
    transmits at the reference power ``cfg.pmax_w``; ``cfg.bias_db``
    multiplies the small tier under cre.
    """
    access = None
    if scheme in ("resource", "hybrid"):
        own = score_matrix(snapshot, gains, "home", cfg)
        access = access_probability(cell_loads(snapshot) - own)
    # one power per user, since a scalar times the summed gains would round
    # otherwise than gains @ powers
    powers = np.full(snapshot.n_users, cfg.pmax_w)
    # total received power at each base station, for the interference
    total = gains.gains @ powers if scheme in ("rsrq", "mei") else None
    return link_scores(
        scheme,
        # gain of every user/BS pair; the path loss is reciprocal
        gains.gains.T,
        power=powers[:, None],
        total=total,
        noise=gains.noise,
        access=access,
        small=snapshot.bs_small,
        home=snapshot.home,
        bias_db=cfg.bias_db,
    )


def link_scores(scheme, g, *, power, noise, total=None, access=None, small=None,
                home=None, bias_db=None):
    """The scores of ``score_matrix`` from arrays, for any stack of
    user-major gains ``g[..., user, bs]``. ``power`` is the reference
    transmit power and ``total`` and ``noise`` are the total received power
    and the noise of each receiver, all shaped to broadcast against ``g``;
    ``access`` is each BS's access probability, ``small`` its small-tier
    flag and ``home`` each user's home BS. A scheme reads only its own
    inputs (total: rsrq, mei; access: resource, hybrid; small: cre; home:
    home; bias_db: cre), so the others may be left out."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown association scheme {scheme!r}")
    if scheme == "home":
        return np.eye(g.shape[-1])[home]
    if scheme == "distance":
        return g
    if scheme in ("resource", "hybrid"):
        access = np.broadcast_to(np.asarray(access, dtype=float), g.shape)
        return access.copy() if scheme == "resource" else g * access
    rp = g * power
    if scheme == "rsrp":
        return rp
    if scheme == "cre":
        return rp * np.where(small, 10.0 ** (bias_db / 10.0), 1.0)
    # interference plus noise the user would see if served by candidate b
    i_n = total - rp + noise
    if scheme == "rsrq":
        return rp / i_n
    return -(i_n / g)


def associate(snapshot, gains, scheme, cfg):
    """Serving base station of every user, as an int array: the argmax of
    the scheme's scores (``score_matrix``), with each user a prospective
    joiner under the resource and hybrid schemes. np.argmax returns the
    first maximum, which is the lowest BS id since ids equal column
    indices."""
    scores = score_matrix(snapshot, gains, scheme, cfg)
    return np.argmax(scores, axis=1)
