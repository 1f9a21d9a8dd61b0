"""Topology snapshots and deterministic path-loss channel gains.

Two snapshot geometries are supported:

* ``grid``: a square block of macro cells, each overlaid with non-overlapping
  square small cells. Uplink scenario; macro users have high priority, small
  cell users low priority.
* ``disc``: one circular macro cell overlaid with uniformly dropped small
  cells whose user counts follow per-cell Poisson loads with randomized
  intensities. Downlink scenario with a single tagged macro user (user 0),
  run on the arrays of ``disc_chunk``.

A snapshot (``NetworkSnapshot``) is its topology alone. Its gain matrix
(``build_gain_matrix``) is the uplink's, base stations receiving; the disc's
downlink gains come from ``link_gains`` on ``disc_chunk``'s positions.
Propagation is bounded power-law path loss on a single shared channel, so
every co-direction transmitter interferes at every receiver. There is no
fading in the gain matrix; the only randomness is in node placement and cell
loads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, NumericError

# Rejection-sampling budget for packing small cells into one macro cell.
PLACEMENT_RETRIES = 10_000
# Candidates drawn per generator call while packing; about twice what one
# default fig2 macro cell uses, so one call usually places all its cells.
_PLACEMENT_BLOCK = 16
# The disc's loads are replayed from raw doubles _DISC_GROUP seeds at a time,
# from a window of each seed's stream that holds its site block and
# _DISC_WINDOW more doubles. A cell's Poisson count is sought in the
# _POISSON_LOOKAHEAD doubles after its load's; the window must hold both.
_DISC_GROUP = 128
_DISC_WINDOW = 128
_POISSON_LOOKAHEAD = 32

# (field, dtype, shape after the row axis) of the per-BS and per-user arrays
_BS_FIELDS = (("bs_pos", float, (2,)), ("bs_small", bool, ()))
_USER_FIELDS = (("user_pos", float, (2,)), ("home", int, ()))


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """One realized topology as read-only arrays.

    Base station b is row b of ``bs_pos`` (n_bs, 2) and ``bs_small`` (small
    tier, i.e. low priority). User i is row i of ``user_pos`` (n_users, 2)
    and ``home`` (the BS it was generated in). A user's priority is its home
    cell's tier: users of small cells are the low-priority users (LPUEs),
    and macro base stations are the protected receivers. Budgets, targets
    and BS powers are settings, read off the ``SimConfig`` by the code that
    needs them; the link direction is the uplink's wherever a snapshot is
    read (``build_gain_matrix``).
    """

    bs_pos: np.ndarray
    bs_small: np.ndarray
    user_pos: np.ndarray
    home: np.ndarray

    def __post_init__(self):
        n_bs, n_users = len(self.bs_small), len(self.home)
        for group, rows in ((_BS_FIELDS, n_bs), (_USER_FIELDS, n_users)):
            for name, dtype, tail in group:
                arr = np.array(getattr(self, name), dtype=dtype)
                if arr.shape != (rows, *tail):
                    raise ValueError(
                        f"{name} has shape {arr.shape}, expected {(rows, *tail)}"
                    )
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def n_bs(self):
        return len(self.bs_small)

    @property
    def n_users(self):
        return len(self.home)

    @property
    def lpue_mask(self):
        return self.bs_small[self.home]


@dataclass
class GainMatrix:
    """Uplink linear power gains, receiver-major: ``gains[b, u]`` from user
    u to base station b. ``noise[b]`` is the receiver noise power in watts.
    A plain holder: ``build_gain_matrix`` checks the numbers it puts in.
    """

    gains: np.ndarray
    noise: np.ndarray


def path_gain(distance, exponent=4.0, d_min=1.0, k=1.0):
    """Bounded power-law path gain ``k * max(d, d_min) ** -exponent``.

    Deterministic and monotone non-increasing in distance; the clamp at
    ``d_min`` removes the singularity at zero distance. The parameters are
    checked where they enter, by ``SimConfig``, and the distances and gains
    by ``link_gains``'s float-range guard.
    """
    return k * np.maximum(distance, d_min) ** (-float(exponent))


def _disc_points(u, radius):
    """Offsets of points uniform in discs around the origin, from a (k, 2)
    block of unit draws: row i holds the radius and angle draws of point i,
    in that order, and lands in the disc of radius ``radius`` (or its row
    i)."""
    r = radius * np.sqrt(u[:, 0])
    ang = 2.0 * np.pi * u[:, 1]
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def _place_small_centers(rng, origin, macro_side, small_side, n_small, macro_idx, seed):
    """Drop ``n_small`` non-overlapping axis-aligned squares inside one macro
    cell by rejection sampling; raises after PLACEMENT_RETRIES draws.

    Candidates are drawn ``_PLACEMENT_BLOCK`` at a time and tested in
    order; the doubles of the candidates a block did not need are handed
    back to the generator, so the centers and every later draw are those of
    one ``rng.random(2)`` call per candidate."""
    lo = origin + small_side / 2.0
    span = (origin + macro_side - small_side / 2.0) - lo
    centers = []
    attempts = 0
    while len(centers) < n_small:
        if attempts == PLACEMENT_RETRIES:
            raise GenerationError(
                f"could not pack {n_small} small cells of side {small_side} m "
                f"into macro cell {macro_idx} after {PLACEMENT_RETRIES} draws "
                f"(seed={seed}); {len(centers)} packed, so lower mc.sweep"
            )
        # x and y per row: uniform(lo, hi) is lo + (hi - lo) * random()
        size = min(_PLACEMENT_BLOCK, PLACEMENT_RETRIES - attempts)
        cands = (lo + span * rng.random((size, 2))).tolist()
        for used, (x, y) in enumerate(cands, 1):
            for cx, cy in centers:
                # axis-aligned squares of side s overlap iff |dx| and |dy| < s
                if abs(x - cx) < small_side and abs(y - cy) < small_side:
                    break
            else:
                centers.append([x, y])
                if len(centers) == n_small:
                    break
        attempts += used
        if used < size:
            # hand back the unused candidates' doubles: the PCG64 generator
            # of default_rng takes one step per double
            rng.bit_generator.advance(2**128 - 2 * (size - used))
    return centers


def tier_powers(cfg, bs_small):
    """Each base station's configured transmit power, by its tier."""
    return np.where(bs_small, cfg.power_small_w, cfg.power_macro_w)


def generate_fig2_snapshot(cfg, n_small, seed):
    """Uplink grid snapshot: ``grid_rows**2`` macro cells, ``n_small`` small
    cells uniformly packed in each, fixed per-cell user counts."""
    if not 1 <= n_small <= 64:
        raise ValueError(f"n_small must be in [1, 64], got {n_small}")
    rng = np.random.default_rng(seed)
    rows = cfg.grid_rows
    side = cfg.macro_side_m
    small = cfg.small_side_m

    # macro cells row-major: cell r * rows + c has its corner at (c, r) * side
    r, c = np.divmod(np.arange(rows * rows), rows)
    origins = np.column_stack((c, r)) * side
    n_macro = len(origins)
    small_centers = []
    for m in range(n_macro):
        small_centers += _place_small_centers(
            rng, origins[m], side, small, n_small, m, seed
        )
    bs_pos = np.vstack((origins + side / 2.0, np.reshape(small_centers, (-1, 2))))
    bs_small = np.arange(len(bs_pos)) >= n_macro

    # users cell by cell, each uniform in its home square
    per_cell = np.where(bs_small, cfg.lpue_per_small, cfg.hpue_per_macro)
    home = np.repeat(np.arange(len(bs_pos)), per_cell)
    half = np.where(bs_small, small, side)[home, None] / 2.0
    center = bs_pos[home]
    user_pos = rng.uniform(center - half, center + half)
    return NetworkSnapshot(bs_pos, bs_small, user_pos, home)


def disc_draws(cfg, n_small, seed):
    """The random draws of one disc snapshot, in stream order (this order
    fixes what a seed means): a (1 + n_small, 2) unit block for the tagged
    macro user and the small-cell sites, then cell by cell its mean load,
    uniform in [lambda_lo, lambda_hi], its Poisson user count and a
    (count, 2) unit block for its users. Returns (site block, counts, user
    blocks); ``random()`` is uniform(0, 1)'s stream, and the seed's
    generator is ``default_rng(seed)``. ``disc_chunk`` makes the same
    generators a group of seeds at a time (``seeded_generators``), replays
    the same stream from raw doubles and calls this only for the seeds it
    cannot replay."""
    if n_small < 0:
        raise ValueError(f"n_small must be non-negative, got {n_small}")
    rng = np.random.default_rng(seed)
    lo, span = cfg.lambda_lo, cfg.lambda_hi - cfg.lambda_lo
    sites = rng.random((1 + n_small, 2))
    counts, users = [], []
    for _ in range(n_small):
        # uniform(lo, hi) is lo + (hi - lo) * random(), at a third of the cost
        count = rng.poisson(lo + span * rng.random())
        counts.append(count)
        users.append(rng.random((count, 2)))
    return sites, counts, users


def generate_fig3_snapshot(cfg, n_small, seed):
    """Disc snapshot: one central macro cell, ``n_small`` small cells
    dropped uniformly in the disc, per-cell Poisson user counts whose means
    are themselves uniform in [lambda_lo, lambda_hi] (non-uniform load).
    User 0 is the tagged macro user. The reference that ``disc_chunk`` is
    pinned against, bit for bit; the reports run ``disc_chunk``."""
    sites, counts, users = disc_draws(cfg, n_small, seed)
    # the tagged user is cell 0's one user
    home = np.repeat(np.arange(1 + n_small), [1, *counts])
    # sites in the macro disc, users in their small cell: one transform
    radius = np.repeat(
        (cfg.disc_radius_m, cfg.small_side_m / 2.0), (1 + n_small, len(home) - 1)
    )
    points = _disc_points(np.concatenate((sites, *users)), radius)
    bs_pos = np.vstack((np.zeros((1, 2)), points[1 : 1 + n_small]))
    users = points[1 + n_small :] + bs_pos[home[1:]]
    bs_small = np.arange(1 + n_small) > 0
    user_pos = np.vstack((points[:1], users))
    return NetworkSnapshot(bs_pos, bs_small, user_pos, home)


def _poisson_replay(lam, doubles):
    """Replay ``Generator.poisson(lam[b])`` on the stream doubles
    ``doubles[b]`` that follow each load draw. Below a mean of 10 NumPy
    counts by multiplication (Knuth): the count is the number of running
    products of the doubles above ``exp(-lam)`` before the first at or
    below it, and a mean of 0 draws nothing. ``np.cumprod`` makes the same
    multiplies in the same order, and ``math.exp`` is the C library's
    ``exp`` that NumPy's C code calls (``np.exp`` differs from it in the
    last bit for some means). Returns the counts, the doubles each draw
    used and whether it was replayed: a mean of 10 or more (drawn by PTRS)
    or a count that does not stop within ``doubles`` is not."""
    limit = np.fromiter(map(math.exp, (-lam).tolist()), float, len(lam))
    stops = np.cumprod(doubles, axis=1) <= limit[:, None]
    counts = stops.argmax(axis=1)
    replayed = stops.any(axis=1) & (lam < 10.0)
    used = np.where(lam > 0.0, counts + 1, 0)
    return counts, used, replayed


def _hash_constants(init, mult, count):
    """The first ``count`` values of a SeedSequence hash constant, which
    starts at ``init`` and is multiplied by ``mult`` at each use, as uint32
    (so products with them wrap alike under every NumPy casting rule)."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


# NumPy's SeedSequence hash, from numpy/random/bit_generator.pyx: the hash
# constant of the entropy mix (17 uses for a pool of four words), that of
# generate_state (9 uses for eight words), the mix multipliers and shift
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hashmix(value, xor, mult):
    """SeedSequence's ``hashmix`` of uint32 ``value`` at the hash constant
    ``xor``, whose next value is ``mult``."""
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _seed_states(seeds):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed, as
    rows of one (B, 4) uint64 array. The hash runs on all seeds at once: a
    seed's entropy is its four little-endian 32-bit words, zero-padded, and
    the hash constants do not depend on it. Seeds outside [0, 2**128) raise
    ``ValueError``."""
    try:
        raw = b"".join(operator.index(s).to_bytes(16, "little") for s in seeds)
    except OverflowError:
        raise ValueError("seeds must be in [0, 2**128)") from None
    words = np.frombuffer(raw, dtype="<u4").reshape(-1, 4)
    pool = _hashmix(words, _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        # mix the source word into the other three, in order; the source
        # word itself does not change in its round
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        h = _hashmix(pool[:, src, None], _HASH_A[k : k + 3], _HASH_A[k + 1 : k + 4])
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state cycles the pool for its eight 32-bit words
    state = _hashmix(np.tile(pool, 2), _HASH_B[:8], _HASH_B[1:])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type():
    """An ``ISeedSequence`` that hands ``PCG64`` precomputed state words.
    Built on first use: the import would load ``numpy.random``, which
    NumPy 2 imports lazily, into every ``import hetsim``."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def seeded_generators(seeds):
    """``[np.random.default_rng(seed) for seed in seeds]``, bit for bit,
    with the seeds' ``SeedSequence`` hash run as one array pass
    (``_seed_states``). ``default_rng(seed)`` stays the definition of a
    seed; each ``PCG64`` seeds itself from its seed's state words."""
    words = _state_words_type()
    return [
        np.random.Generator(np.random.PCG64(words(row))) for row in _seed_states(seeds)
    ]


def _disc_group(cfg, n_small, seeds, sites, counts):
    """Fill ``sites`` (B, 2 + 2 n_small) and ``counts`` (B, n_small) with the
    site blocks and cell user counts that ``disc_draws`` makes for
    ``seeds``, bit for bit, one cell at a time for all the seeds, from
    their generators made by one ``seeded_generators`` call.

    Each seed's doubles are read into a window of its stream: the site
    block and ``_DISC_WINDOW`` doubles first, then more as the cells need.
    A cell reads its load's double and seeks its count in the
    ``_POISSON_LOOKAHEAD`` doubles after it, then steps past the count's
    and its users' doubles; the generator skips the users' doubles that
    run past the window. The seeds whose loads cannot be replayed are
    drawn again by ``disc_draws``."""
    lo, span = cfg.lambda_lo, cfg.lambda_hi - cfg.lambda_lo
    rngs = seeded_generators(seeds)
    head = sites.shape[1]
    window = np.empty((len(seeds), head + _DISC_WINDOW))
    for rng, row in zip(rngs, window):
        rng.random(out=row)
    sites[:] = window[:, :head]
    size = window.shape[1]
    ahead = np.lib.stride_tricks.sliding_window_view(
        window, _POISSON_LOOKAHEAD, axis=1
    )
    rows = np.arange(len(seeds))
    pos = np.full(len(seeds), head)
    redraw = np.zeros(len(seeds), dtype=bool)
    for cell in range(n_small):
        for b in np.flatnonzero(pos > size - 1 - _POISSON_LOOKAHEAD).tolist():
            # keep the doubles not yet read, then read on from the stream
            left = size - int(pos[b])
            if left < 0:
                # the PCG64 generator of default_rng takes one step per double
                rngs[b].bit_generator.advance(-left)
                left = 0
            window[b, :left] = window[b, size - left :]
            rngs[b].random(out=window[b, left:])
            pos[b] = 0
        # uniform(lo, hi) is lo + (hi - lo) * random()
        lam = lo + span * window[rows, pos]
        cell_counts, used, replayed = _poisson_replay(lam, ahead[rows, pos + 1])
        counts[:, cell] = cell_counts
        redraw |= ~replayed
        # a seed to redraw reads no further
        pos += np.where(redraw, 0, 1 + used + 2 * cell_counts)
    for b in np.flatnonzero(redraw).tolist():
        counts[b] = disc_draws(cfg, n_small, seeds[b])[1]


def disc_chunk(cfg, n_small, seeds):
    """The disc snapshots of ``seeds`` at one ``n_small``, reduced to what
    the tagged user sees and stacked seed-major: its position (B, 1, 2), the
    base-station positions (B, 1 + n_small, 2) and the incumbent user
    counts (B, 1 + n_small), the tagged user excluded. Row b holds the
    tagged user, ``bs_pos`` and ``cell_loads(snapshot)`` less the tagged
    user (one off cell 0) of ``generate_fig3_snapshot(cfg, n_small,
    seeds[b])``, bit for bit. The draws are replayed ``_DISC_GROUP`` seeds
    at a time (``_disc_group``), so the windows' memory does not grow with
    the chunk."""
    if n_small < 0:
        raise ValueError(f"n_small must be non-negative, got {n_small}")
    shape = (len(seeds), 1 + n_small)
    sites = np.empty((shape[0], 2 * shape[1]))
    loads = np.zeros(shape, dtype=np.int64)
    for start in range(0, shape[0], _DISC_GROUP):
        group = slice(start, start + _DISC_GROUP)
        _disc_group(cfg, n_small, seeds[group], sites[group], loads[group, 1:])
    points = _disc_points(sites.reshape(-1, 2), cfg.disc_radius_m)
    points = points.reshape(*shape, 2)
    user_pos = points[:, :1].copy()
    points[:, 0] = 0.0  # the macro site
    return user_pos, points, loads


def link_gains(rx, tx, cfg):
    """Path gains ``gains[..., r, t]`` from the positions ``tx[..., t, :]``
    to ``rx[..., r, :]`` (leading axes broadcast), with distances
    ``sqrt(dx*dx + dy*dy)``. The float-range guard of the gain path: a
    NaN or inf position, an overflowing distance or a gain outside
    (0, inf) raises ``NumericError``."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        dx = rx[..., :, None, 0] - tx[..., None, :, 0]
        dy = rx[..., :, None, 1] - tx[..., None, :, 1]
        d = np.sqrt(dx * dx + dy * dy)
    if not np.isfinite(d.max()):
        if not (np.isfinite(rx).all() and np.isfinite(tx).all()):
            raise NumericError(
                "positions must be finite: a user or base-station position "
                "is NaN or inf"
            )
        raise NumericError(
            "distances overflow the float range; check the geometry's sizes"
        )
    gains = path_gain(d, cfg.path_exponent, cfg.path_d_min, cfg.path_k)
    if not (gains.min() > 0 and np.isfinite(gains.max())):
        raise NumericError(
            "path gains leave the float range (smallest "
            f"{gains.min():.3g}, largest {gains.max():.3g}); check the "
            "pathloss.* keys against the geometry's distances"
        )
    return gains


def build_gain_matrix(snapshot, cfg):
    """The snapshot's uplink path gains, every base station (receiver) by
    every user (transmitter), plus the configured noise floor at every base
    station."""
    gains = link_gains(snapshot.bs_pos, snapshot.user_pos, cfg)
    noise = np.full(snapshot.n_bs, cfg.noise_w, dtype=float)
    return GainMatrix(gains=gains, noise=noise)
