import collections
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import same_snapshot
from hetsim import network
from hetsim.config import SimConfig, fig2_defaults, fig3_defaults
from hetsim.errors import GenerationError, NumericError
from hetsim.harness import DISC_CHUNK_ENTRIES, run_preset
from hetsim.network import (
    PLACEMENT_RETRIES,
    _place_small_centers,
    _poisson_replay,
    _seed_states,
    build_gain_matrix,
    disc_chunk,
    disc_draws,
    generate_fig2_snapshot,
    generate_fig3_snapshot,
    link_gains,
    path_gain,
    seeded_generators,
    tier_powers,
)
from hetsim.scheduling import cell_loads


def test_path_gain_reference_distance():
    assert path_gain(1.0, 4.0, 1.0, 1.0) == 1.0


def test_path_gain_power_law():
    assert path_gain(10.0, 4.0, 1.0, 1.0) == pytest.approx(1e-4, rel=1e-12)


def test_path_gain_clamps_below_d_min():
    assert path_gain(0.5, 4.0, 1.0, 1.0) == 1.0
    assert path_gain(0.0, 4.0, 1.0, 1.0) == 1.0


@given(
    d1=st.floats(1.0, 1e6),
    factor=st.floats(1.5, 1e3),
    alpha=st.floats(2.1, 6.0),
)
def test_path_gain_monotone_and_exact_slope(d1, factor, alpha):
    d2 = d1 * factor
    g1 = path_gain(d1, alpha, 1.0, 1.0)
    g2 = path_gain(d2, alpha, 1.0, 1.0)
    assert g2 <= g1
    slope = (math.log(g2) - math.log(g1)) / (math.log(d2) - math.log(d1))
    assert slope == pytest.approx(-alpha, abs=1e-12)


@given(distances=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=8))
def test_path_gain_vector_matches_scalar(distances):
    vec = path_gain(np.array(distances), 4.0, 1.0, 1.0)
    assert vec == pytest.approx([path_gain(d, 4.0, 1.0, 1.0) for d in distances])


def test_fig2_counts_n3():
    snap = generate_fig2_snapshot(SimConfig(), 3, 7)
    assert ((~snap.bs_small).sum(), snap.bs_small.sum()) == (9, 27)
    assert ((~snap.lpue_mask).sum(), snap.lpue_mask.sum()) == (45, 108)


def test_fig2_counts_n6():
    snap = generate_fig2_snapshot(SimConfig(), 6, 7)
    assert snap.bs_small.sum() == 54
    assert snap.lpue_mask.sum() == 216


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_fig2_deterministic(n, seed):
    cfg = SimConfig()
    assert same_snapshot(
        generate_fig2_snapshot(cfg, n, seed), generate_fig2_snapshot(cfg, n, seed)
    )


def test_fig2_lpue_count_scales_with_n():
    cfg = SimConfig()
    for n in (1, 2, 5):
        snap = generate_fig2_snapshot(cfg, n, 3)
        assert snap.lpue_mask.sum() == 36 * n


def test_fig2_geometry_invariants():
    cfg = SimConfig()
    snap = generate_fig2_snapshot(cfg, 4, 11)
    # the 9 macro cells come first, then 4 small cells per macro
    assert snap.bs_small.tolist() == [False] * 9 + [True] * 36
    assert tier_powers(cfg, snap.bs_small).tolist() == [10.0] * 9 + [1.0] * 36
    # every user inside its home cell's square
    side = np.where(snap.bs_small, cfg.small_side_m, cfg.macro_side_m)
    offset = np.abs(snap.user_pos - snap.bs_pos[snap.home]).max(axis=1)
    assert np.all(offset <= side[snap.home] / 2.0)
    assert np.array_equal(snap.lpue_mask, snap.bs_small[snap.home])
    # small cells do not overlap
    smalls = snap.bs_pos[snap.bs_small]
    gap = np.abs(smalls[:, None, :] - smalls[None, :, :]).max(axis=-1)
    np.fill_diagonal(gap, np.inf)
    assert np.all(gap >= cfg.small_side_m - 1e-9)


def test_snapshot_arrays_are_read_only_and_shape_checked(cfg):
    snap = generate_fig2_snapshot(cfg, 2, 3)
    assert [f.name for f in dataclasses.fields(snap)] == [
        "bs_pos", "bs_small", "user_pos", "home"
    ]
    for name in ("bs_pos", "bs_small", "home", "user_pos"):
        with pytest.raises(ValueError):
            getattr(snap, name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.home = np.zeros(snap.n_users, dtype=int)
    with pytest.raises(ValueError, match="bs_pos"):
        dataclasses.replace(snap, bs_pos=snap.bs_pos[:-1])
    with pytest.raises(ValueError, match="user_pos"):
        dataclasses.replace(snap, user_pos=snap.user_pos[:, 0])
    # the snapshot holds copies: writing to the caller's arrays afterwards
    # does not reach it
    user_pos, home = np.array(snap.user_pos), np.array(snap.home)
    own = dataclasses.replace(snap, user_pos=user_pos, home=home)
    user_pos[:] = -1.0
    home[:] = 0
    assert np.array_equal(own.user_pos, snap.user_pos)
    assert np.array_equal(own.home, snap.home)


def test_fig2_packing_failure_is_reported():
    with pytest.raises(GenerationError, match=r"30.*seed=5"):
        generate_fig2_snapshot(SimConfig(), 30, 5)


def _one_candidate_per_call(rng, origin, macro_side, small_side, n_small):
    """Frozen packing loop: one ``rng.random(2)`` call per candidate, tested
    against every center packed so far. Returns the centers packed within
    PLACEMENT_RETRIES candidates, fewer than ``n_small`` when they run out."""
    lo = origin + small_side / 2.0
    span = (origin + macro_side - small_side / 2.0) - lo
    centers = []
    for _ in range(PLACEMENT_RETRIES):
        if len(centers) == n_small:
            break
        cand = (lo + span * rng.random(2)).tolist()
        if all(
            max(abs(cand[0] - c[0]), abs(cand[1] - c[1])) >= small_side
            for c in centers
        ):
            centers.append(cand)
    return centers


def _check_packing(seed, origins, macro_side, small_side, n_small):
    """Pack every macro cell with block draws and with the frozen loop from
    one seed each: the same centers, and the same generator state after
    every cell, so the same next draw."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for m, origin in enumerate(origins):
        want = _one_candidate_per_call(
            ref_rng, origin, macro_side, small_side, n_small
        )
        got = _place_small_centers(
            rng, origin, macro_side, small_side, n_small, m, seed
        )
        assert got == want, (seed, m)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, (seed, m)
    assert rng.random() == ref_rng.random()


def test_block_drawn_packing_matches_one_candidate_per_call():
    # every default fig2 sweep point over 25 seeds, cell by cell as
    # generate_fig2_snapshot packs them
    cfg = fig2_defaults()
    r, c = np.divmod(np.arange(cfg.grid_rows**2), cfg.grid_rows)
    origins = np.column_stack((c, r)) * cfg.macro_side_m
    for n_small, seed in itertools.product(cfg.sweep, range(1, 26)):
        _check_packing(seed, origins, cfg.macro_side_m, cfg.small_side_m, n_small)


@pytest.mark.parametrize("n_small,seed", [(13, 0), (13, 1), (13, 2), (12, 4)])
def test_near_full_packing_matches_one_candidate_per_call(n_small, seed):
    # 12 or 13 cells of side 200 m in a 1000 m cell fit only after 250 to
    # 6,700 candidates, so most blocks are all rejections
    _check_packing(seed, [np.zeros(2)], 1000.0, 200.0, n_small)


def test_packing_failure_matches_one_candidate_per_call():
    # 20 cells cannot be packed: both loops give up after PLACEMENT_RETRIES
    # candidates with the same cells packed
    want = _one_candidate_per_call(
        np.random.default_rng(7), np.zeros(2), 1000.0, 200.0, 20
    )
    assert len(want) < 20
    message = (
        f"could not pack 20 small cells of side 200.0 m into macro cell 0 "
        f"after {PLACEMENT_RETRIES} draws (seed=7); {len(want)} packed, so "
        f"lower mc.sweep"
    )
    with pytest.raises(GenerationError) as info:
        _place_small_centers(
            np.random.default_rng(7), np.zeros(2), 1000.0, 200.0, 20, 0, 7
        )
    assert str(info.value) == message


def test_fig2_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        generate_fig2_snapshot(SimConfig(), 0, 1)
    with pytest.raises(ValueError):
        generate_fig2_snapshot(SimConfig(), 65, 1)


def test_fig3_empty_overlay():
    snap = generate_fig3_snapshot(SimConfig(), 0, 1)
    assert snap.n_bs == 1
    assert snap.n_users == 1
    assert not snap.lpue_mask[0]


def test_fig3_small_cells_and_poisson_loads():
    cfg = SimConfig()
    snap = generate_fig3_snapshot(cfg, 20, 1)
    assert snap.bs_small.sum() == 20
    assert snap.home[0] == 0 and np.all(snap.home[1:] > 0)
    counts = np.bincount(snap.home[1:])[1:]
    # non-uniform load: not every cell should carry the same count
    assert len(set(counts[counts > 0])) > 1
    # the macro user and the small cells inside the disc, users inside
    # their small cell
    radius = np.where(snap.bs_small, cfg.small_side_m / 2.0, cfg.disc_radius_m)
    d = np.linalg.norm(snap.user_pos - snap.bs_pos[snap.home], axis=1)
    assert np.all(d <= radius[snap.home] + 1e-9)
    assert np.all(np.linalg.norm(snap.bs_pos, axis=1) <= cfg.disc_radius_m)


def _scalar_disc_point(rng, center, radius):
    r = radius * np.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return (center[0] + r * np.cos(ang), center[1] + r * np.sin(ang))


def _check_fig3_against_scalar_draws(cfg, n, seed):
    # reference: one scalar draw per radius and angle, cell by cell; the
    # block generator must reproduce it exactly, so seeds keep their meaning
    snap = generate_fig3_snapshot(cfg, n, seed)
    rng = np.random.default_rng(seed)
    radius = cfg.disc_radius_m
    users = [_scalar_disc_point(rng, (0.0, 0.0), radius)]
    cells = [_scalar_disc_point(rng, (0.0, 0.0), radius) for _ in range(n)]
    home = [0]
    for b, center in enumerate(cells, start=1):
        count = int(rng.poisson(rng.uniform(cfg.lambda_lo, cfg.lambda_hi)))
        users += [
            _scalar_disc_point(rng, center, cfg.small_side_m / 2.0)
            for _ in range(count)
        ]
        home += [b] * count
    assert np.array_equal(snap.bs_pos, [(0.0, 0.0), *cells])
    assert np.array_equal(snap.user_pos, users)
    assert np.array_equal(snap.home, home)


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_fig3_block_draws_match_one_draw_per_coordinate(seed):
    _check_fig3_against_scalar_draws(SimConfig(), 7, seed)


@given(
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32),
    lambda_hi=st.sampled_from([1.0, 10.0]),
)
@example(n=40, seed=1006, lambda_hi=10.0)  # three empty cells
@settings(max_examples=60, deadline=None)
def test_fig3_block_draws_match_scalar_draws_at_any_size_and_load(
    n, seed, lambda_hi
):
    # at a mean load of 1 about a third of the cells draw no user
    _check_fig3_against_scalar_draws(SimConfig(lambda_hi=lambda_hi), n, seed)


@given(n=st.integers(0, 30), seed=st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_fig3_deterministic(n, seed):
    cfg = SimConfig()
    assert same_snapshot(
        generate_fig3_snapshot(cfg, n, seed), generate_fig3_snapshot(cfg, n, seed)
    )


@given(
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32),
    lambda_hi=st.sampled_from([1.0, 10.0]),
)
@example(n=0, seed=1, lambda_hi=10.0)
@settings(max_examples=30, deadline=None)
def test_disc_chunk_rows_are_the_snapshots_of_its_seeds(n, seed, lambda_hi):
    # the chunk replays the draws that the snapshot generator makes
    cfg = SimConfig(lambda_hi=lambda_hi)
    seeds = range(seed, seed + 3)
    user_pos, bs_pos, loads = disc_chunk(cfg, n, seeds)
    assert (user_pos.shape, bs_pos.shape, loads.shape) == (
        (3, 1, 2), (3, 1 + n, 2), (3, 1 + n)
    )
    for b, s in enumerate(seeds):
        snap = generate_fig3_snapshot(cfg, n, s)
        sites, counts, users = disc_draws(cfg, n, s)
        assert sites.shape == (1 + n, 2)
        assert counts == [len(block) for block in users]
        assert counts == np.bincount(snap.home, minlength=1 + n)[1:].tolist()
        assert user_pos[b].tobytes() == snap.user_pos[:1].tobytes()
        assert bs_pos[b].tobytes() == snap.bs_pos.tobytes()
        # the incumbents the tagged user (user 0, home cell 0) would join
        incumbents = cell_loads(snap)
        incumbents[0] -= 1
        assert loads[b].tolist() == incumbents.tolist()


# numpy's own, also where a test counts the calls of disc_chunk's generators
_default_rng = np.random.default_rng


def _scalar_disc_chunk(cfg, n, seeds):
    # reference: per seed one scalar draw per radius and angle and one
    # rng.poisson per cell, stacked as disc_chunk stacks its rows
    user_pos, bs_pos, loads = [], [], []
    for seed in seeds:
        rng = _default_rng(seed)
        radius = cfg.disc_radius_m
        user_pos.append([_scalar_disc_point(rng, (0.0, 0.0), radius)])
        bs_pos.append(
            [(0.0, 0.0)]
            + [_scalar_disc_point(rng, (0.0, 0.0), radius) for _ in range(n)]
        )
        counts = [0]
        for _ in range(n):
            count = int(rng.poisson(rng.uniform(cfg.lambda_lo, cfg.lambda_hi)))
            rng.random(2 * count)  # the users' radius and angle draws
            counts.append(count)
        loads.append(counts)
    shape = (len(seeds), 1 + n)
    return (
        np.reshape(user_pos, (shape[0], 1, 2)),
        np.reshape(bs_pos, (*shape, 2)),
        np.reshape(loads, shape),
    )


def _check_disc_chunk_against_scalar_draws(cfg, n, seeds):
    got = disc_chunk(cfg, n, seeds)
    want = _scalar_disc_chunk(cfg, n, seeds)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.astype(a.dtype).tobytes()


@pytest.mark.parametrize("n", fig3_defaults().sweep)
def test_disc_chunk_matches_scalar_draws_at_every_fig3_point(n):
    cfg = fig3_defaults()
    _check_disc_chunk_against_scalar_draws(cfg, n, range(1, 1 + cfg.snapshots))


# (lambda_lo, lambda_hi): empty cells; multiplication counts only; means just
# below NumPy's switch to PTRS at 10; rows mixing replayed and redrawn
# loads; every row redrawn
LOAD_RANGES = [
    (0.0, 0.0),
    (0.0, 3.0),
    (9.0, math.nextafter(10.0, 0.0)),
    (5.0, 30.0),
    (50.0, 60.0),
]


@pytest.mark.parametrize("lo,hi", LOAD_RANGES)
@pytest.mark.parametrize("n", [0, 1, 9, 64])
def test_disc_chunk_matches_scalar_draws_over_load_ranges(n, lo, hi):
    cfg = SimConfig(lambda_lo=lo, lambda_hi=hi)
    _check_disc_chunk_against_scalar_draws(cfg, n, range(300, 340))


class _CountingGenerator:
    """A seeded generator's stand-in that counts its draw and advance calls."""

    def __init__(self, rng, calls):
        calls["seeded"] += 1
        self._rng = rng
        self._calls = calls
        self.bit_generator = self

    def random(self, *args, **kwargs):
        self._calls["random"] += 1
        return self._rng.random(*args, **kwargs)

    def poisson(self, *args, **kwargs):
        self._calls["poisson"] += 1
        return self._rng.poisson(*args, **kwargs)

    def advance(self, delta):
        self._calls["advance"] += 1
        return self._rng.bit_generator.advance(delta)


def _count_disc_calls(monkeypatch):
    """Count the generators seeded through seeded_generators, their calls,
    and the seeds disc_draws redraws."""
    calls = collections.Counter()
    seeded = network.seeded_generators
    monkeypatch.setattr(
        network,
        "seeded_generators",
        lambda seeds: [_CountingGenerator(rng, calls) for rng in seeded(seeds)],
    )

    def counting_draws(cfg, n_small, seed):
        calls["disc_draws"] += 1
        return disc_draws(cfg, n_small, seed)

    monkeypatch.setattr(network, "disc_draws", counting_draws)
    return calls


@pytest.mark.parametrize("group", [1, 7])
def test_disc_chunk_matches_scalar_draws_with_small_windows(monkeypatch, group):
    # a window of two doubles past a lookahead of 4: the seeds' windows
    # refill, skip users' doubles and overflow into redraws, in groups whose
    # edges fall inside the chunk
    monkeypatch.setattr(network, "_POISSON_LOOKAHEAD", 4)
    monkeypatch.setattr(network, "_DISC_WINDOW", 6)
    monkeypatch.setattr(network, "_DISC_GROUP", group)
    calls = _count_disc_calls(monkeypatch)
    for (lo, hi), n in itertools.product(
        [(0.0, 0.0), (0.0, 3.0), (1.0, 10.0), (5.0, 30.0)], [0, 1, 5, 20]
    ):
        cfg = SimConfig(lambda_lo=lo, lambda_hi=hi)
        _check_disc_chunk_against_scalar_draws(cfg, n, range(50, 70))
    # skips, redraws and refills all ran: each seeded generator fills its
    # window once, so any further read is a refill
    assert min(calls["advance"], calls["disc_draws"]) > 0
    assert calls["random"] > calls["seeded"]


def test_disc_chunk_rejects_negative_n():
    with pytest.raises(ValueError):
        disc_chunk(SimConfig(), -1, range(3))


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 5.5, math.nextafter(10.0, 0.0)])
def test_poisson_replay_pins_numpy_poisson_stream(lam):
    # Generator.poisson below a mean of 10 is Knuth's multiplication method
    # on random()'s doubles; if a NumPy release changes that stream, this
    # test fails by name before any report digest does
    seeds = range(2000)
    doubles = np.array([_default_rng(seed).random(40) for seed in seeds])
    counts, used, replayed = _poisson_replay(np.full(len(seeds), lam), doubles)
    assert replayed.all()
    for seed, count, step, row in zip(seeds, counts, used, doubles):
        rng = _default_rng(seed)
        assert rng.poisson(lam) == count
        # the draw used `step` doubles: the next one is the stream's next
        assert rng.random() == row[step]


# the seeds whose entropy ends at each 32-bit word edge, and the largest
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 199]
SEED_EDGES += [2**96 - 1, 2**96, 2**128 - 1]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**128 - 1))
def test_group_seeding_pins_numpy_seedsequence(seed):
    # seeded_generators replays SeedSequence's hash on arrays; if a NumPy
    # release changes SeedSequence (NEP 19 allows it), this test fails by
    # name before any report digest does
    seeds = [*SEED_EDGES, seed]
    states = _seed_states(seeds)
    assert states.dtype == np.uint64
    assert states.shape == (len(seeds), 4)
    for s, words, rng in zip(seeds, states, seeded_generators(seeds)):
        want = np.random.SeedSequence(s).generate_state(4, np.uint64)
        assert words.tolist() == want.tolist()
        assert rng.random(64).tobytes() == _default_rng(s).random(64).tobytes()


@pytest.mark.parametrize("bad", [-1, 2**128])
def test_group_seeding_rejects_seeds_outside_128_bits(bad):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
        seeded_generators([1, bad])


def test_poisson_replay_leaves_ptrs_means_and_long_counts():
    # a first double below exp(-lam) stops every count but the last row's:
    # 0.99 ** 4 stays above exp(-1); from a mean of 10 NumPy draws by PTRS
    doubles = np.full((4, 4), 1e-9)
    doubles[3] = 0.99
    lam = np.array([1.0, 10.0, 12.0, 1.0])
    replayed = _poisson_replay(lam, doubles)[2]
    assert replayed.tolist() == [True, False, False, False]


def test_default_fig3_replays_every_load(monkeypatch):
    # the preset draws each seed's doubles in a few reads: no Poisson call,
    # no seed redrawn, at most three reads or skips per seed on average
    calls = _count_disc_calls(monkeypatch)
    cfg = fig3_defaults()
    run_preset("fig3", cfg)
    seeds = cfg.snapshots * len(cfg.sweep)
    assert calls["seeded"] == seeds
    assert calls["poisson"] == calls["disc_draws"] == 0
    assert calls["random"] + calls["advance"] <= 3 * seeds


def _seed_by_seed_disc_chunk(cfg, n, seeds):
    # disc_chunk built from disc_draws seed by seed, keeping every draw
    sites, counts = [], []
    for seed in seeds:
        block, cell_counts, _ = disc_draws(cfg, n, seed)
        sites.append(block)
        counts += cell_counts
    shape = (len(sites), 1 + n)
    points = network._disc_points(np.concatenate(sites), cfg.disc_radius_m)
    points = points.reshape(*shape, 2)
    user_pos = points[:, :1].copy()
    points[:, 0] = 0.0
    loads = np.zeros(shape, dtype=np.int64)
    loads[:, 1:] = np.reshape(counts, (shape[0], n))
    return user_pos, points, loads


def _traced_peak(build, *args):
    """The result of ``build(*args)`` and the peak of its traced memory."""
    tracemalloc.start()
    try:
        return build(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 64])
def test_disc_chunk_memory_stays_within_seed_by_seed_draws(n):
    # a chunk of the most seeds one job holds: the windows are bounded by
    # the group size, so the peak stays near that of keeping each seed's
    # site block and counts
    cfg = fig3_defaults()
    seeds = range(DISC_CHUNK_ENTRIES // (1 + n))
    disc_chunk(cfg, n, seeds[:2])  # imports numpy.random before the trace
    got, peak = _traced_peak(disc_chunk, cfg, n, seeds)
    want, reference_peak = _traced_peak(_seed_by_seed_disc_chunk, cfg, n, seeds)
    assert peak <= 1.25 * reference_peak
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@given(
    bounds=st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=2),
    seed=st.integers(0, 2**32),
)
@example(bounds=[1.0, 10.0], seed=1)
@example(bounds=[3.0, 3.0], seed=1)
@settings(max_examples=60, deadline=None)
def test_scaled_random_draws_are_uniforms_doubles(bounds, seed):
    # the disc's loads and the grid's small-cell sites draw random() and
    # scale it: the same stream and doubles as uniform(lo, hi)
    lo, hi = sorted(bounds)
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [ref.uniform(lo, hi) for _ in range(6)]
    got = [lo + (hi - lo) * rng.random() for _ in range(4)]
    got += (lo + (hi - lo) * rng.random(2)).tolist()
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_gain_matrix_single_link_value():
    cfg = SimConfig()
    snap = generate_fig3_snapshot(cfg, 0, 1)
    # rebuild a controlled snapshot: macro at origin, user at (10, 0)
    snap = dataclasses.replace(snap, user_pos=[(10.0, 0.0)])
    gm = build_gain_matrix(snap, cfg)
    assert gm.gains.shape == (1, 1)
    assert gm.gains[0, 0] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(gm.noise == cfg.noise_w)


def test_gain_matrix_reciprocity_and_bounds():
    # the downlink gains, users receiving (the disc's link_gains call), are
    # the snapshot's uplink matrix transposed, bit for bit
    cfg = SimConfig()
    up = generate_fig2_snapshot(cfg, 2, 9)
    g_up = build_gain_matrix(up, cfg)
    g_down = link_gains(up.user_pos, up.bs_pos, cfg)
    assert np.array_equal(g_up.gains, g_down.T)
    assert np.all(g_up.gains > 0)
    assert np.all(g_up.gains <= cfg.path_k * cfg.path_d_min**-cfg.path_exponent)


def _snapshots():
    # grids and discs, the disc's n = 0 included
    cfg = SimConfig()
    return [
        *(generate_fig2_snapshot(cfg, n, s) for n in (1, 4, 6) for s in (1, 2)),
        *(generate_fig3_snapshot(cfg, n, s) for n in (0, 5, 40) for s in (1, 2)),
    ]


def test_gain_distances_match_norm_reference(monkeypatch):
    # frozen reference: the Euclidean norm of the (rx, tx, 2) differences
    seen = []

    def spy(d, *args):
        seen.append(d)
        return path_gain(d, *args)

    monkeypatch.setattr("hetsim.network.path_gain", spy)
    cfg = SimConfig()
    for snap in _snapshots():
        # base stations receive
        rx, tx = snap.bs_pos, snap.user_pos
        gains = build_gain_matrix(snap, cfg).gains
        ref = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=-1)
        assert np.array_equal(seen.pop(), ref)
        # and the gains are the bare formula on those distances, bit for bit
        clamped = np.maximum(ref, cfg.path_d_min)
        assert np.array_equal(gains, cfg.path_k * clamped**-cfg.path_exponent)


def test_gain_guard_names_overflow_and_bad_positions():
    # a receiver outside the float range fails the matrix, and the guard
    # names the overflow
    cfg = SimConfig()
    base = generate_fig3_snapshot(cfg, 3, 1)
    far = np.array(base.user_pos)
    far[1:] = 1e300
    snap = dataclasses.replace(base, user_pos=far)
    with pytest.raises(NumericError, match="distances overflow"):
        build_gain_matrix(snap, cfg)
    # the same guard is the only check that catches a NaN or inf position,
    # and it names the position, not an overflow
    for value in (np.nan, np.inf):
        bad = np.array(base.user_pos)
        bad[2, 1] = value
        snap = dataclasses.replace(base, user_pos=bad)
        with pytest.raises(NumericError, match="positions must be finite"):
            build_gain_matrix(snap, cfg)
