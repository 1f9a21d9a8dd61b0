"""End-to-end snapshot pipeline, Monte Carlo aggregation, and the two
shipped experiment presets.

A snapshot run is the deterministic pipeline

    generate -> gains -> associate -> (prioritized caps) -> power control
             -> metrics

and a Monte Carlo experiment averages snapshot metrics over
``cfg.snapshots`` seeds (base_seed + index) for every sweep point and
algorithm/scheme variant. Jobs are independent, each returning one row of
``FIELDS`` per seed and variant: a grid job is one snapshot, a disc job a
contiguous chunk of one sweep point's seeds, evaluated in one array pass.
With ``jobs > 1`` the calling process runs jobs itself beside ``jobs - 1``
forked pool workers, and the rows are merged in job order, so reports are
byte-identical at every job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .association import associate, link_scores
from .config import SimConfig, check_geometry, fig2_defaults, fig3_defaults
from .errors import NumericError
from .network import (
    build_gain_matrix,
    disc_chunk,
    generate_fig2_snapshot,
    link_gains,
    tier_powers,
)
from .power_control import (
    PRIORITIZED_BASE,
    SOFT_REMOVAL_TWINS,
    cochannel_system,
    iterate_power_control,
    prioritized_caps,
)
from .scheduling import access_probability

# Not called here; perfbench's tracer wraps each of these names in this module.
from .association import score_matrix  # noqa: F401
from .network import generate_fig3_snapshot  # noqa: F401
from .scheduling import cell_loads  # noqa: F401

FIG2_ALGORITHMS = ("tpc", "tpc_gr", "ptpc", "ptpc_gr")
FIG3_SCHEMES = ("distance", "resource", "hybrid")

# Most (seed, cell) entries one disc job holds: it bounds the memory of a
# chunk's (seeds, cells) arrays whatever mc.snapshots and the cell count.
# disc_chunk's stream windows are bounded apart from it, by the seeds it
# replays at once (network._DISC_GROUP).
DISC_CHUNK_ENTRIES = 2**14

# Relative slack allowed on the prioritized interference bound; anything
# beyond floating-point accumulation noise is a real violation.
SAFETY_REL_SLACK = 1e-12


# the reported metrics: the MetricsRow columns that average the per-seed
# values of the same name
METRICS = (
    "hpue_outage",
    "lpue_outage",
    "agg_power_w",
    "agg_throughput_bps_hz",
    "spectral_eff_bps_hz",
    "convergence_rate",
)
# the values of one (snapshot, variant) run, in the order of a job's rows:
# the reported metrics (convergence_rate is the converged flag, 1.0 or 0.0),
# the sweep count, and the worst prioritized safety margin. NaN marks an
# absent value: an empty tier's outage, the grid's spectral efficiency, the
# disc's outages and the margin of a non-prioritized run.
FIELDS = (*METRICS, "iterations", "safety_margin_w")


@dataclass(frozen=True)
class MetricsRow:
    experiment: str
    sweep_param: str
    sweep_value: int
    algorithm: str
    scheme: str
    direction: str
    seed_count: int
    hpue_outage: float | None
    lpue_outage: float | None
    agg_power_w: float
    agg_throughput_bps_hz: float
    spectral_eff_bps_hz: float | None
    convergence_rate: float
    seeds: tuple[int, ...]


@dataclass
class MetricsReport:
    """Averaged rows of one experiment; ``raw[point, variant, field, seed]``
    holds the per-seed values behind them, indexed in config order (sweep
    points, variants, ``FIELDS``, seeds)."""

    experiment: str
    rows: list[MetricsRow]
    config: SimConfig
    raw: np.ndarray


def outage_ratio(state, mask):
    """Fraction of the users in ``mask`` (one tier) whose SIR misses their
    target, or None for an empty tier (absent, not zero)."""
    if not mask.any():
        return None
    return float((~state.supported[mask]).sum() / mask.sum())


def throughput_metrics(sirs):
    """Aggregate rate: the sum of the per-user rates log2(1 + SIR)."""
    return float(np.log2(1.0 + np.asarray(sirs, dtype=float)).sum())


def _check_safety(caps, state, seed):
    """Embedded prioritized-safety assertion; returns the worst margin."""
    agg = caps.gain_block @ state.p[caps.lpue_index]
    margin = float((agg - caps.ith).max()) if agg.size else 0.0
    bound = SAFETY_REL_SLACK * caps.ith if agg.size else 0.0
    if margin > bound:
        raise NumericError(
            f"prioritized cap violated by {margin:.3e} W (seed={seed})"
        )
    return margin


def _grid_snapshot_results(cfg, n_small, seed, algorithms, hpue_algorithm=None):
    """One grid snapshot evaluated under several power-control algorithms
    (shared topology, gains, and association): one FIELDS row each."""
    snapshot = generate_fig2_snapshot(cfg, n_small, seed)
    gains = build_gain_matrix(snapshot, cfg)
    serving = associate(snapshot, gains, cfg.assoc_uplink, cfg)
    caps = None
    if any(alg in PRIORITIZED_BASE for alg in algorithms):
        caps = prioritized_caps(snapshot, gains, cfg.ith_w)
    # one validated system, caps included, shared by every run of the snapshot
    system = cochannel_system(snapshot, gains, serving, cfg, caps)
    lpue_mask = snapshot.lpue_mask

    rows = []
    # a run whose soft-removal twin comes later records where the two first
    # differ, and the twin resumes there (bit-identical to a full run), with
    # the same options as every run
    resume_from = {}
    options = dict(hpue_algorithm=hpue_algorithm, max_iters=cfg.max_iters,
                   tol=cfg.tol, tol_support=cfg.tol_support)
    for i, alg in enumerate(algorithms):
        prioritized = alg in PRIORITIZED_BASE
        twin = SOFT_REMOVAL_TWINS.get(alg)
        if twin not in algorithms[i + 1:]:
            twin = None
        state = iterate_power_control(
            system, algorithm=alg, twin=twin, resume=resume_from.pop(alg, None),
            **options,
        )
        if twin is not None:
            resume_from[twin] = state
        margin = _check_safety(caps, state, seed) if prioritized else None
        rows.append((
            outage_ratio(state, ~lpue_mask),
            outage_ratio(state, lpue_mask),
            state.p.sum(),
            throughput_metrics(state.sir),
            None,
            state.converged,
            state.iterations,
            margin,
        ))
    return np.array(rows, dtype=float)


def _disc_results(cfg, n_small, seeds, schemes):
    """A chunk of disc snapshots at one sweep point: the tagged macro user
    (user 0) picks a cell per scheme; its spectral efficiency is the access
    probability of the chosen cell times log2(1 + SIR), with every other
    base station transmitting at full power. Returns the (seeds, schemes,
    FIELDS) values. The draws are replayed for a group of seeds at a time
    (``disc_chunk``), and every later stage is one array pass over the
    chunk, elementwise or row by row, so a seed's row does not depend on
    its chunk."""
    user_pos, bs_pos, loads = disc_chunk(cfg, n_small, seeds)
    # (seeds, 1, cells): the tagged user's gain row of each snapshot
    g = link_gains(user_pos, bs_pos, cfg)
    p_access = access_probability(loads)[:, None]
    small = np.arange(1 + n_small) > 0
    bs_powers = tier_powers(cfg, small)
    # the snapshot's (1, cells) @ bs_powers, stacked: numpy takes each
    # (1, cells) row as one dot, where a (seeds, cells) gemv would sum in
    # another order and differ in the last bits
    total = (g @ bs_powers)[..., None]
    scores = np.concatenate(
        [
            link_scores(
                scheme,
                g,
                power=bs_powers,
                total=total,
                noise=cfg.noise_w,
                access=p_access,
                small=small,
                home=np.zeros((len(g), 1), dtype=int),
                bias_db=cfg.bias_db,
            )
            for scheme in schemes
        ],
        axis=1,
    )
    chosen = scores.argmax(axis=2)
    # the SIR is the rsrq score of each chosen cell
    g_chosen = np.take_along_axis(g[:, 0], chosen, axis=1)
    sir = link_scores(
        "rsrq", g_chosen, power=bs_powers[chosen], total=total[:, 0], noise=cfg.noise_w
    )
    rate = np.log2(1.0 + sir)

    # outages and the safety margin stay absent (NaN)
    rows = np.full((len(g), len(schemes), len(FIELDS)), np.nan)
    column = FIELDS.index
    rows[..., column("agg_power_w")] = bs_powers.sum()
    rows[..., column("agg_throughput_bps_hz")] = rate
    rows[..., column("spectral_eff_bps_hz")] = (
        np.take_along_axis(p_access[:, 0], chosen, axis=1) * rate
    )
    rows[..., column("convergence_rate")] = 1.0
    rows[..., column("iterations")] = 0.0
    return rows


def _seed_chunks(snapshots, n_small):
    """Contiguous (start, stop) seed-index ranges that cover one disc sweep
    point, in order: the fewest that keep each at or below
    DISC_CHUNK_ENTRIES (seed, cell) entries, with sizes that differ by at
    most one seed. The layout depends on the seed and cell counts only,
    never on the job count."""
    per_chunk = max(1, DISC_CHUNK_ENTRIES // (1 + n_small))
    count = -(-snapshots // per_chunk)
    edges = [k * snapshots // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _job(payload):
    """The (seeds, variants, FIELDS) values of one job: a grid snapshot, or
    a chunk of disc snapshots at one sweep point."""
    cfg, n_small, start, stop, variants, hpue_algorithm = payload
    seeds = range(cfg.base_seed + start, cfg.base_seed + stop)
    if cfg.geometry == "grid":
        (seed,) = seeds
        rows = _grid_snapshot_results(
            cfg, n_small, seed, variants, hpue_algorithm
        )
        return rows[None]
    return _disc_results(cfg, n_small, seeds, variants)


def _run_jobs(payloads, jobs):
    """Each payload's job result, in payload order.

    With ``jobs > 1`` this process is one of the ``jobs`` workers: it forks
    ``min(jobs, len(payloads)) - 1`` pool workers, which take the payloads
    from the front, and runs them itself from the back, taking each one it
    can still cancel in the pool. The two sides meet where a worker holds
    the next payload, so the balance follows the jobs' costs and this
    process takes the last (a sweep's heaviest) points. Between its own
    jobs it collects the workers' finished ones from the front, so a failed
    job on either side raises within about one job, and the pool's pending
    jobs are cancelled before it shuts down."""
    workers = min(jobs, len(payloads)) - 1
    if workers < 1:
        return [_job(p) for p in payloads]
    results = [None] * len(payloads)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_job, p) for p in payloads]
        head, tail = 0, len(payloads)
        while head < tail:
            if futures[head].done():
                results[head] = futures[head].result()
                head += 1
            elif futures[tail - 1].cancel():
                tail -= 1
                results[tail] = _job(payloads[tail])
            else:
                break
        results[head:tail] = [f.result() for f in futures[head:tail]]
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def run_experiment(
    cfg,
    variants=None,
    *,
    hpue_algorithm=None,
    jobs=1,
    experiment="sweep",
):
    """Monte Carlo sweep of ``cfg.geometry``: power-control algorithms on
    the uplink grid, association schemes on the downlink disc. ``variants``
    defaults to the configured single algorithm (grid) or scheme (disc);
    ``hpue_algorithm`` (None or ``"tpc"``) applies to the grid only. A grid
    snapshot builds its prioritized caps (when an algorithm needs them),
    then one ``CochannelSystem`` holding them, then runs every algorithm on
    that system.

    Rows are averaged in seed order, so the report does not depend on the
    order in which snapshot jobs completed."""
    grid = cfg.geometry == "grid"
    variants = tuple(
        variants or (cfg.pc_algorithm if grid else cfg.assoc_downlink,)
    )
    payloads = [
        (cfg, point, start, stop, variants, hpue_algorithm)
        for point in cfg.sweep
        for start, stop in (
            [(k, k + 1) for k in range(cfg.snapshots)]
            if grid
            else _seed_chunks(cfg.snapshots, point)
        )
    ]
    results = np.concatenate(_run_jobs(payloads, jobs))
    shape = (len(cfg.sweep), cfg.snapshots, len(variants), len(FIELDS))
    # seeds last: each (point, variant, field) row is one contiguous run,
    # which np.mean sums in the order of a list of the same values
    raw = np.ascontiguousarray(results.reshape(shape).transpose(0, 2, 3, 1))

    seeds = tuple(cfg.base_seed + k for k in range(cfg.snapshots))
    rows = []
    for point, per_point in zip(cfg.sweep, raw):
        for variant, per_variant in zip(variants, per_point):
            means = {}
            for metric, values in zip(METRICS, per_variant):
                present = values[~np.isnan(values)]
                means[metric] = float(np.mean(present)) if present.size else None
            if grid:
                algorithm, scheme = variant, cfg.assoc_uplink
            else:
                algorithm, scheme = "none", variant
            rows.append(
                MetricsRow(
                    experiment=experiment,
                    sweep_param="n_small",
                    sweep_value=point,
                    algorithm=algorithm,
                    scheme=scheme,
                    direction="uplink" if grid else "downlink",
                    seed_count=cfg.snapshots,
                    **means,
                    seeds=seeds,
                )
            )
    return MetricsReport(experiment=experiment, rows=rows, config=cfg, raw=raw)


# name -> (default config, variants, high-priority algorithm). fig2: the
# low-priority users of the grid run tpc / tpc_gr / ptpc / ptpc_gr while the
# high-priority users always track their targets with tpc. fig3: the
# distance-aware, resource-aware and hybrid association schemes on the disc.
PRESETS = {
    "fig2": (fig2_defaults, FIG2_ALGORITHMS, "tpc"),
    "fig3": (fig3_defaults, FIG3_SCHEMES, None),
}


def run_preset(name, cfg, jobs=1):
    """Run the ``PRESETS[name]`` experiment on ``cfg``, whose geometry must
    be the preset's."""
    defaults, variants, hpue_algorithm = PRESETS[name]
    check_geometry(cfg.geometry, defaults())
    return run_experiment(
        cfg,
        variants,
        hpue_algorithm=hpue_algorithm,
        jobs=jobs,
        experiment=name,
    )
