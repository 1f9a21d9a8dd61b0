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
workers made by ``os.fork``, every process taking the highest job index
left, and the rows are merged in job order, so reports are byte-identical
at every job count.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .association import associate, link_scores
from .config import SimConfig, check_geometry, fig2_defaults, fig3_defaults
from .errors import NumericError, SimError
from .network import (
    build_gain_matrix,
    disc_chunk,
    generate_fig2_snapshot,
    link_gains,
    tier_powers,
)
from .power_control import (
    PRIORITIZED_BASE,
    cochannel_system,
    iterate_power_control,
    prioritized_caps,
)
from .scheduling import access_probability

# Not called here; perfbench's tracer wraps each of these names in this module.
from .association import score_matrix  # noqa: F401
from .network import generate_fig3_snapshot  # noqa: F401
from .scheduling import cell_loads  # noqa: F401

# Each base algorithm comes before its soft-removal twin, which then
# resumes from the base run's fork record on the snapshot's system; the
# other order gives the same rows, with more sweeps.
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
    (shared topology, gains, and association): one FIELDS row each. Every
    run takes the same options on one system, so a soft-removal twin that
    follows its base algorithm resumes from the base run's fork record
    there (``iterate_power_control``)."""
    snapshot = generate_fig2_snapshot(cfg, n_small, seed)
    gains = build_gain_matrix(snapshot, cfg)
    serving = associate(snapshot, gains, cfg.assoc_uplink, cfg)
    caps = None
    if any(alg in PRIORITIZED_BASE for alg in algorithms):
        caps = prioritized_caps(snapshot, gains, cfg.ith_w)
    # one validated system, caps included, shared by every run of the snapshot
    system = cochannel_system(snapshot, gains, serving, cfg, caps)

    rows = []
    for alg in algorithms:
        state = iterate_power_control(
            system, algorithm=alg, hpue_algorithm=hpue_algorithm,
            max_iters=cfg.max_iters, tol=cfg.tol, tol_support=cfg.tol_support,
        )
        margin = _check_safety(caps, state, seed) if alg in PRIORITIZED_BASE else None
        rows.append((
            outage_ratio(state, ~snapshot.lpue_mask),
            outage_ratio(state, snapshot.lpue_mask),
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


class _Claims:
    """The count of payload indices no process has taken yet and a stop
    flag, ``(left, stopped)``, in a memory file the forked workers share.
    Each claim takes the highest index left, so a sweep's heaviest points
    go first. A claim reads and writes the count under the file's ``lockf``
    lock, which the kernel releases when its holder exits or dies, so a
    dead worker never blocks the others."""

    def __init__(self, count):
        self.fd = os.memfd_create("hetsim-claims")
        os.pwrite(self.fd, struct.pack("qq", count, 0), 0)

    def take(self):
        """The highest index left, or None once none is left or the run
        stopped."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            left, stopped = struct.unpack("qq", os.pread(self.fd, 16, 0))
            if stopped or left == 0:
                return None
            os.pwrite(self.fd, struct.pack("q", left - 1), 0)
            return left - 1
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def stop(self):
        """No process takes another index. The flag has bytes of its own
        and only ever goes from 0 to 1, so it needs no lock."""
        os.pwrite(self.fd, struct.pack("q", 1), 8)


def _worker(payloads, claims, out):
    """A forked worker: runs the payloads it can take until none is left
    or the run stops, then writes ``(done, error)`` pickled to the memory
    file ``out``: its ``(index, result)`` pairs and the exception of a
    failed job (which stops the run), or None. It writes through a
    buffered file, as one ``os.write`` may write only part of a message.
    Never returns: it exits 0 once the message is written and 1
    otherwise."""
    code = 1
    try:
        done, error = [], None
        try:
            while (index := claims.take()) is not None:
                done.append((index, _job(payloads[index])))
        except Exception as exc:
            claims.stop()
            error = exc
        with open(out, "wb") as file:
            pickle.dump((done, error), file, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        # Leave as a multiprocessing child does: run the exit finalizers
        # registered in this process (perfbench's tracer writes a worker's
        # spans from one), but none of the caller's atexit handlers.
        util = sys.modules.get("multiprocessing.util")
        if util is not None:
            util._run_finalizers()
        os._exit(code)


def _run_jobs(payloads, jobs):
    """Each payload's job result, in payload order.

    With ``jobs > 1`` this process is one of the ``jobs`` workers: it forks
    ``min(jobs, len(payloads)) - 1`` workers and runs payloads beside them.
    Every process takes the highest index left (``_Claims``), so the
    balance follows the jobs' costs and a sweep's heaviest points go first.
    A failed job in any process stops every process from taking another
    payload, so the run raises within about one job. Each worker writes
    its results, or its exception, to a memory file made for it before the
    fork; this process reads the file from its start once the worker has
    exited (the fork shares the file's offset, which the write moved). A
    worker that dies raises a ``SimError`` naming its exit status or
    signal. No worker is left running, and no file open, when this
    returns or raises."""
    workers = min(jobs, len(payloads)) - 1
    if workers < 1:
        return [_job(p) for p in payloads]
    results = [None] * len(payloads)
    claims = _Claims(len(payloads))
    files, pids = [], []
    try:
        try:
            for _ in range(workers):
                files.append(os.memfd_create("hetsim-results"))
                pid = os.fork()
                if pid == 0:
                    _worker(payloads, claims, files[-1])
                pids.append(pid)
            while (index := claims.take()) is not None:
                results[index] = _job(payloads[index])
        except BaseException:
            claims.stop()
            raise
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for pid, code, out in zip(pids, codes, files):
            if code != 0:
                how = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise SimError(f"job worker {pid} died with {how}")
            os.lseek(out, 0, os.SEEK_SET)
            with open(out, "rb", closefd=False) as file:
                done, error = pickle.load(file)
            if error is not None:
                raise error
            for index, result in done:
                results[index] = result
    finally:
        for fd in (claims.fd, *files):
            os.close(fd)
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
