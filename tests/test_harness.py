import contextlib
import dataclasses
import fcntl
import itertools
import multiprocessing
import multiprocessing.util
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CountingNumpy
from hetsim import harness, power_control
from hetsim.association import SCHEMES, associate, link_scores
from hetsim.cli import main
from hetsim.config import MAX_USERS, SimConfig, fig3_defaults
from hetsim.harness import (
    DISC_CHUNK_ENTRIES,
    FIELDS,
    FIG2_ALGORITHMS,
    FIG3_SCHEMES,
    _check_safety,
    _disc_results,
    _job,
    _run_jobs,
    _seed_chunks,
    outage_ratio,
    run_experiment,
    run_preset,
    throughput_metrics,
)
from hetsim.network import (
    build_gain_matrix,
    generate_fig2_snapshot,
    generate_fig3_snapshot,
    link_gains,
    tier_powers,
)
from hetsim.errors import NumericError, SimError
from hetsim.power_control import (
    CochannelSystem,
    PowerState,
    PrioritizedCapSet,
    cochannel_system,
    iterate_power_control,
)
from hetsim.scheduling import cell_loads


def _state(supported, sirs=None):
    n = len(supported)
    return PowerState(
        p=np.zeros(n),
        sir=np.asarray(sirs if sirs is not None else np.ones(n), dtype=float),
        supported=np.asarray(supported, dtype=bool),
        iterations=1,
        converged=True,
    )


def test_outage_ratio_counting(cfg):
    snap = generate_fig2_snapshot(cfg, 1, 1)
    n = snap.n_users
    supported = np.ones(n, dtype=bool)
    assert outage_ratio(_state(supported), ~snap.lpue_mask) == 0.0
    lp = np.flatnonzero(snap.lpue_mask)
    supported[lp[0]] = False
    # one of 36 low-priority users unsupported
    assert outage_ratio(_state(supported), snap.lpue_mask) == pytest.approx(1 / 36)


def test_outage_ratio_empty_tier_absent(cfg):
    snap = generate_fig2_snapshot(cfg, 1, 1)
    hp = ~snap.lpue_mask
    only_hp = dataclasses.replace(
        snap,
        user_pos=snap.user_pos[hp],
        home=snap.home[hp],
    )
    assert outage_ratio(_state(np.ones(45, bool)), only_hp.lpue_mask) is None


def test_throughput_metrics_values():
    assert throughput_metrics(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert throughput_metrics(np.array([3.0])) == pytest.approx(2.0)


def _disc_rate_and_se(sir, access):
    # one scheme's rate log2(1 + SIR) and access-weighted spectral
    # efficiency, from a float SIR through a 1-element array
    rate = float(np.log2(1.0 + np.array([sir]))[0])
    return rate, float(access * rate)


def _disc_reference(cfg, n_small, seed, schemes):
    # one scheme at a time on the full snapshot: the tagged user's (user 0,
    # home cell 0) downlink gains and joiner scores, their argmax and float
    # SIR
    snapshot = generate_fig3_snapshot(cfg, n_small, seed)
    g0 = link_gains(snapshot.user_pos[:1], snapshot.bs_pos, cfg)[0]
    # the tagged user joins the incumbents of a cell: round robin gives it
    # 1 / (incumbents + 1)
    incumbents = cell_loads(snapshot)
    incumbents[0] -= 1
    p_access = 1.0 / (incumbents + 1.0)
    bs_powers = tier_powers(cfg, snapshot.bs_small)
    total = float(g0 @ bs_powers)
    rows = []
    for scheme in schemes:
        scores = link_scores(
            scheme, g0[None], power=bs_powers, total=np.array([[total]]),
            noise=cfg.noise_w, access=p_access, small=snapshot.bs_small,
            home=np.array([0]), bias_db=cfg.bias_db,
        )
        chosen = int(np.argmax(scores[0]))
        signal = float(g0[chosen] * bs_powers[chosen])
        sir = signal / (total - signal + cfg.noise_w)
        rate, se = _disc_rate_and_se(sir, p_access[chosen])
        values = dict(
            agg_power_w=bs_powers.sum(),
            agg_throughput_bps_hz=rate,
            spectral_eff_bps_hz=se,
            convergence_rate=1.0,
            iterations=0.0,
        )
        rows.append([values.get(name, np.nan) for name in FIELDS])
    return np.array(rows)


@given(
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32),
    size=st.sampled_from([1, 7, 200]),
)
@example(n=0, seed=1, size=7)  # only the macro cell
# a (seeds, cells) @ powers gemv differs from the per-snapshot sum here
@example(n=40, seed=1, size=200)
@settings(max_examples=40, deadline=None)
def test_disc_results_match_one_scheme_at_a_time(n, seed, size):
    # every association scheme and every seed of a chunk in one array pass,
    # bit for bit, against a per-snapshot reference whose formula gives
    # 0.25 * log2(1 + 3) = 0.5
    assert _disc_rate_and_se(3.0, 0.25) == (2.0, 0.5)
    cfg = fig3_defaults()
    seeds = range(seed, seed + size)
    got = _disc_results(cfg, n, seeds, SCHEMES)
    assert got.shape == (size, len(SCHEMES), len(FIELDS))
    for row, s in zip(got, seeds):
        assert row.tobytes() == _disc_reference(cfg, n, s, SCHEMES).tobytes()


def test_fig3_issues_one_job_per_point_and_chunk(monkeypatch):
    # 400 seeds are one chunk of 1 cell, but two of 41 cells
    cfg = dataclasses.replace(fig3_defaults(), snapshots=400, sweep=(0, 40))
    payloads = []

    def counting(payload):
        payloads.append(payload)
        return _job(payload)

    monkeypatch.setattr("hetsim.harness._job", counting)
    report = run_preset("fig3", cfg)
    assert [p[1:4] for p in payloads] == [
        (0, 0, 400), (40, 0, 200), (40, 200, 400)
    ]
    assert report.raw.shape[-1] == 400

    # the job count changes who runs the jobs, never what they are, on the
    # disc and on the grid
    grid = SimConfig(grid_rows=2, snapshots=3, sweep=(3, 5))
    reports = {"fig3": report, "fig2": run_preset("fig2", grid)}
    layouts = {}

    def recording(jobs_payloads, jobs):
        layouts[jobs] = jobs_payloads
        return [_job(p) for p in jobs_payloads]

    monkeypatch.setattr("hetsim.harness._run_jobs", recording)
    for name, c in (("fig3", cfg), ("fig2", grid)):
        for jobs in (1, 2, 3, 5):
            raw = run_preset(name, c, jobs=jobs).raw
            assert raw.tobytes() == reports[name].raw.tobytes()
            assert layouts[jobs] == layouts[1]


def test_seed_chunks_cover_the_seeds_within_the_entry_bound():
    # up to MAX_USERS cells, the most a config admits
    for n in (0, 40, MAX_USERS - 1):
        for snapshots in (1, 7, 200, 401, 10_000):
            chunks = _seed_chunks(snapshots, n)
            starts, stops = zip(*chunks)
            assert starts[0] == 0 and stops[-1] == snapshots
            assert starts[1:] == stops[:-1]
            sizes = [stop - start for start, stop in chunks]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert max(sizes) * (1 + n) <= DISC_CHUNK_ENTRIES
    assert _seed_chunks(7, 3) == [(0, 7)]
    assert _seed_chunks(401, 40) == [(0, 200), (200, 401)]


def _one_snapshot(cfg, sweep_point, seed):
    """FIELDS values, by name, of the configured single variant on one
    snapshot."""
    cfg = dataclasses.replace(
        cfg, snapshots=1, sweep=(sweep_point,), base_seed=seed
    )
    raw = run_experiment(cfg).raw
    assert raw.shape == (1, 1, len(FIELDS), 1)
    return dict(zip(FIELDS, raw[0, 0, :, 0]))


def test_run_snapshot_deterministic(cfg):
    cfg = dataclasses.replace(cfg, pc_algorithm="tpc")
    a = _one_snapshot(cfg, 3, 17)
    b = _one_snapshot(cfg, 3, 17)
    assert np.array_equal(list(a.values()), list(b.values()), equal_nan=True)


def test_run_snapshot_disc_variant():
    cfg = dataclasses.replace(fig3_defaults(), assoc_downlink="hybrid")
    res = _one_snapshot(cfg, 5, 3)
    assert not np.isnan(res["spectral_eff_bps_hz"])
    assert np.isnan(res["hpue_outage"])
    assert res["convergence_rate"] == 1.0


def test_fig2_single_snapshot_protects_hpues(cfg):
    cfg = dataclasses.replace(cfg, pc_algorithm="ptpc")
    res = _one_snapshot(cfg, 3, 1)
    assert res["hpue_outage"] == 0.0
    assert res["safety_margin_w"] <= 0.0


def test_safety_check_allows_only_its_slack():
    # one low-priority user at unit gain to the one protected receiver: its
    # power is the aggregate, which may pass the 1 W threshold by 1e-12 of
    # it (floating-point noise) and no more
    caps = PrioritizedCapSet(
        cap=np.array([1.0]), ith=1.0, lpue_index=np.array([0]),
        gain_block=np.ones((1, 1)),
    )

    def margin(power):
        state = dataclasses.replace(_state([True]), p=np.array([power]))
        return _check_safety(caps, state, seed=7)

    assert margin(1.0 - 0.25) == -0.25
    assert 0.0 < margin(1.0 + 5e-13) <= 1e-12
    with pytest.raises(NumericError, match="seed=7"):
        margin(1.0 + 2e-12)


def test_monte_carlo_row_shape(cfg):
    cfg = dataclasses.replace(cfg, snapshots=2, sweep=(3, 4))
    report = run_preset("fig2", cfg)
    assert len(report.rows) == len(cfg.sweep) * len(FIG2_ALGORITHMS)
    for row in report.rows:
        assert row.seed_count == 2
        assert row.direction == "uplink"
        assert 0.0 <= row.hpue_outage <= 1.0
        assert 0.0 <= row.lpue_outage <= 1.0
        assert 0.0 <= row.convergence_rate <= 1.0
        assert row.agg_power_w <= cfg.pmax_w * 153 + 1e-9
        assert row.spectral_eff_bps_hz is None


def test_reports_identical_across_job_counts(cfg):
    cfg = dataclasses.replace(cfg, snapshots=4, sweep=(3,))
    seq = run_preset("fig2", cfg, jobs=1)
    par = run_preset("fig2", cfg, jobs=3)
    assert seq.rows == par.rows

    # 401 seeds of 41 cells fill uneven disc chunks of 200 and 201 seeds,
    # which the pool merges in order; the preset's 5 points stay whole
    for sweep, snapshots in (((40,), 401), (fig3_defaults().sweep, 7)):
        disc = dataclasses.replace(
            fig3_defaults(), snapshots=snapshots, sweep=sweep
        )
        d_seq = run_preset("fig3", disc)
        for jobs in (2, 3):
            d_par = run_preset("fig3", disc, jobs=jobs)
            assert d_seq.rows == d_par.rows
            assert d_seq.raw.tobytes() == d_par.raw.tobytes()


# one run count per payload index, in shared memory made before each run
# forks its workers, so that they count into it
_RUNS = None
# how a failing worker dies: None (its job raises), "exit" or "kill"
_DEATH = None
# the process that runs the tests, which never dies
_CALLER = os.getpid()
# the jobs each process started so far; a worker's copy goes on from the
# caller's count at the fork
_STARTED = itertools.count()


def _counted_job(payload):
    """A stand-in for ``_job`` on ``(index, failing)`` payloads: counts its
    run, takes a few milliseconds, and returns the index, the process that
    ran it and the job's place among that process's jobs. A job fails when
    ``failing`` names the kind of process that runs it, "parent" or
    "worker": it raises ``NumericError``, or, in a worker, dies as
    ``_DEATH`` says: by ``os._exit(7)`` or by SIGKILL."""
    index, failing = payload
    with _RUNS.get_lock():
        _RUNS[index] += 1
    started = next(_STARTED)
    time.sleep(0.005)
    kind = "parent" if os.getpid() == _CALLER else "worker"
    if failing == kind:
        if kind == "worker" and _DEATH == "exit":
            os._exit(7)
        if kind == "worker" and _DEATH == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise NumericError(f"job {index} failed in the {kind}")
    return index, os.getpid(), started


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Fails the test with TimeoutError if its body takes longer than
    ``seconds``, so that a hang fails instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _counting_forks(monkeypatch):
    """The pids of the workers forked from here on, as a list that grows."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_parent_runs_jobs_beside_one_worker_fewer(monkeypatch):
    forks = _counting_forks(monkeypatch)
    with monkeypatch.context() as patched:
        patched.setattr("hetsim.harness._job", _counted_job)
        for jobs, count in ((2, 12), (3, 12), (5, 12), (5, 3), (3, 1)):
            patched.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
            forks.clear()
            results = _run_jobs([(k, None) for k in range(count)], jobs)
            assert [index for index, *_ in results] == list(range(count))
            assert list(_RUNS) == [1] * count
            assert len(forks) == min(jobs, count) - 1
            # each process ran its payloads from the highest index down
            ran = {}
            for index, pid, _ in sorted(results, key=lambda result: result[2]):
                ran.setdefault(pid, []).append(index)
            assert set(ran) <= {os.getpid(), *forks}
            for indices in ran.values():
                assert indices == sorted(indices, reverse=True)
            if jobs == 2:
                # one worker would have to finish twelve jobs before this
                # process takes its first payload
                assert os.getpid() in ran
    _assert_no_child_left()

    # the reports stay byte-identical, and one payload forks nothing
    cfg = SimConfig(grid_rows=2, snapshots=3, sweep=(3, 5))
    raw = run_preset("fig2", cfg).raw.tobytes()
    for jobs in (2, 3, 5):
        forks.clear()
        assert run_preset("fig2", cfg, jobs=jobs).raw.tobytes() == raw
        assert len(forks) == jobs - 1
    forks.clear()
    single = dataclasses.replace(cfg, snapshots=1, sweep=(3,))
    assert run_preset("fig2", single, jobs=3).rows == run_preset("fig2", single).rows
    assert forks == []
    _assert_no_child_left()


@pytest.mark.parametrize("failing", ["parent", "worker"])
def test_failed_job_stops_the_pool(monkeypatch, failing):
    # every job of the failing process raises, so its first one stops the
    # pool and the other process takes about one payload more
    count = 40
    monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
    monkeypatch.setattr("hetsim.harness._job", _counted_job)
    with _deadline(30), pytest.raises(NumericError, match=f"failed in the {failing}"):
        _run_jobs([(k, failing) for k in range(count)], 2)
    assert sum(_RUNS) < count
    _assert_no_child_left()


@pytest.mark.parametrize(
    "death, status", [("exit", "exit status 7"), ("kill", "signal 9")]
)
def test_dead_worker_raises(monkeypatch, death, status):
    # the worker dies in its first job; the caller runs the rest, then
    # reports the death instead of a result with a hole
    count = 20
    monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
    monkeypatch.setitem(globals(), "_DEATH", death)
    monkeypatch.setattr("hetsim.harness._job", _counted_job)
    with _deadline(30), pytest.raises(SimError, match=status):
        _run_jobs([(k, "worker") for k in range(count)], 2)
    assert list(_RUNS) == [1] * count
    _assert_no_child_left()


def test_worker_dying_with_the_claim_lock_held(monkeypatch):
    # the worker kills itself right after it locks the shared record for
    # its second claim; the kernel frees the lock, so the caller goes on
    count = 20
    monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
    monkeypatch.setattr("hetsim.harness._job", _counted_job)
    lockf = fcntl.lockf
    locks = []

    def dying_lockf(fd, cmd, *args):
        lockf(fd, cmd, *args)
        if cmd == fcntl.LOCK_EX and os.getpid() != _CALLER:
            locks.append(fd)
            if len(locks) == 2:
                os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(fcntl, "lockf", dying_lockf)
    with _deadline(30), pytest.raises(SimError, match="signal 9"):
        _run_jobs([(k, None) for k in range(count)], 2)
    # the worker ran one payload; the caller ran the others
    assert list(_RUNS) == [1] * count
    _assert_no_child_left()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_runs_leave_no_file_descriptor_open(monkeypatch):
    # a run opens a claims file and one results file per worker, and closes
    # them all whether it succeeds, a job raises, a worker dies, or a fork
    # fails after the first worker
    count = 12
    monkeypatch.setattr("hetsim.harness._job", _counted_job)
    fork = os.fork

    def second_fork_fails():
        if forked:
            raise OSError("no second fork")
        forked.append(True)
        return fork()

    cases = [
        (None, None, None),
        ("parent", None, NumericError),
        ("worker", "exit", SimError),
        (None, None, OSError),
    ]
    for failing, death, error in cases:
        monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
        monkeypatch.setitem(globals(), "_DEATH", death)
        forked = []
        before = _open_fds()
        with monkeypatch.context() as patched, _deadline(30):
            if error is OSError:
                patched.setattr(os, "fork", second_fork_fails)
            with pytest.raises(error) if error else contextlib.nullcontext():
                _run_jobs([(k, failing) for k in range(count)], 3)
        assert _open_fds() == before, (failing, error)
        _assert_no_child_left()
    # the last run forked its first worker
    assert forked == [True]


def test_cli_exits_3_when_a_worker_dies(tmp_path, capsys, monkeypatch):
    job = harness._job

    def dying(payload):
        if os.getpid() != _CALLER:
            os._exit(5)
        return job(payload)

    monkeypatch.setattr("hetsim.harness._job", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "out"
    args = ["fig3", "--set", "mc.snapshots=3", "--set", "mc.sweep=2,3"]
    with _deadline(60):
        code = main([*args, "--out", str(out), "--jobs", "2"])
    assert code == 3
    assert "exit status 5" in capsys.readouterr().err
    assert not out.exists()
    _assert_no_child_left()


def _large_job(payload):
    # about 1 MB each, far more than one write need take; the caller's
    # jobs are slow, so that the worker runs most of them
    if os.getpid() == _CALLER:
        time.sleep(0.05)
    return np.full(2**17, float(payload)), os.getpid()


def test_large_worker_results_arrive_intact(monkeypatch):
    monkeypatch.setattr("hetsim.harness._job", _large_job)
    with _deadline(60):
        results = _run_jobs(list(range(6)), 2)
    for k, (result, _) in enumerate(results):
        assert result.tobytes() == np.full(2**17, float(k)).tobytes()
    assert {pid for _, pid in results} - {os.getpid()}
    _assert_no_child_left()


def _mark_finalized():
    _RUNS[0] = os.getpid()


def _finalizing_job(payload):
    # registers an exit finalizer in the worker that runs it, as perfbench's
    # tracer does to write a forked worker's spans
    if os.getpid() != _CALLER:
        multiprocessing.util.Finalize(None, _mark_finalized, exitpriority=10)
    time.sleep(0.005)
    return payload


def test_workers_run_their_exit_finalizers(monkeypatch):
    monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", 1))
    monkeypatch.setattr("hetsim.harness._job", _finalizing_job)
    with _deadline(30):
        assert _run_jobs(list(range(20)), 2) == list(range(20))
    assert _RUNS[0] not in (0, os.getpid())
    _assert_no_child_left()


def _tallied_job(payload):
    with _RUNS.get_lock():
        _RUNS[payload] += 1
    return payload


def test_claims_hold_under_contention(monkeypatch):
    # more processes than cores race for thousands of near-empty jobs; a
    # claim lost or taken twice leaves a count other than 1 or a hole
    count = 3000
    monkeypatch.setitem(globals(), "_RUNS", multiprocessing.Array("i", count))
    monkeypatch.setattr("hetsim.harness._job", _tallied_job)
    with _deadline(60):
        results = _run_jobs(list(range(count)), min(os.cpu_count() or 1, 8) + 2)
    assert results == list(range(count))
    assert list(_RUNS) == [1] * count
    _assert_no_child_left()


def test_shared_twin_sweeps_match_separate_runs(monkeypatch):
    # fig2 runs tpc_gr / ptpc_gr after tpc / ptpc on each snapshot's system,
    # and every twin run resumes from its base run's fork record there: a
    # copy of the base result, which computes no sweep, or a run from the
    # fork, which computes fewer sweeps than it returns. Each twin run alone
    # must give the same rows and per-seed results
    cfg = SimConfig(grid_rows=2, snapshots=3, sweep=(3, 5))
    counting = CountingNumpy()
    resumed = []

    def recording(system, *, algorithm, **kwargs):
        key = (algorithm, kwargs["hpue_algorithm"], kwargs["max_iters"],
               kwargs["tol"], kwargs["tol_support"])
        record = system._forks.get(key)
        before = counting.matmuls
        state = iterate_power_control(system, algorithm=algorithm, **kwargs)
        if algorithm in ("tpc_gr", "ptpc_gr"):
            resumed.append((record and record[0], counting.matmuls - before,
                            state.iterations, record is not None))
        return state

    with monkeypatch.context() as patch:
        patch.setattr("hetsim.harness.iterate_power_control", recording)
        patch.setattr(power_control, "np", counting)
        shared = run_preset("fig2", cfg)
    assert len(resumed) == 2 * len(cfg.sweep) * cfg.snapshots
    assert all(found for *_, found in resumed)
    copies = [computed for fork, computed, _, _ in resumed if fork is None]
    forks = [(computed, iterations) for fork, computed, iterations, _ in resumed
             if fork is not None]
    assert copies and forks
    assert set(copies) == {0}
    assert all(computed < iterations for computed, iterations in forks)
    rows = {(r.sweep_value, r.algorithm): r for r in shared.rows}
    for alg in ("tpc_gr", "ptpc_gr"):
        alone = run_experiment(
            cfg, (alg,), hpue_algorithm="tpc", experiment="fig2"
        )
        for row in alone.rows:
            assert dataclasses.asdict(row) == dataclasses.asdict(
                rows[(row.sweep_value, alg)]
            )
        assert np.array_equal(
            alone.raw[:, 0],
            shared.raw[:, FIG2_ALGORITHMS.index(alg)],
            equal_nan=True,
        )


def test_fig2_builds_one_system_per_snapshot(monkeypatch):
    # the four power-control runs of a snapshot share one validated system
    cfg = dataclasses.replace(SimConfig(), snapshots=1)
    built, runs = [], []
    post_init = CochannelSystem.__post_init__

    def counting(self, a):
        built.append(self)
        post_init(self, a)

    def recording(system, *args, **kwargs):
        runs.append(system)
        return iterate_power_control(system, *args, **kwargs)

    monkeypatch.setattr(CochannelSystem, "__post_init__", counting)
    monkeypatch.setattr("hetsim.harness.iterate_power_control", recording)
    run_preset("fig2", cfg)
    snapshots = len(cfg.sweep) * cfg.snapshots
    assert len(built) == snapshots
    assert len(runs) == snapshots * len(FIG2_ALGORITHMS)
    # each snapshot's runs, in order, take the system built for it
    for k, system in enumerate(built):
        group = runs[k * len(FIG2_ALGORITHMS) : (k + 1) * len(FIG2_ALGORITHMS)]
        assert all(run is system for run in group)


def test_raw_identical_across_job_counts_and_nan_where_absent():
    # raw is (point, variant, field, seed) for any job count, which pins the
    # iteration counts and safety margins that no report file carries. NaN
    # marks exactly the absent values: the grid's spectral efficiency, the
    # margins of non-prioritized runs, and the disc's outages and margins
    grid = SimConfig(grid_rows=2, snapshots=3, sweep=(3, 5))
    disc = dataclasses.replace(fig3_defaults(), snapshots=3, sweep=(0, 5))
    grid_absent = np.zeros((len(FIG2_ALGORITHMS), len(FIELDS)), dtype=bool)
    grid_absent[:, FIELDS.index("spectral_eff_bps_hz")] = True
    for alg in ("tpc", "tpc_gr"):
        grid_absent[
            FIG2_ALGORITHMS.index(alg), FIELDS.index("safety_margin_w")
        ] = True
    disc_absent = np.zeros((len(FIG3_SCHEMES), len(FIELDS)), dtype=bool)
    for field in ("hpue_outage", "lpue_outage", "safety_margin_w"):
        disc_absent[:, FIELDS.index(field)] = True
    for name, cfg, absent in (
        ("fig2", grid, grid_absent),
        ("fig3", disc, disc_absent),
    ):
        report = run_preset(name, cfg, jobs=1)
        raw = report.raw
        assert raw.shape == (
            len(cfg.sweep), len(absent), len(FIELDS), cfg.snapshots
        )
        assert raw.flags.c_contiguous
        assert np.array_equal(
            raw, run_preset(name, cfg, jobs=2).raw, equal_nan=True
        )
        assert np.array_equal(
            np.isnan(raw), np.broadcast_to(absent[:, :, None], raw.shape)
        )
        converged = raw[:, :, FIELDS.index("convergence_rate")]
        assert set(np.unique(converged)) <= {0.0, 1.0}
        # rows follow raw's (point, variant) order
        power = raw[:, :, FIELDS.index("agg_power_w")]
        for row, per_seed in zip(report.rows, power.reshape(-1, cfg.snapshots)):
            assert row.agg_power_w == np.mean(per_seed)


def test_fig3_schemes_agree_without_small_cells():
    cfg = dataclasses.replace(fig3_defaults(), snapshots=5, sweep=(0,))
    report = run_preset("fig3", cfg)
    ses = [row.spectral_eff_bps_hz for row in report.rows]
    assert max(ses) - min(ses) == 0.0


def test_run_monte_carlo_dispatches_on_geometry(cfg):
    grid_cfg = dataclasses.replace(cfg, snapshots=2, sweep=(3,))
    disc_cfg = dataclasses.replace(
        fig3_defaults(), snapshots=2, sweep=(4,), assoc_downlink="distance"
    )
    grid = run_experiment(grid_cfg)
    disc = run_experiment(disc_cfg)
    assert grid.rows[0].direction == "uplink"
    assert grid.rows[0].algorithm == grid_cfg.pc_algorithm
    assert disc.rows[0].direction == "downlink"
    assert disc.rows[0].scheme == "distance"
    assert disc.rows[0].algorithm == "none"


def test_lpue_outage_trend_non_decreasing_in_density(cfg):
    # with the shipped defaults and this fixed seed block the Monte Carlo
    # mean grows with densification
    cfg = dataclasses.replace(cfg, snapshots=400)
    report = run_experiment(cfg, ("tpc",), hpue_algorithm="tpc", jobs=2)
    outages = [row.lpue_outage for row in report.rows]
    assert outages == sorted(outages)


def test_tpc_gr_never_worse_than_tpc_on_shared_snapshots(cfg):
    cfg = dataclasses.replace(cfg, snapshots=30, sweep=(3, 5))
    report = run_experiment(
        cfg, ("tpc", "tpc_gr"), hpue_algorithm="tpc", jobs=2
    )
    rows = {(r.sweep_value, r.algorithm): r for r in report.rows}
    for n in cfg.sweep:
        assert (
            rows[(n, "tpc_gr")].lpue_outage
            <= rows[(n, "tpc")].lpue_outage + 0.01
        )


def test_monte_carlo_error_scaling(cfg):
    # doubling the snapshot count shrinks the standard error of the outage
    # estimate by about 1/sqrt(2)
    def estimates(snapshots, replications):
        out = []
        for rep in range(replications):
            c = dataclasses.replace(
                cfg,
                snapshots=snapshots,
                sweep=(3,),
                base_seed=1 + rep * 10_000,
            )
            report = run_experiment(c, ("tpc",), hpue_algorithm="tpc")
            out.append(report.rows[0].lpue_outage)
        return np.std(out)

    se_small = estimates(6, 24)
    se_big = estimates(12, 24)
    assert se_big <= se_small / np.sqrt(2) * 1.3
    assert se_big >= se_small / np.sqrt(2) * 0.7


def test_mei_with_opc_is_permitted_but_does_not_help_throughput(cfg):
    # the combination runs (it is not forbidden), yet chasing the least
    # effective interference brings no aggregate-throughput gain over the
    # channel-driven rsrp association
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        snap = generate_fig2_snapshot(cfg, 3, seed)
        gains = build_gain_matrix(snap, cfg)
        st_mei, st_rsrp = (
            iterate_power_control(
                cochannel_system(
                    snap, gains, associate(snap, gains, scheme, cfg), cfg
                ),
                algorithm="opc",
            )
            for scheme in ("mei", "rsrp")
        )
        assert st_mei.converged and st_rsrp.converged
        gaps.append(
            np.log2(1 + st_mei.sir).sum() - np.log2(1 + st_rsrp.sir).sum()
        )
    assert np.mean(gaps) <= 0.0



def test_mei_association_power_control_pipeline(cfg):
    # prioritized caps still bound the protected receivers when users are
    # served by their minimum-effective-interference cell instead of home
    cfg = dataclasses.replace(cfg, assoc_uplink="mei", pc_algorithm="ptpc")
    res = _one_snapshot(cfg, 3, 2)
    assert res["convergence_rate"] == 1.0
    assert res["safety_margin_w"] <= 0.0
