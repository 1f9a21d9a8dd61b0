"""Distributed power-control maps and their exact oracles.

All updates act on a user-indexed power vector through the effective
interference

    R_i = (sum_{j != i} a[i, j] * p_j + noise_i) / a[i, i],

where ``a`` is the square co-channel gain matrix: ``a[i, j]`` is the gain
from user j's transmitter to user i's serving receiver. The achieved SIR is
``p_i / R_i`` exactly.

Update maps (each user, synchronously):

* ``tpc``     p' = min(p_max, target * R)             target tracking
* ``tpc_gr``  as tpc, but demands q beyond the budget are answered with
              p_max**2 / q (soft removal: power falls as infeasibility grows)
* ``opc``     p' = min(p_max, eta / R)                opportunistic
* ``dtpc``    p' = min(p_max, max(target * R, eta / R))
              selective max: opportunistic branch exactly when
              R < sqrt(eta / target), so supported users keep SIR >= target

``ptpc`` / ``ptpc_gr`` / ``popc`` are the prioritized variants: low-priority
users run the base map clipped by a static interference cap while
high-priority users run plain tpc.

``tpc_gr`` and ``ptpc_gr`` are the soft-removal twins of ``tpc`` and ``ptpc``:
each sweep is a pure function of the current iterate, so a twin repeats its
base run bit for bit up to the first sweep where a demand passes the bound
past which soft removal can change an answer. A base run asked to watch for
that sweep lets its twin resume there.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, OracleError
from .network import UPLINK

BASE_ALGORITHMS = ("tpc", "tpc_gr", "opc", "dtpc")
ALGORITHMS = (*BASE_ALGORITHMS, "ptpc", "ptpc_gr", "popc")
PRIORITIZED_BASE = {"ptpc": "tpc", "ptpc_gr": "tpc_gr", "popc": "opc"}
# each algorithm's soft-removal twin, which answers demands above the budget
# with p_max**2 / q where the algorithm answers with the budget
SOFT_REMOVAL_TWINS = {"tpc": "tpc_gr", "ptpc": "ptpc_gr"}

DEFAULT_MAX_ITERS = 2000
DEFAULT_TOL = 1e-9
DEFAULT_TOL_SUPPORT = 1e-6

# Scale floor for the relative convergence test; only relevant while the
# iterate is still exactly zero.
_SCALE_FLOOR = 1e-30
# Sweeps per convergence test (and per twin watch). A run's first block
# holds _FIRST_BLOCK sweeps; each later block holds as many as the step
# needs to pass the test if it keeps shrinking as over the block before
# (_next_block), between _MIN_BLOCK and _BLOCK. So a run computes few
# sweeps past the one it returns, a long run pays few tests, and a short
# block's test costs no more than the sweeps it saves.
_BLOCK = 32
_FIRST_BLOCK = 16
_MIN_BLOCK = 2


@dataclass
class PowerState:
    """Result of a power-control run (or one synchronous sweep).

    ``fork`` is set when the run was asked to watch for its soft-removal
    twin (see ``iterate_power_control``): ``(twin, k, p)`` with k the first
    sweep where a demand exceeds the twin's removal bound and p the iterate
    before it, or ``(twin, None, None)`` when no sweep did.
    """

    p: np.ndarray
    sir: np.ndarray
    supported: np.ndarray
    iterations: int
    converged: bool
    fork: tuple | None = None


@dataclass
class PrioritizedCapSet:
    """Static per-user power caps protecting high-priority receivers.

    Every protected receiver has the same interference threshold ``ith``
    (watts), and every low-priority user gets an equal share of it:

        cap[i] = min_m ith / (n_lp * gain_block[m, i]),

    with ``n_lp`` the number of low-priority users. Honoring every cap
    therefore keeps aggregate low-priority interference at each protected
    receiver at or below ``ith`` by construction. ``cap`` is per-user,
    +inf for users the caps do not act on.
    """

    cap: np.ndarray
    ith: float
    lpue_index: np.ndarray
    gain_block: np.ndarray


def prioritized_caps(snapshot, gains, ith):
    """Equal-share static caps for every low-priority user (uplink only)."""
    if snapshot.direction != UPLINK:
        raise ValueError("prioritized caps are defined for uplink snapshots")
    protected = np.flatnonzero(~snapshot.bs_small)
    lpue_index = np.flatnonzero(snapshot.lpue_mask)
    if not ith > 0:
        raise ValueError("the interference threshold must be positive")

    cap = np.full(snapshot.n_users, np.inf)
    gain_block = gains.gains[np.ix_(protected, lpue_index)]
    if protected.size and lpue_index.size:
        # a zero gain leaves the user unconstrained by that receiver
        with np.errstate(divide="ignore"):
            share = ith / (lpue_index.size * gain_block)
        cap[lpue_index] = share.min(axis=0)
    return PrioritizedCapSet(
        cap=cap,
        ith=ith,
        lpue_index=lpue_index,
        gain_block=gain_block,
    )


def _aligned(a):
    """A copy of the square matrix ``a`` whose rows start on 64-byte
    boundaries: the ``[:, :n]`` view of a 64-byte-aligned buffer with rows
    padded to a multiple of 8 entries. A matrix-vector product through it
    gives the same bits as through ``a``, in fewer cycles."""
    n = a.shape[0]
    ld = -(-n // 8) * 8
    buf = np.empty(n * ld + 8)
    start = -buf.ctypes.data % 64 // 8
    out = buf[start : start + n * ld].reshape(n, ld)[:, :n]
    out[...] = a
    return out


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    spectral_radius: float


def _per_user(value, n, what):
    """A float copy of ``value`` (a scalar or one value per user) with one
    entry per user."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), (n,)):
        raise ValueError(f"{what} must be a scalar or hold one value per user")
    return np.full(n, arr)


@dataclass(frozen=True, eq=False)
class CochannelSystem:
    """One power-control problem: a square co-channel system (a, noise,
    targets) with its users' budgets, opportunistic targets, priorities and
    caps, validated once when built and shared by the kernel and both
    oracles.

    ``a[i, j]`` is the gain from user j's transmitter to user i's serving
    receiver, ``noise[i]`` that receiver's noise power and ``targets[i]``
    user i's target SIR. ``p_max`` is the power budget, positive with a
    finite square (soft removal answers with p_max**2 / q), and ``eta`` the
    opportunistic target of ``opc``/``dtpc``; either may be one scalar for
    every user. ``lpue_mask`` flags the low-priority users and ``cap`` holds
    their static caps (``PrioritizedCapSet.cap``), both needed by the
    prioritized algorithms only. The system keeps read-only copies of these
    arrays, the serving gains ``diag`` and the zero-diagonal coupling
    ``off`` with 64-byte-aligned rows (``_aligned``), so later writes to the
    caller's arrays do not reach it; ``a`` itself is not kept. The
    normalized coupling ``coupling`` and the feasibility verdict
    ``feasibility`` are computed on first use and kept.
    """

    a: InitVar[np.ndarray]
    noise: np.ndarray
    targets: np.ndarray
    p_max: np.ndarray
    eta: np.ndarray | None = None
    lpue_mask: np.ndarray | None = None
    cap: np.ndarray | None = None
    diag: np.ndarray = field(init=False)
    off: np.ndarray = field(init=False)

    def __post_init__(self, a):
        a = np.asarray(a, dtype=float)
        noise = np.array(self.noise, dtype=float)
        targets = np.array(self.targets, dtype=float)
        n = targets.shape[0]
        if a.shape != (n, n):
            raise ValueError("gain matrix must be square and match targets")
        # min/max reductions: a NaN fails the first test, an inf the second
        if a.size and not (a.min() >= 0 and np.isfinite(a.max())):
            raise ValueError("gain matrix entries must be finite and non-negative")
        diag = np.diag(a).copy()
        if not (diag > 0).all():
            raise ValueError("serving-link gains (diagonal) must be positive")
        if noise.shape != (n,) or not ((noise > 0).all() and np.isfinite(noise).all()):
            raise ValueError("noise must be positive and finite, one per user")
        if not ((targets > 0).all() and np.isfinite(targets).all()):
            raise ValueError("target SIRs must be positive and finite")
        p_max = _per_user(self.p_max, n, "power budgets")
        top = float(p_max.max(initial=0.0))
        if not (p_max.min(initial=np.inf) > 0 and top * top < np.inf):
            raise ValueError(
                "power budgets must be positive with a finite square "
                "(soft removal answers with p_max**2 / q)"
            )
        kept = {"noise": noise, "targets": targets, "p_max": p_max}
        if self.eta is not None:
            kept["eta"] = eta = _per_user(self.eta, n, "eta")
            if not (eta > 0).all():
                raise ValueError("eta must be positive")
        if self.lpue_mask is not None:
            kept["lpue_mask"] = mask = np.array(self.lpue_mask, dtype=bool)
            if mask.shape != (n,):
                raise ValueError("lpue_mask must have one flag per user")
        if self.cap is not None:
            kept["cap"] = cap = np.array(self.cap, dtype=float)
            if cap.shape != (n,) or not (cap >= 0).all():
                raise ValueError("caps must hold one non-negative cap per user")
        kept["diag"] = diag
        kept["off"] = off = _aligned(a)
        np.fill_diagonal(off, 0.0)
        for name, arr in kept.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def coupling(self):
        """Normalized interference coupling F with F[i, j] = target_i *
        a[i, j] / a[i, i] off the diagonal and 0 on it; the targets are
        jointly achievable iff the Perron root of F is below one."""
        f = self.targets[:, None] * self.off / self.diag[:, None]
        f.flags.writeable = False
        return f

    @cached_property
    def feasibility(self):
        """Perron root of ``coupling`` by dense eigenvalues; raises
        NumericError when the eigenvalue routine cannot settle it."""
        try:
            eigenvalues = np.linalg.eigvals(self.coupling)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Perron root not settled: {exc}") from exc
        rho = float(np.abs(eigenvalues).max())
        return FeasibilityResult(feasible=rho < 1.0, spectral_radius=rho)


def cochannel_system(snapshot, gains, serving, cfg, caps=None):
    """The square per-user system of (gains, serving cells), with the
    snapshot's priorities, the configured common target SIR, budget and
    opportunistic target (``cfg.target_sir_linear``, ``cfg.pmax_w`` and
    ``cfg.opc_eta``), and the static caps of ``caps`` (a
    ``PrioritizedCapSet``) if given.

    Uplink only: ``a[i, j]`` is the gain from user j to user i's serving
    receiver ``serving[i]``, and ``noise[i]`` is that receiver's noise power.
    """
    if snapshot.direction != UPLINK:
        raise ValueError("the iterated power-control system is uplink-only")
    return CochannelSystem(
        gains.gains[serving, :], gains.noise[serving],
        np.full(snapshot.n_users, cfg.target_sir_linear), cfg.pmax_w,
        eta=cfg.opc_eta, lpue_mask=snapshot.lpue_mask,
        cap=None if caps is None else caps.cap,
    )


def _next_block(steps, threshold):
    """Sweeps in the block after one whose sweeps moved the iterate by
    ``steps`` (a list of floats) and all failed the test, the last against
    ``threshold``: as many as the step needs to fall below it if it keeps
    shrinking at its mean rate over the block, within [_MIN_BLOCK,
    _BLOCK]. A step that did not shrink gets a full block. Python floats
    keep it cheap beside the sweeps of a small system."""
    first, last = steps[0], steps[-1]
    if len(steps) > 1 and threshold > 0 and 0 < last < first:
        decay = math.log(first / last)
        if decay > 0:
            need = (len(steps) - 1) * math.log(last / threshold) / decay
            return math.ceil(min(max(need, _MIN_BLOCK), _BLOCK))
    return _BLOCK


def iterate_power_control(
    system,
    *,
    algorithm="tpc",
    hpue_algorithm=None,
    max_iters=DEFAULT_MAX_ITERS,
    tol=DEFAULT_TOL,
    tol_support=DEFAULT_TOL_SUPPORT,
    p0=None,
    twin=None,
    resume=None,
):
    """Synchronous fixed-point iteration of the chosen update map on a
    ``CochannelSystem``, starting from ``p0`` (default: the zero vector).

    The budgets, ``eta``, the low-priority mask and the caps are read off
    the system: ``opc``/``dtpc`` need its ``eta``, and the prioritized
    algorithms its ``lpue_mask`` and ``cap``, which clip their low-priority
    users. The low-priority users run the algorithm's base map and the
    others track with tpc when the algorithm is prioritized or
    ``hpue_algorithm="tpc"``; with ``hpue_algorithm=None`` (the only other
    value) a non-prioritized algorithm runs on every user.

    Stops when ``||p(t+1) - p(t)||_inf < tol * max(||p(t)||_inf, eps)`` or
    after ``max_iters`` sweeps; non-convergence is flagged on the returned
    state, never raised.

    ``tpc`` and ``ptpc`` are standard interference functions (Yates 1995):
    positive, monotone and scalable, so the clipped map ``p = min(clip, F p
    + u)`` (F the system's ``coupling``) has one fixed point, which every
    run approaches and one linear solve on the unclipped users certifies
    (``fixed_point_oracle`` is the case where no clip binds). ``tpc_gr``,
    ``opc`` and ``dtpc`` and their prioritized variants are not monotone:
    soft removal and ``eta / R`` fall as interference grows. Sung & Leung's
    two-sided scalability (2005) covers them: a fixed point, when one
    exists, is unique and the iteration reaches it, but no linear solve
    certifies it.

    Sweeps run in blocks into the rows of one buffer, each a pass over
    preallocated buffers with the maps picked per user by masks and one
    per-user clip, both built once. The convergence test then checks every
    sweep of the block at once and returns the first that passes; ``max``
    is exact, so the result is that of a test after every sweep, whatever
    the block sizes. The first block holds ``_FIRST_BLOCK`` sweeps, and each
    later one the sweeps the step needs to pass the test at the rate it
    shrank over the block before (``_next_block``, within ``_MIN_BLOCK``
    and ``_BLOCK``). Sweeps computed past the returned one are never
    reported, nor is a fork recorded in them. On the 25-seed fig2 input the
    runs compute 36,658 sweeps for the 36,558 they need (46,183 logical
    ones, counting the sweeps a twin shares) in 1,459 blocks, where fixed
    blocks of 16 computed 38,864 in 2,629. The system holds the coupling
    matrix with 64-byte-aligned rows, so several runs on one system (as
    fig2's four algorithms on one snapshot) validate and copy it once.

    Sweep sharing between ``tpc``/``ptpc`` and their soft-removal twins
    (``SOFT_REMOVAL_TWINS``): a base run given ``twin=<its twin>`` records
    in ``fork`` the first sweep where a demand exceeds the twin's removal
    bound, at or below which both runs answer alike. It keeps each sweep's
    demand in a row of a block buffer and tests the whole block against the
    bound at once, so it finds the sweep a test after every sweep would
    find, at one test per block. The twin run, given ``resume=<that base
    state>`` and otherwise the same arguments, starts at that sweep from the
    recorded iterate, or returns a copy of the base result when no sweep
    passed the bound. Either way its powers, iteration count and
    convergence flag are those of a run from the start, bit for bit.
    """
    n = system.targets.shape[0]
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown power-control algorithm {algorithm!r}")
    if hpue_algorithm not in (None, "tpc"):
        raise ValueError(
            f"unknown base power-control algorithm {hpue_algorithm!r} for the "
            "high-priority users (None or 'tpc')"
        )
    prioritized = algorithm in PRIORITIZED_BASE
    base_alg = PRIORITIZED_BASE.get(algorithm, algorithm)
    opportunistic = base_alg in ("opc", "dtpc")
    if opportunistic and system.eta is None:
        raise ValueError(f"{algorithm} requires the opportunistic target eta")
    if prioritized and (system.lpue_mask is None or system.cap is None):
        raise ValueError(
            f"{algorithm} needs a system with lpue_mask and caps "
            "(see prioritized_caps)"
        )
    if p0 is not None:
        # iterates then stay non-negative, so max(p) is their inf-norm
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (n,) or not (np.isfinite(p0).all() and (p0 >= 0).all()):
            raise ValueError("p0 must hold one finite, non-negative power per user")
    # the users on the base map: the low-priority ones when the others track
    # with tpc, else every user; a plain bool when every user is
    users = True
    if system.lpue_mask is not None and (prioritized or hpue_algorithm == "tpc"):
        users = system.lpue_mask
    opc = users if base_alg == "opc" else False
    dtpc = users if base_alg == "dtpc" else False

    # per-user clip of the demand: the budget and the static caps
    p_max, eta = system.p_max, system.eta
    cap = system.cap if prioritized else np.inf
    clip = np.minimum(p_max, cap)
    # finite: the system checks that every budget has a finite square
    p_max_sq = p_max * p_max
    soft_removal = base_alg == "tpc_gr"
    if soft_removal:
        # tpc_gr users answer demands above their budget with p_max**2 / q,
        # which lies below it, so only their static cap clips
        clip = np.where(users, cap, clip)
        soft_above = np.where(users, p_max, np.inf)
    fork = None
    if twin is not None:
        if SOFT_REMOVAL_TWINS.get(algorithm) != twin:
            raise ValueError(f"{algorithm!r} cannot share sweeps with {twin!r}")
        # The twin runs soft removal on the same users. Both runs answer a
        # demand q at or below this bound alike: up to the budget nothing is
        # removed, and beyond it a cap that binds (cap <= p_max**2 / q)
        # clips both answers to the cap. nextafter keeps the bound at or
        # below the exact p_max**2 / cap.
        with np.errstate(divide="ignore", invalid="ignore"):
            removal = np.nextafter(p_max_sq / cap, 0.0)
        twin_bound = np.where(users, np.maximum(p_max, removal), np.inf)
        fork = (twin, None, None)
    watching = twin is not None

    start = 1
    if resume is not None:
        if resume.fork is None or resume.fork[0] != algorithm:
            raise ValueError(
                f"resume state was not recorded for twin {algorithm!r}"
            )
        _, fork_sweep, fork_p = resume.fork
        if fork_sweep is None:
            return PowerState(
                p=resume.p.copy(),
                sir=resume.sir.copy(),
                supported=resume.supported.copy(),
                iterations=resume.iterations,
                converged=resume.converged,
            )
        start, p0 = fork_sweep, fork_p

    noise, targets = system.noise, system.targets
    diag, off = system.diag, system.off
    if soft_removal:
        over_budget = np.empty(n, dtype=bool)

    # row 0 holds the iterate a block starts from, row j + 1 its sweep j
    block = np.zeros((_BLOCK + 1, n))
    if p0 is not None:
        block[0] = p0
    rows = list(block)
    r, work = np.empty(n), np.empty(n)
    # a watched run keeps each sweep's demand, row j for sweep j of a block
    demands = np.empty((_BLOCK if watching else 1, n))
    qs = list(demands) if watching else [demands[0]] * _BLOCK

    converged = False
    iterations = last = 0
    it, size = start, min(_FIRST_BLOCK, _BLOCK)
    while it <= max_iters:
        k = min(size, max_iters + 1 - it)
        for j in range(k):
            q = qs[j]
            np.matmul(off, rows[j], out=r)
            r += noise
            r /= diag
            # demand q: target * R (tpc family), eta / R (opc), the larger (dtpc)
            np.multiply(targets, r, out=q)
            if opportunistic:
                np.divide(eta, r, out=work)
                np.maximum(q, work, out=q, where=dtpc)
                np.copyto(q, work, where=opc)
            if soft_removal:
                np.greater(q, soft_above, out=over_budget)
                np.divide(p_max_sq, q, out=q, where=over_budget)
            np.minimum(q, clip, out=rows[j + 1])
        if watching:
            crossed = np.greater(demands[:k], twin_bound)
            if crossed.any():
                # the first sweep of the block whose demand passes the bound
                j = int(crossed.any(axis=1).argmax())
                fork = (twin, it + j, block[j].copy())
                watching = False
        # sweep it + j passes when max |p' - p| < tol * max(max(p), floor);
        # the initial values also keep n = 0 valid
        diff = block[1 : k + 1] - block[:k]
        delta = np.maximum.reduce(np.abs(diff, out=diff), axis=1, initial=0.0)
        scale = np.maximum.reduce(block[:k], axis=1, initial=_SCALE_FLOOR)
        passed = delta < tol * scale
        first = int(passed.argmax())
        if passed[first]:
            converged, last = True, first + 1
            iterations = it + first
            break
        block[0] = block[k]
        iterations = it + k - 1
        it += k
        size = _next_block(delta.tolist(), tol * scale.item(k - 1))
    p = block[last].copy()
    if fork is not None and fork[1] is not None and fork[1] > iterations:
        # the demand crossed the bound in a sweep past the returned one
        fork = (twin, None, None)

    r = (off @ p + noise) / diag
    sir = p / r
    supported = sir >= targets * (1.0 - tol_support)
    return PowerState(
        p=p,
        sir=sir,
        supported=supported,
        iterations=iterations,
        converged=converged,
        fork=fork,
    )


def feasibility_check(system):
    """Feasibility verdict of a ``CochannelSystem``: the Perron root of its
    normalized coupling by dense eigenvalues, computed once per system and
    kept on it (``CochannelSystem.feasibility``). Raises NumericError when
    the eigenvalue routine cannot settle it."""
    return system.feasibility


def fixed_point_oracle(system):
    """Exact uncapped target-tracking fixed point of a ``CochannelSystem``
    by direct linear solve of (I - F) p = u with u_i = target_i * noise_i /
    a[i, i].

    This is the minimal power vector meeting every target, and the fixed
    point of ``tpc`` (and ``ptpc``) when no budget or cap binds: those maps
    are standard interference functions (Yates 1995). ``tpc_gr``, ``opc``
    and ``dtpc`` are not, and this oracle says nothing of their fixed
    points (see ``iterate_power_control``). Raises OracleError for
    infeasible targets or a singular system. The verdict is the one
    ``feasibility_check`` keeps on the system, so no eigenvalues are
    recomputed.
    """
    check = feasibility_check(system)
    if not check.feasible:
        raise OracleError(
            f"targets infeasible: spectral radius {check.spectral_radius:.6g} >= 1"
        )
    u = system.targets * system.noise / system.diag
    try:
        p = np.linalg.solve(np.eye(len(u)) - system.coupling, u)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular co-channel system: {exc}") from exc
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise OracleError("oracle produced a non-positive power vector")
    return p


@dataclass(frozen=True)
class Instance:
    """A random square co-channel system for oracle cross-checks: its
    arrays, and the ``CochannelSystem`` built from them on first use, with
    a 1e6 W budget for every user, so that only infeasible targets
    saturate."""

    a: np.ndarray
    noise: np.ndarray
    targets: np.ndarray
    eta: np.ndarray

    @cached_property
    def system(self):
        return CochannelSystem(self.a, self.noise, self.targets, 1e6)


def sample_instance(rng, n_users=None):
    """Draw a small random co-channel instance. Cross gains get a per-instance
    log-uniform scale so both feasible and infeasible systems occur."""
    n = int(n_users) if n_users is not None else int(rng.integers(2, 9))
    scale = 10.0 ** rng.uniform(np.log10(5e-3), np.log10(0.6))
    a = scale * rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(a, rng.uniform(0.5, 1.5, size=n))
    return Instance(
        a=a,
        noise=rng.uniform(0.01, 0.1, size=n),
        targets=rng.uniform(0.5, 2.0, size=n),
        eta=10.0 ** rng.uniform(-3.0, -1.0, size=n),
    )


def sample_feasible_instance(rng, n_users=None, rho_max=0.9):
    """Rejection-sample an instance whose coupling spectral radius stays
    below ``rho_max``."""
    while True:
        inst = sample_instance(rng, n_users)
        if feasibility_check(inst.system).spectral_radius < rho_max:
            return inst
