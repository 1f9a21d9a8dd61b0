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
past which soft removal can change an answer. A base run on a single system
from zero keeps that sweep on the system, and a later run of its twin with
the same options there resumes from it.

Every map runs in one kernel, ``iterate_power_control``, on a
``CochannelSystem`` or on a stack of them, with its result in the system's
own shape.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import NumericError, OracleError

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
    """Result of a power-control run (``iterate_power_control``), in the
    shape of its system: for a single system (n,) arrays, an int
    ``iterations`` and a bool ``converged``; for a stack one entry per row,
    (B, n) and (B,) arrays."""

    p: np.ndarray
    sir: np.ndarray
    supported: np.ndarray
    iterations: int
    converged: bool


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
    """Equal-share static caps for every low-priority user, from the
    snapshot's uplink gains (``build_gain_matrix``)."""
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
    """A copy of the square matrix ``a`` (or of each matrix of a stack along
    leading axes) whose rows start on 64-byte boundaries: the ``[..., :n]``
    view of a 64-byte-aligned buffer with rows padded to a multiple of 8
    entries. A matrix-vector product through it gives the same bits as
    through ``a``, in fewer cycles."""
    n = a.shape[-1]
    ld = -(-n // 8) * 8
    rows = math.prod(a.shape[:-1])
    buf = np.empty(rows * ld + 8)
    start = -buf.ctypes.data % 64 // 8
    out = buf[start : start + rows * ld].reshape(*a.shape[:-1], ld)[..., :n]
    out[...] = a
    return out


@dataclass(frozen=True)
class FeasibilityResult:
    """The feasibility verdict of a system; for a stack, one entry per row
    in a bool and a float array."""

    feasible: bool
    spectral_radius: float


def _per_user(value, shape, what):
    """A float copy of ``value`` (a scalar, one value per user, or one per
    user and row of a stack) with the system's ``shape``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), shape[-1:], shape):
        raise ValueError(f"{what} must be a scalar or hold one value per user")
    return np.full(shape, arr)


@dataclass(frozen=True, eq=False)
class CochannelSystem:
    """One power-control problem, or a stack of same-size ones: a square
    co-channel system (a, noise, targets) with its users' budgets,
    opportunistic targets, priorities and caps, validated once when built
    and shared by the kernel and both oracles.

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
    ``feasibility`` are computed on first use and kept, and so are the fork
    records of a single system's ``tpc``/``ptpc`` runs from zero, which
    their soft-removal twins resume from (``iterate_power_control``).

    A stack of B systems of n users each has a leading batch axis on every
    per-user array: ``a`` is (B, n, n), ``noise`` and ``targets`` (B, n),
    and the optional arrays (B, n) too (``p_max`` and ``eta`` may also be
    a scalar or one value per user for every row). The stack is validated
    at once, its verdict holds one entry per row (one ``eigvals`` call for
    the stack), ``iterate_power_control`` runs the kernel on all rows at
    once with its result in the stack's shape ((B, n) and (B,) arrays), as
    a single system's is in its own, and
    ``system[rows]`` is the stack of the rows an index array selects,
    sharing this one's validation, coupling and verdict; a stack holds no
    fork records.
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
        shape = targets.shape
        if targets.ndim not in (1, 2) or a.shape != shape + shape[-1:]:
            raise ValueError("gain matrix must be square and match targets")
        # min/max reductions: a NaN fails the first test, an inf the second
        if a.size and not (a.min() >= 0 and np.isfinite(a.max())):
            raise ValueError("gain matrix entries must be finite and non-negative")
        diag = np.diagonal(a, axis1=-2, axis2=-1).copy()
        if not (diag > 0).all():
            raise ValueError("serving-link gains (diagonal) must be positive")
        if noise.shape != shape or not ((noise > 0).all() and np.isfinite(noise).all()):
            raise ValueError("noise must be positive and finite, one per user")
        if not ((targets > 0).all() and np.isfinite(targets).all()):
            raise ValueError("target SIRs must be positive and finite")
        p_max = _per_user(self.p_max, shape, "power budgets")
        top = float(p_max.max(initial=0.0))
        if not (p_max.min(initial=np.inf) > 0 and top * top < np.inf):
            raise ValueError(
                "power budgets must be positive with a finite square "
                "(soft removal answers with p_max**2 / q)"
            )
        kept = {"noise": noise, "targets": targets, "p_max": p_max}
        if self.eta is not None:
            kept["eta"] = eta = _per_user(self.eta, shape, "eta")
            if not (eta > 0).all():
                raise ValueError("eta must be positive")
        if self.lpue_mask is not None:
            kept["lpue_mask"] = mask = np.array(self.lpue_mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError("lpue_mask must have one flag per user")
        if self.cap is not None:
            kept["cap"] = cap = np.array(self.cap, dtype=float)
            if cap.shape != shape or not (cap >= 0).all():
                raise ValueError("caps must hold one non-negative cap per user")
        kept["diag"] = diag
        kept["off"] = off = _aligned(a)
        users = np.arange(shape[-1])
        off[..., users, users] = 0.0
        for name, arr in kept.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __getitem__(self, rows):
        """The stack of the rows of this stack that the index array ``rows``
        selects, with their kept coupling and verdict; nothing is
        validated or computed again."""
        sub = object.__new__(CochannelSystem)
        kept = ("noise", "targets", "p_max", "eta", "lpue_mask", "cap", "diag", "off")
        for name in kept:
            arr = getattr(self, name)
            if arr is not None:
                arr = arr[rows]
                arr.flags.writeable = False
            object.__setattr__(sub, name, arr)
        if "coupling" in self.__dict__:
            sub.__dict__["coupling"] = self.coupling[rows]
        if "feasibility" in self.__dict__:
            check = self.feasibility
            sub.__dict__["feasibility"] = FeasibilityResult(
                check.feasible[rows], check.spectral_radius[rows]
            )
        return sub

    @cached_property
    def coupling(self):
        """Normalized interference coupling F with F[i, j] = target_i *
        a[i, j] / a[i, i] off the diagonal and 0 on it; the targets are
        jointly achievable iff the Perron root of F is below one."""
        f = self.targets[..., None] * self.off / self.diag[..., None]
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
        rho = np.abs(eigenvalues).max(axis=-1)
        if rho.ndim == 0:
            rho = float(rho)
        return FeasibilityResult(feasible=rho < 1.0, spectral_radius=rho)

    @cached_property
    def _forks(self):
        """The fork records of this system's base runs, by twin and
        options (see ``iterate_power_control``)."""
        return {}


def cochannel_system(snapshot, gains, serving, cfg, caps=None):
    """The square per-user system of (gains, serving cells), with the
    snapshot's priorities, the configured common target SIR, budget and
    opportunistic target (``cfg.target_sir_linear``, ``cfg.pmax_w`` and
    ``cfg.opc_eta``), and the static caps of ``caps`` (a
    ``PrioritizedCapSet``) if given.

    On the uplink gains of ``build_gain_matrix``: ``a[i, j]`` is the gain
    from user j to user i's serving receiver ``serving[i]``, and
    ``noise[i]`` is that receiver's noise power.
    """
    return CochannelSystem(
        gains.gains[serving, :], gains.noise[serving],
        np.full(snapshot.n_users, cfg.target_sir_linear), cfg.pmax_w,
        eta=cfg.opc_eta, lpue_mask=snapshot.lpue_mask,
        cap=None if caps is None else caps.cap,
    )


def _next_block(steps, scale, tol):
    """Sweeps in the block after one whose sweeps moved the rows of a stack
    by ``steps`` and all failed the test against ``tol`` times ``scale``
    (both (sweeps, rows) arrays). The block is sized for the row whose last
    step lies farthest above its threshold (the only row of a single
    system): as many sweeps as its step needs to fall below the threshold
    if it keeps shrinking at its mean rate over the block, within
    [_MIN_BLOCK, _BLOCK]. A step that did not shrink gets a full block.
    Python floats keep it cheap beside the sweeps of a small system."""
    row = 0
    if steps.shape[1] > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            row = int(np.argmax(steps[-1] / scale[-1]))
    steps, threshold = steps[:, row].tolist(), tol * scale.item(-1, row)
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
):
    """The power-control kernel: synchronous fixed-point iteration of the
    chosen update map on a ``CochannelSystem``, or on every row of a stack
    at once, each row bit for bit as if it ran alone. ``p0`` is the start,
    shaped like ``system.targets`` (default: zero).

    The result is a ``PowerState`` in the system's own shape, as
    ``CochannelSystem.feasibility`` is: a single system gets (n,) arrays
    ``p``, ``sir`` and ``supported``, a Python int ``iterations`` and a
    Python bool ``converged``; a stack of B systems gets (B, n) arrays and
    (B,) ``iterations`` and ``converged``.

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
    reported, nor is a fork kept from them. On the 25-seed fig2 input the
    runs compute 36,658 sweeps for the 36,558 they need (46,183 logical
    ones, counting the sweeps a twin shares) in 1,459 blocks, where fixed
    blocks of 16 computed 38,864 in 2,629. The system holds the coupling
    matrix with 64-byte-aligned rows, so several runs on one system (as
    fig2's four algorithms on one snapshot) validate and copy it once.

    A stack's sweep is one stacked product ``off (B, n, n) @ p (B, n, 1)``,
    which NumPy runs as one gemv per row and so with the bits of the row's
    2-D product, plus the elementwise maps on (B, n, 1) column buffers; a
    single system keeps its (n,) arrays and the 2-D product, whose calls
    cost less. Every row starts at the same sweep, and one sweep counter
    serves the stack; each row keeps its own convergence test, iteration
    count and result. A block ends for all rows at once and never runs
    past ``max_iters``, and the rows that finished in a block leave the
    stack after it.

    Sweep sharing between ``tpc``/``ptpc`` and their soft-removal twins
    (``SOFT_REMOVAL_TWINS``), on runs of a single system from zero
    (``p0=None``) only. Such a base run watches for the first sweep where a
    demand exceeds its twin's removal bound, at or below which both runs
    answer alike. It keeps each sweep's demand in a row of a block buffer
    and tests the whole block against the bound at once, so it finds the
    sweep a test after every sweep would find, at one test per block. It
    keeps ``(sweep, iterate before it, result)`` on the system, or ``(None,
    None, result)`` when no sweep passed the bound, keyed by the twin and
    its ``hpue_algorithm``, ``max_iters``, ``tol`` and ``tol_support``. A
    later twin run from zero with the same options takes a copy of the base
    result when no sweep passed the bound, and otherwise runs from the
    recorded iterate with that sweep as its first. Either way its powers,
    iteration count and convergence flag are those of a run from zero, bit
    for bit. Every other run (other options, a ``p0``, a stack) neither
    reads nor keeps a record.
    """
    single = system.targets.ndim == 1

    def stacked(arr):
        # a per-user array in the operand shape of the sweep: a stack's
        # arrays as columns, (B, n, 1), for the stacked product; a single
        # system's as they are, for its 2-D product
        return arr if single or arr is None else arr[:, :, None]

    targets = stacked(system.targets)
    stack, n = (1, *targets.shape) if single else targets.shape[:2]
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown power-control algorithm {algorithm!r}")
    if hpue_algorithm not in (None, "tpc"):
        raise ValueError(
            f"unknown base power-control algorithm {hpue_algorithm!r} for the "
            "high-priority users (None or 'tpc')"
        )
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
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
    # the stack's next sweep
    sweep = 1
    # a single system's runs from zero share sweeps through its fork
    # records, keyed by the twin and the options its sweeps depend on
    twin = record = None
    if single and p0 is None:
        options = (hpue_algorithm, max_iters, tol, tol_support)
        twin = SOFT_REMOVAL_TWINS.get(algorithm)
        record = system._forks.get((algorithm, *options))
    if record is not None:
        sweep, p0, base = record
        if sweep is None:
            # the base run never passed the bound: the twin's run is the same
            return replace(base, p=base.p.copy(), sir=base.sir.copy(),
                           supported=base.supported.copy())
    if p0 is not None:
        # iterates then stay non-negative, so max(p) is their inf-norm
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != system.targets.shape or not (
            np.isfinite(p0).all() and (p0 >= 0).all()
        ):
            raise ValueError("p0 must hold one finite, non-negative power per user")
    # the users on the base map: the low-priority ones when the others track
    # with tpc, else every user; a plain bool when every user is
    users = True
    if system.lpue_mask is not None and (prioritized or hpue_algorithm == "tpc"):
        users = stacked(system.lpue_mask)
    opc = users if base_alg == "opc" else False
    dtpc = users if base_alg == "dtpc" else False

    # per-user clip of the demand: the budget and the static caps
    p_max = stacked(system.p_max)
    eta = stacked(system.eta) if opportunistic else None
    cap = stacked(system.cap) if prioritized else np.inf
    clip = np.minimum(p_max, cap)
    # finite: the system checks that every budget has a finite square
    p_max_sq = p_max * p_max
    soft_removal = base_alg == "tpc_gr"
    soft_above = twin_bound = None
    if soft_removal:
        # tpc_gr users answer demands above their budget with p_max**2 / q,
        # which lies below it, so only their static cap clips
        clip = np.where(users, cap, clip)
        soft_above = np.where(users, p_max, np.inf)
    if twin is not None:
        # The twin runs soft removal on the same users. Both runs answer a
        # demand q at or below this bound alike: up to the budget nothing is
        # removed, and beyond it a cap that binds (cap <= p_max**2 / q)
        # clips both answers to the cap. nextafter keeps the bound at or
        # below the exact p_max**2 / cap. The run stops watching once a
        # sweep passes it.
        with np.errstate(divide="ignore", invalid="ignore"):
            removal = np.nextafter(p_max_sq / cap, 0.0)
        twin_bound = np.where(users, np.maximum(p_max, removal), np.inf)
    fork = (None, None)

    noise, diag, off = stacked(system.noise), stacked(system.diag), system.off
    # a row that never sweeps returns its start
    p = np.zeros((stack, n)) if p0 is None else np.array(p0, ndmin=2)
    iterations = np.zeros(stack, dtype=np.intp)
    converged = np.zeros(stack, dtype=bool)
    # the rows that run the stack's next sweep, as indices into the stack
    live = np.arange(stack) if max_iters >= sweep else np.arange(0)
    per_row = [off, noise, diag, targets, clip, p_max_sq, eta, opc, dtpc,
               soft_above, p]
    # Buffers for the first stack, in the sweep's operand shape. Row 0 of
    # a block holds the iterate it starts from and row j + 1 its sweep j;
    # the tests read them as (sweeps, rows, users). A watched run keeps each
    # sweep's demand, row j for sweep j.
    m = live.size
    shape = (n,) if single else (m, n, 1)
    columns = np.empty((_BLOCK + 1, *shape))
    demands = np.empty((_BLOCK if twin is not None else 1, *shape))
    r, work = np.empty(shape), np.empty(shape)
    over_budget = np.empty(shape, dtype=bool)
    size = min(_FIRST_BLOCK, _BLOCK)
    while live.size:
        if live.size < m:
            # a smaller stack keeps its rows' arrays and uses the buffers'
            # leading rows
            per_row = [
                a[keep] if isinstance(a, np.ndarray) and a.ndim else a
                for a in per_row
            ]
            m = live.size
            columns, demands = columns[:, :m], demands[:, :m]
            r, work, over_budget = r[:m], work[:m], over_budget[:m]
        (s_off, s_noise, s_diag, s_targets, s_clip, s_p_max_sq, s_eta, s_opc,
         s_dtpc, s_soft_above, s_start) = per_row
        block = columns.reshape(_BLOCK + 1, m, n)
        block[0] = s_start
        sweep_rows = list(columns)
        qs = list(demands) if twin is not None else [demands[0]] * _BLOCK

        while True:
            # the block runs sweeps sweep .. sweep + k - 1
            k = min(size, max_iters + 1 - sweep)
            for j in range(k):
                q = qs[j]
                np.matmul(s_off, sweep_rows[j], out=r)
                r += s_noise
                r /= s_diag
                # demand q: target * R (tpc family), eta / R (opc), the larger (dtpc)
                np.multiply(s_targets, r, out=q)
                if opportunistic:
                    np.divide(s_eta, r, out=work)
                    np.maximum(q, work, out=q, where=s_dtpc)
                    np.copyto(q, work, where=s_opc)
                if soft_removal:
                    np.greater(q, s_soft_above, out=over_budget)
                    np.divide(s_p_max_sq, q, out=q, where=over_budget)
                np.minimum(q, s_clip, out=sweep_rows[j + 1])
            if twin_bound is not None:
                crossed = np.greater(demands[:k], twin_bound)
                if crossed.any():
                    # the block's first sweep whose demand passes the bound,
                    # and the iterate before it
                    j = int(crossed.any(axis=1).argmax())
                    fork = (sweep + j, block[j, 0].copy())
                    twin_bound = None
            # sweep + j passes when max |p' - p| < tol * max(max(p), floor);
            # the initial values also keep n = 0 valid
            diff = block[1 : k + 1] - block[:k]
            delta = np.maximum.reduce(np.abs(diff, out=diff), axis=2, initial=0.0)
            scale = np.maximum.reduce(block[:k], axis=2, initial=_SCALE_FLOOR)
            passed = delta < tol * scale
            sweep += k
            # argmax finds a passing sweep at less cost than any()
            if sweep > max_iters or passed.ravel()[passed.argmax()]:
                break
            block[0] = block[k]
            size = _next_block(delta, scale, tol)

        # Every row takes its result from this block: its first passing
        # sweep, else the last. A row that goes on overwrites it later.
        first, index = passed.argmax(axis=0), np.arange(m)
        done = passed[first, index]
        last = np.where(done, first + 1, k)
        p[live] = block[last, index]
        iterations[live] = sweep - 1 - k + last
        converged[live] = done
        # the rows that finished leave the stack
        keep = ~done
        # and the cut at max_iters ends every row
        live = live[keep] if sweep <= max_iters else live[:0]
        if live.size:
            per_row[-1] = block[k]
            size = _next_block(delta[:, keep], scale[:, keep], tol)

    p_users = stacked(p[0] if single else p)
    r = (off @ p_users + noise) / diag
    sir = (p_users / r).reshape(system.targets.shape)
    supported = sir >= system.targets * (1.0 - tol_support)
    if single:
        p, iterations, converged = p_users, int(iterations[0]), bool(converged[0])
    state = PowerState(p, sir, supported, iterations, converged)
    if twin is not None:
        if fork[0] is not None and fork[0] > iterations:
            # the demand crossed the bound in a sweep past the returned one
            fork = (None, None)
        system._forks[(twin, *options)] = (*fork, state)
    return state


def feasibility_check(system):
    """Feasibility verdict of a ``CochannelSystem``: the Perron root of its
    normalized coupling by dense eigenvalues, computed once per system (one
    ``eigvals`` call for a whole stack) and kept on it
    (``CochannelSystem.feasibility``). Raises NumericError when the
    eigenvalue routine cannot settle it."""
    return system.feasibility


def fixed_point_oracle(system):
    """Exact uncapped target-tracking fixed point of a ``CochannelSystem``
    by direct linear solve of (I - F) p = u with u_i = target_i * noise_i /
    a[i, i]; for a stack, one ``solve`` call gives every row's.

    This is the minimal power vector meeting every target, and the fixed
    point of ``tpc`` (and ``ptpc``) when no budget or cap binds: those maps
    are standard interference functions (Yates 1995). ``tpc_gr``, ``opc``
    and ``dtpc`` are not, and this oracle says nothing of their fixed
    points (see ``iterate_power_control``). Raises OracleError for
    infeasible targets (in any row of a stack) or a singular system. The
    verdict is the one ``feasibility_check`` keeps on the system, so no
    eigenvalues are recomputed.
    """
    check = feasibility_check(system)
    if not np.all(check.feasible):
        raise OracleError(
            "targets infeasible: spectral radius "
            f"{np.max(check.spectral_radius):.6g} >= 1"
        )
    u = system.targets * system.noise / system.diag
    n = u.shape[-1]
    try:
        p = np.linalg.solve(np.eye(n) - system.coupling, u[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular co-channel system: {exc}") from exc
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise OracleError("oracle produced a non-positive power vector")
    return p


@dataclass(frozen=True)
class Instance:
    """The arrays of a random square co-channel system for oracle
    cross-checks; ``run_oracle_check`` builds their ``CochannelSystem`` with
    a 1e6 W budget for every user, so that only infeasible targets
    saturate."""

    a: np.ndarray
    noise: np.ndarray
    targets: np.ndarray
    eta: np.ndarray


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

