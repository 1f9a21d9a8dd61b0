"""Simulation configuration: one frozen dataclass that is the config schema,
and text-format parsing onto it.

Each ``SimConfig`` field declares its dotted config key, its default and its
value check; the type of the default says how a value is parsed from text.
Building a ``SimConfig`` validates it, so every instance is valid.

The config file format is flat key/value text. Keys may be written with their
full dotted name anywhere, or split into an INI-style ``[section]`` header
plus the bare key; ``#`` and ``;`` start comments. Unknown keys and
out-of-range values are hard errors carrying the offending key and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .association import SCHEMES
from .errors import ConfigError
from .power_control import (
    ALGORITHMS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    DEFAULT_TOL_SUPPORT,
)
from .scheduling import SCHEDULERS

GEOMETRIES = ("grid", "disc")

# The shipped default target SIR was calibrated once with
# scripts/calibrate_target_sir.py: the largest value (0.25 dB grid) that
# keeps high-priority outage exactly zero under the prioritized algorithms
# across the default 100-seed sweep, with ~10% feasibility margin on the
# worst high-priority subsystem. It is a simulator default, not a measured
# truth.
DEFAULT_TARGET_SIR_DB = -8.75

# The largest mean numpy's Generator.poisson accepts (int64 max less ten
# standard deviations); the disc draws its cell loads with it.
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

# Memory budget of one snapshot's largest array, a float64 matrix whose sides
# are counted in users or cells: users x users for the grid's co-channel
# system, users x cells for the disc's gains. It bounds both counts.
SNAPSHOT_MATRIX_BYTES = 2**28
MAX_USERS = math.isqrt(SNAPSHOT_MATRIX_BYTES // 8)


def _typed(value, default, key):
    """Reject a value whose type is not its default's (for ``mc.sweep``, a
    tuple of ints). A bool is not an int here, and an int is not a float."""
    kind = type(default)
    item_kind = int if kind is tuple else kind
    items = value if kind is tuple else (value,)
    if not isinstance(value, kind) or any(
        isinstance(v, bool) or not isinstance(v, item_kind) for v in items
    ):
        name = "a tuple of int" if kind is tuple else kind.__name__
        raise ConfigError(f"value must be {name}, got {value!r}", key=key)


def _positive(value, key):
    if not value > 0:
        raise ConfigError(f"value must be positive, got {value!r}", key=key)


def _non_negative(value, key):
    if value < 0:
        raise ConfigError(f"value must be non-negative, got {value!r}", key=key)


def _finite(value, key):
    if not (value == value and abs(value) != float("inf")):
        raise ConfigError(f"value must be finite, got {value!r}", key=key)


def _poisson_mean(value, key):
    _non_negative(value, key)
    if value > POISSON_LAM_MAX:
        raise ConfigError(
            f"value must be at most {POISSON_LAM_MAX!r}, the largest Poisson "
            f"mean numpy draws, got {value!r}",
            key=key,
        )


def _budget(value, key):
    # soft removal (tpc_gr) answers over-budget demands with p_max**2 / q
    _positive(value, key)
    if value * value == float("inf"):
        raise ConfigError(
            f"value squared must be finite, got {value!r}", key=key
        )


def _decibel(value, key):
    try:
        linear = 10.0 ** (value / 10.0)
    except OverflowError:
        linear = float("inf")
    if not 0.0 < linear < float("inf"):
        raise ConfigError(
            f"10 ** (value / 10) must be positive and finite, got {value!r}",
            key=key,
        )


def _bias(value, key):
    _non_negative(value, key)
    _decibel(value, key)


def _u64(value, key):
    if not 0 <= value < 2**64:
        raise ConfigError(f"value must fit in u64, got {value!r}", key=key)


def _exponent(value, key):
    if not value > 2:
        raise ConfigError(
            f"path-loss exponent must exceed 2, got {value!r}", key=key
        )


def _at_least_one(value, key):
    if value < 1:
        raise ConfigError(f"value must be at least 1, got {value!r}", key=key)


def _small_count(value, key):
    if not 1 <= value <= 64:
        raise ConfigError(f"value must be in [1, 64], got {value!r}", key=key)


def _sweep_ok(value, key):
    if len(value) == 0:
        raise ConfigError("sweep list must be non-empty", key=key)
    if any(v < 0 for v in value):
        raise ConfigError("sweep entries must be non-negative", key=key)


def _fits_budget(size, what, key):
    if size > MAX_USERS:
        raise ConfigError(
            f"{size!r} {what} per snapshot exceed {MAX_USERS}, the most "
            f"that fit a {SNAPSHOT_MATRIX_BYTES}-byte matrix",
            key=key,
        )


def _enum(options):
    def check(value, key):
        if value not in options:
            raise ConfigError(
                f"value must be one of {options}, got {value!r}", key=key
            )

    return check


def _key(key, default, check):
    """A SimConfig field: its dotted config key, default and value check."""
    return field(default=default, metadata={"key": key, "check": check})


@dataclass(frozen=True)
class SimConfig:
    """Every tunable of the simulator, validated when built. Defaults
    describe the uplink grid outage experiment; :func:`fig3_defaults` adapts
    them to the downlink disc experiment."""

    grid_rows: int = _key("grid.rows", 3, _at_least_one)
    macro_side_m: float = _key("grid.macro_side_m", 1000.0, _positive)
    small_side_m: float = _key("small.side_m", 200.0, _positive)
    # inert: the grid sweeps mc.sweep instead
    small_per_macro: int = _key("small.per_macro", 3, _small_count)
    disc_radius_m: float = _key("disc.radius_m", 500.0, _positive)
    lambda_lo: float = _key("disc.lambda_lo", 1.0, _poisson_mean)
    lambda_hi: float = _key("disc.lambda_hi", 10.0, _poisson_mean)
    power_macro_w: float = _key("power.macro_w", 10.0, _positive)
    power_small_w: float = _key("power.small_w", 1.0, _positive)
    pmax_w: float = _key("power.pmax_w", 1.0, _budget)
    noise_w: float = _key("noise_w", 1e-13, _positive)
    target_sir_db: float = _key("target_sir_db", DEFAULT_TARGET_SIR_DB, _decibel)
    opc_eta: float = _key("opc_eta", 1e-6, _positive)
    ith_w: float = _key("ith_w", 1e-12, _positive)
    bias_db: float = _key("bias_db", 6.0, _bias)
    # inert: kept so existing configs stay valid
    epsilon: float = _key("epsilon", 0.1, _non_negative)
    scheduler: str = _key("scheduler", "round_robin", _enum(SCHEDULERS))
    assoc_uplink: str = _key("assoc.uplink", "home", _enum(SCHEMES))
    assoc_downlink: str = _key("assoc.downlink", "rsrp", _enum(SCHEMES))
    pc_algorithm: str = _key("pc.algorithm", "tpc", _enum(ALGORITHMS))
    hpue_per_macro: int = _key("cells.hpue_per_macro", 5, _at_least_one)
    lpue_per_small: int = _key("cells.lpue_per_small", 4, _at_least_one)
    path_exponent: float = _key("pathloss.exponent", 4.0, _exponent)
    path_d_min: float = _key("pathloss.d_min", 1.0, _positive)
    path_k: float = _key("pathloss.k", 1.0, _positive)
    snapshots: int = _key("mc.snapshots", 100, _at_least_one)
    base_seed: int = _key("mc.base_seed", 1, _u64)
    sweep: tuple[int, ...] = _key("mc.sweep", (3, 4, 5, 6), _sweep_ok)
    max_iters: int = _key("pc.max_iters", DEFAULT_MAX_ITERS, _at_least_one)
    tol: float = _key("pc.tol", DEFAULT_TOL, _positive)
    tol_support: float = _key("pc.tol_support", DEFAULT_TOL_SUPPORT, _non_negative)
    geometry: str = _key("geometry", "grid", _enum(GEOMETRIES))

    def __post_init__(self):
        self.validate()

    @property
    def target_sir_linear(self):
        return 10.0 ** (self.target_sir_db / 10.0)

    def validate(self):
        """Check every key (its type first; real-valued ones must be finite)
        and the rules that join keys; returns ``self``."""
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            _typed(value, f.default, key)
            if isinstance(f.default, float):
                _finite(value, key)
            f.metadata["check"](value, key)
        if self.lambda_hi < self.lambda_lo:
            raise ConfigError(
                "disc.lambda_hi must be >= disc.lambda_lo",
                key="disc.lambda_hi",
            )
        # at most 64, and at most the (macro // small)**2 axis-aligned
        # squares that fit in a macro cell
        limit = int(min(self.macro_side_m // self.small_side_m, 8.0)) ** 2
        grid_ok = all(1 <= v <= limit for v in self.sweep)
        if self.geometry == "grid" and not grid_ok:
            raise ConfigError(
                "grid sweep entries (small cells per macro) must be in "
                f"[1, {limit}] for grid.macro_side_m = {self.macro_side_m!r} "
                f"and small.side_m = {self.small_side_m!r}",
                key="mc.sweep",
            )
        # users (the disc's expected count) and disc cells per snapshot
        top = max(self.sweep)
        if self.geometry == "grid":
            per_macro = self.hpue_per_macro + top * self.lpue_per_small
            _fits_budget(self.grid_rows**2 * per_macro, "users", "grid.rows")
        else:
            _fits_budget(top + 1, "cells", "mc.sweep")
            users = self.lambda_hi * top + 1
            _fits_budget(users, "expected users", "disc.lambda_hi")
        return self


_FIELDS = {f.metadata["key"]: f for f in fields(SimConfig)}
KNOWN_KEYS = tuple(_FIELDS)


def fig2_defaults():
    """Defaults of the grid outage experiment (the package defaults)."""
    return SimConfig()


def fig3_defaults():
    """Defaults of the disc spectral-efficiency experiment."""
    return SimConfig(
        geometry="disc",
        sweep=(0, 5, 10, 20, 40),
        snapshots=200,
    )


def check_geometry(geometry, base):
    """A config built on ``base`` (a preset's defaults) runs its geometry:
    the base's sweep and snapshot count are chosen for it."""
    if geometry != base.geometry:
        raise ConfigError(
            f"this experiment runs the {base.geometry} geometry, "
            f"got {geometry!r}",
            key="geometry",
        )


def _iter_entries(text, overrides):
    """Yield (key, raw_value, line) from config text, resolving INI sections
    into dotted key prefixes, then from ``key=value`` override strings."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section header", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected 'key = value', got {line!r}", line=lineno
            )
        key, value = line.split("=", 1)
        key = key.strip()
        if section and "." not in key:
            key = f"{section}.{key}"
        yield key, value.strip(), lineno
    for idx, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(
                f"override must look like key=value, got {item!r}",
                line=f"--set #{idx}",
            )
        key, value = item.split("=", 1)
        yield key.strip(), value.strip(), f"--set #{idx}"


def _parse_entry(key, raw_value, line):
    """(field name, value) of one entry, parsed as its default's type."""
    if key not in _FIELDS:
        raise ConfigError("unknown config key", key=key, line=line)
    f = _FIELDS[key]
    try:
        if isinstance(f.default, tuple):
            value = tuple(int(t) for t in raw_value.split(",") if t.strip())
        else:
            value = type(f.default)(raw_value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"cannot parse value {raw_value!r}: {exc}", key=key, line=line
        ) from None
    return f.name, value


def parse_config_text(text, overrides=(), base=None):
    """Parse config text into a SimConfig, starting from ``base`` (a preset's
    defaults, whose geometry the text may not change) or the package
    defaults, and applying ``key=value`` override strings last."""
    values = dict(_parse_entry(*entry) for entry in _iter_entries(text, overrides))
    if base is None:
        base = SimConfig()
    else:
        check_geometry(values.get("geometry", base.geometry), base)
    return replace(base, **values)


def parse_config(path, overrides=(), base=None):
    """Parse a config file; missing files are config errors, not crashes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, overrides=overrides, base=base)


def config_json_dict(cfg):
    """JSON-ready dotted-key dict of the config; parsing it back as
    ``key = value`` text reproduces ``cfg``."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.metadata["key"]] = list(value) if isinstance(value, tuple) else value
    return out
