"""Simulation configuration: dataclass defaults, text-format parsing, and
deterministic rendering for provenance.

The config file format is flat key/value text. Keys may be written with their
full dotted name anywhere, or split into an INI-style ``[section]`` header
plus the bare key; ``#`` and ``;`` start comments. Unknown keys and
out-of-range values are hard errors carrying the offending key and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .association import SCHEMES
from .errors import ConfigError
from .power_control import ALGORITHMS
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


@dataclass
class SimConfig:
    """Every tunable of the simulator. Defaults describe the uplink grid
    outage experiment; :func:`fig3_defaults` adapts them to the downlink
    disc experiment."""

    grid_rows: int = 3
    macro_side_m: float = 1000.0
    small_side_m: float = 200.0
    small_per_macro: int = 3  # inert: the grid sweeps mc.sweep instead
    disc_radius_m: float = 500.0
    lambda_lo: float = 1.0
    lambda_hi: float = 10.0
    power_macro_w: float = 10.0
    power_small_w: float = 1.0
    pmax_w: float = 1.0
    noise_w: float = 1e-13
    target_sir_db: float = DEFAULT_TARGET_SIR_DB
    opc_eta: float = 1e-6
    ith_w: float = 1e-12
    bias_db: float = 6.0
    epsilon: float = 0.1  # inert: kept so existing configs stay valid
    scheduler: str = "round_robin"
    assoc_uplink: str = "home"
    assoc_downlink: str = "rsrp"
    pc_algorithm: str = "tpc"
    hpue_per_macro: int = 5
    lpue_per_small: int = 4
    path_exponent: float = 4.0
    path_d_min: float = 1.0
    path_k: float = 1.0
    snapshots: int = 100
    base_seed: int = 1
    sweep: tuple[int, ...] = (3, 4, 5, 6)
    max_iters: int = 2000
    tol: float = 1e-9
    tol_support: float = 1e-6
    geometry: str = "grid"

    @property
    def target_sir_linear(self):
        return 10.0 ** (self.target_sir_db / 10.0)

    def validate(self):
        for key, field_name, parser, check in _KEY_TABLE:
            value = getattr(self, field_name)
            if parser is _parse_float:
                _finite(value, key)
            check(value, key)
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
        return self

    def to_key_values(self):
        """Dotted-key view of the fully resolved config (native values)."""
        return {
            key: getattr(self, field_name)
            for key, field_name, _, _ in _KEY_TABLE
        }


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


def _parse_int(text):
    return int(text.strip())


def _parse_float(text):
    return float(text.strip())


def _parse_str(text):
    return text.strip()


def _parse_sweep(text):
    items = [t for t in (s.strip() for s in text.split(",")) if t]
    if not items:
        raise ValueError("empty sweep list")
    return tuple(int(t) for t in items)


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


def _enum(options):
    def check(value, key):
        if value not in options:
            raise ConfigError(
                f"value must be one of {options}, got {value!r}", key=key
            )

    return check


# (config key, SimConfig field, raw-text parser, validator), in the order
# render_config and summary.json list the keys.
_KEY_TABLE = [
    ("grid.rows", "grid_rows", _parse_int, _at_least_one),
    ("grid.macro_side_m", "macro_side_m", _parse_float, _positive),
    ("small.side_m", "small_side_m", _parse_float, _positive),
    ("small.per_macro", "small_per_macro", _parse_int, _small_count),
    ("disc.radius_m", "disc_radius_m", _parse_float, _positive),
    ("disc.lambda_lo", "lambda_lo", _parse_float, _poisson_mean),
    ("disc.lambda_hi", "lambda_hi", _parse_float, _poisson_mean),
    ("power.macro_w", "power_macro_w", _parse_float, _positive),
    ("power.small_w", "power_small_w", _parse_float, _positive),
    ("power.pmax_w", "pmax_w", _parse_float, _budget),
    ("noise_w", "noise_w", _parse_float, _positive),
    ("target_sir_db", "target_sir_db", _parse_float, _decibel),
    ("opc_eta", "opc_eta", _parse_float, _positive),
    ("ith_w", "ith_w", _parse_float, _positive),
    ("bias_db", "bias_db", _parse_float, _bias),
    ("epsilon", "epsilon", _parse_float, _non_negative),
    ("scheduler", "scheduler", _parse_str, _enum(SCHEDULERS)),
    ("assoc.uplink", "assoc_uplink", _parse_str, _enum(SCHEMES)),
    ("assoc.downlink", "assoc_downlink", _parse_str, _enum(SCHEMES)),
    ("pc.algorithm", "pc_algorithm", _parse_str, _enum(ALGORITHMS)),
    ("pc.max_iters", "max_iters", _parse_int, _at_least_one),
    ("pc.tol", "tol", _parse_float, _positive),
    ("pc.tol_support", "tol_support", _parse_float, _non_negative),
    ("cells.hpue_per_macro", "hpue_per_macro", _parse_int, _at_least_one),
    ("cells.lpue_per_small", "lpue_per_small", _parse_int, _at_least_one),
    ("pathloss.exponent", "path_exponent", _parse_float, _exponent),
    ("pathloss.d_min", "path_d_min", _parse_float, _positive),
    ("pathloss.k", "path_k", _parse_float, _positive),
    ("mc.snapshots", "snapshots", _parse_int, _at_least_one),
    ("mc.base_seed", "base_seed", _parse_int, _u64),
    ("mc.sweep", "sweep", _parse_sweep, _sweep_ok),
    ("geometry", "geometry", _parse_str, _enum(GEOMETRIES)),
]

_FIELD_OF_KEY = {key: field_name for key, field_name, _, _ in _KEY_TABLE}
_PARSER_OF_KEY = {key: parser for key, _, parser, _ in _KEY_TABLE}
KNOWN_KEYS = tuple(key for key, _, _, _ in _KEY_TABLE)


def _iter_entries(text):
    """Yield (key, raw_value, line_number) from config text, resolving INI
    sections into dotted key prefixes."""
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


def _apply_entry(cfg, key, raw_value, line):
    if key not in _FIELD_OF_KEY:
        raise ConfigError("unknown config key", key=key, line=line)
    try:
        value = _PARSER_OF_KEY[key](raw_value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"cannot parse value {raw_value!r}: {exc}", key=key, line=line
        ) from None
    setattr(cfg, _FIELD_OF_KEY[key], value)


def parse_config_text(text, overrides=(), base=None):
    """Parse config text into a validated SimConfig, starting from ``base``
    (or package defaults) and applying ``key=value`` override strings last."""
    cfg = SimConfig(**vars(base)) if base is not None else SimConfig()
    for key, raw, lineno in _iter_entries(text):
        _apply_entry(cfg, key, raw, lineno)
    for idx, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(
                f"override must look like key=value, got {item!r}",
                line=f"--set #{idx}",
            )
        key, raw = item.split("=", 1)
        _apply_entry(cfg, key.strip(), raw.strip(), f"--set #{idx}")
    return cfg.validate()


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


def _render_value(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg):
    """Deterministic flat rendering of the resolved config; parsing it back
    reproduces an identical SimConfig."""
    lines = [
        f"{key} = {_render_value(getattr(cfg, field_name))}"
        for key, field_name, _, _ in _KEY_TABLE
    ]
    return "\n".join(lines) + "\n"


def config_json_dict(cfg):
    """JSON-ready dotted-key dict of the resolved config."""
    out = {}
    for key, value in cfg.to_key_values().items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out
