"""Snapshot Monte Carlo simulator for prioritized multi-tier cellular
networks: distributed power control, cell association, and channel-access
scheduling on a single shared channel."""

__version__ = "0.1.0"

from .config import SimConfig, fig2_defaults, fig3_defaults, parse_config
from .harness import run_experiment, run_preset
from .network import build_gain_matrix, generate_fig2_snapshot
from .power_control import (
    CochannelSystem,
    feasibility_check,
    fixed_point_oracle,
)
from .report import emit_report

__all__ = [
    "CochannelSystem",
    "SimConfig",
    "__version__",
    "build_gain_matrix",
    "emit_report",
    "feasibility_check",
    "fig2_defaults",
    "fig3_defaults",
    "fixed_point_oracle",
    "generate_fig2_snapshot",
    "parse_config",
    "run_experiment",
    "run_preset",
]
