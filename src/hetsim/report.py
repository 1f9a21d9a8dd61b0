"""CSV / JSON / xy emission of Monte Carlo reports.

Outputs are deterministic byte-for-byte for identical reports: floats are
rendered with shortest round-trip repr, JSON keys are sorted, and every file
is written atomically (write to a temp name, then rename) so partial runs
never leave corrupt results behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from . import __version__
from .config import config_json_dict
from .harness import METRICS

# the CSV columns, each a MetricsRow field, in order
CSV_HEADER = (
    "experiment,sweep_param,sweep_value,algorithm,scheme,direction,"
    "seed_count,hpue_outage,lpue_outage,agg_power_w,agg_throughput_bps_hz,"
    "spectral_eff_bps_hz,convergence_rate"
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path, text):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(report):
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in columns))
    return "\n".join(lines) + "\n"


def _json_text(report):
    doc = {
        "tool": {"name": "hetsim", "version": __version__},
        "experiment": report.experiment,
        "config": config_json_dict(report.config),
        # shallow: asdict would deep-copy every row's seeds tuple
        "rows": [
            {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _xy_files(report):
    """One plain-text xy file per (variant, reported metric) curve,
    gnuplot-ready."""
    curves = {}
    for row in report.rows:
        variant = row.algorithm if row.algorithm != "none" else row.scheme
        for metric in METRICS:
            value = getattr(row, metric)
            if value is None:
                continue
            name = f"{report.experiment}_{variant}_{metric}.xy"
            curves.setdefault(name, []).append((row.sweep_value, value))
    out = {}
    for name, points in curves.items():
        lines = [f"{x} {_fmt(float(y))}" for x, y in points]
        out[name] = "\n".join(lines) + "\n"
    return out


def emit_report(report, out_dir):
    """Write results.csv, summary.json, and per-curve xy files; returns the
    written paths. Identical reports produce byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out / "results.csv", "json": out / "summary.json", "xy": []}
    _atomic_write(paths["csv"], _csv_text(report))
    _atomic_write(paths["json"], _json_text(report))
    for name, text in sorted(_xy_files(report).items()):
        path = out / name
        _atomic_write(path, text)
        paths["xy"].append(path)
    return paths
