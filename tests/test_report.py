import dataclasses
import json

import numpy as np

from hetsim.config import SimConfig, fig3_defaults
from hetsim.harness import FIELDS, MetricsReport, run_preset
from hetsim.report import CSV_HEADER, emit_report


def _small_report():
    cfg = dataclasses.replace(SimConfig(), snapshots=2, sweep=(3,))
    return run_preset("fig2", cfg)


def test_csv_header_exact(tmp_path):
    paths = emit_report(_small_report(), tmp_path)
    first = paths["csv"].read_text().splitlines()[0]
    assert first == (
        "experiment,sweep_param,sweep_value,algorithm,scheme,direction,"
        "seed_count,hpue_outage,lpue_outage,agg_power_w,"
        "agg_throughput_bps_hz,spectral_eff_bps_hz,convergence_rate"
    )
    assert first == CSV_HEADER


def test_fig2_row_count_full_sweep(tmp_path):
    cfg = dataclasses.replace(SimConfig(), snapshots=1)
    report = run_preset("fig2", cfg)
    paths = emit_report(report, tmp_path)
    lines = paths["csv"].read_text().strip().splitlines()
    assert len(lines) == 1 + 16  # 4 sweep points x 4 algorithms


def test_reemission_is_byte_identical(tmp_path):
    report = _small_report()
    a = emit_report(report, tmp_path / "a")
    b = emit_report(report, tmp_path / "b")
    assert a["csv"].read_bytes() == b["csv"].read_bytes()
    assert a["json"].read_bytes() == b["json"].read_bytes()
    for pa, pb in zip(a["xy"], b["xy"]):
        assert pa.read_bytes() == pb.read_bytes()


def test_empty_report_emits_header_and_valid_json(tmp_path):
    report = MetricsReport(
        experiment="fig2",
        rows=[],
        config=SimConfig(),
        raw=np.empty((0, 0, len(FIELDS), 0)),
    )
    paths = emit_report(report, tmp_path)
    assert paths["csv"].read_text() == CSV_HEADER + "\n"
    doc = json.loads(paths["json"].read_text())
    assert doc["rows"] == []
    assert doc["config"]["mc.snapshots"] == 100
    assert paths["xy"] == []


def test_absent_metrics_are_empty_cells_not_zero(tmp_path):
    cfg = dataclasses.replace(fig3_defaults(), snapshots=2, sweep=(4,))
    report = run_preset("fig3", cfg)
    paths = emit_report(report, tmp_path)
    row = paths["csv"].read_text().strip().splitlines()[1].split(",")
    header = CSV_HEADER.split(",")
    assert row[header.index("hpue_outage")] == ""
    assert row[header.index("lpue_outage")] == ""
    assert row[header.index("spectral_eff_bps_hz")] != ""
    assert row[header.index("algorithm")] == "none"


def test_xy_curves_cover_variants_and_metrics(tmp_path):
    report = _small_report()
    paths = emit_report(report, tmp_path)
    names = {p.name for p in paths["xy"]}
    assert "fig2_ptpc_hpue_outage.xy" in names
    assert "fig2_tpc_lpue_outage.xy" in names
    body = (tmp_path / "fig2_tpc_lpue_outage.xy").read_text().strip()
    x, y = body.splitlines()[0].split()
    assert int(x) == 3
    float(y)  # parses as a number


def test_json_embeds_resolved_config_and_seeds(tmp_path):
    report = _small_report()
    paths = emit_report(report, tmp_path)
    doc = json.loads(paths["json"].read_text())
    assert doc["config"]["target_sir_db"] == report.config.target_sir_db
    assert doc["config"]["mc.sweep"] == [3]
    assert doc["rows"][0]["seeds"] == [1, 2]
