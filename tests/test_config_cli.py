import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingNumpy, instance_system
from hetsim.cli import main, run_oracle_check
from hetsim.config import (
    KNOWN_KEYS,
    MAX_USERS,
    POISSON_LAM_MAX,
    SimConfig,
    config_json_dict,
    fig3_defaults,
    parse_config,
    parse_config_text,
)
from hetsim.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
FIG2_CFG = "configs/fig2_default.cfg"


def test_shipped_fig2_config_resolves(cfg):
    parsed = parse_config(FIG2_CFG)
    assert parsed.snapshots == 100
    assert parsed == cfg  # the shipped file spells out the defaults


def test_shipped_fig3_config_resolves():
    parsed = parse_config("configs/fig3_default.cfg")
    assert parsed == fig3_defaults()
    assert parsed.snapshots == 200
    assert parsed.sweep == (0, 5, 10, 20, 40)


def test_override_semantics():
    parsed = parse_config(FIG2_CFG, overrides=("mc.snapshots=5",))
    assert parsed.snapshots == 5
    assert dataclasses.replace(parsed, snapshots=100) == parse_config(FIG2_CFG)


def test_negative_power_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("power.pmax_w = -1\n")
    assert "power.pmax_w" in str(err.value)
    non_finite = [
        (key, value)
        for key, default in config_json_dict(SimConfig()).items()
        if isinstance(default, float)
        for value in ("inf", "-inf", "nan")
    ]
    assert ("grid.macro_side_m", "inf") in non_finite
    assert ("pathloss.k", "nan") in non_finite
    for key, value in non_finite:
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = {value}\n")
        assert key in str(err.value), (key, value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("noise_w = 1e-13\nbogus_key = 3\n")
    assert "bogus_key" in str(err.value)
    assert "line=2" in str(err.value)


def test_unparseable_value_reports_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("mc.snapshots = many\n")
    assert "mc.snapshots" in str(err.value)
    assert "line=1" in str(err.value)


def test_sectioned_and_dotted_forms_agree():
    sectioned = parse_config_text(
        """
        noise_w = 2e-13   # watts
        [mc]
        snapshots = 7
        base_seed = 9
        [power]
        pmax_w = 2.0
        """.replace("        ", "")
    )
    dotted = parse_config_text(
        "noise_w = 2e-13\nmc.snapshots = 7\nmc.base_seed = 9\npower.pmax_w = 2.0\n"
    )
    assert sectioned == dotted


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


def test_bad_override_shape():
    with pytest.raises(ConfigError):
        parse_config_text("", overrides=("mc.snapshots",))


def test_sweep_validation():
    assert parse_config_text("mc.sweep = 3, 4 ,5\n").sweep == (3, 4, 5)
    with pytest.raises(ConfigError):
        parse_config_text("mc.sweep = \n")
    with pytest.raises(ConfigError):
        parse_config_text("mc.sweep = 3,-4\n")
    # grid sweep entries count small cells per macro cell: at most
    # (1000 // 200)**2 = 25 fit at the default geometry, and never above 64
    for bad in ("0", "3,26", "3,65"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"mc.sweep = {bad}\n")
        assert "mc.sweep" in str(err.value)
    disc = parse_config_text("geometry = disc\nmc.sweep = 0,80\n")
    assert disc.sweep == (0, 80)


def test_enum_validation():
    with pytest.raises(ConfigError):
        parse_config_text("pc.algorithm = waterfilling\n")
    with pytest.raises(ConfigError):
        parse_config_text("assoc.downlink = nearest\n")
    with pytest.raises(ConfigError):
        parse_config_text("scheduler = fifo\n")


def test_lambda_range_cross_validation():
    with pytest.raises(ConfigError):
        parse_config_text("disc.lambda_lo = 5\ndisc.lambda_hi = 2\n")


def test_lambda_limit_is_numpys_poisson_limit():
    # the largest intensity config accepts is the largest numpy draws with
    rng = np.random.default_rng(0)
    above = float(np.nextafter(POISSON_LAM_MAX, np.inf))
    rng.poisson(POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above)
    parse_config_text(f"disc.lambda_hi = {POISSON_LAM_MAX!r}\n")
    with pytest.raises(ConfigError, match="disc.lambda_hi"):
        parse_config_text(f"disc.lambda_hi = {above!r}\n")


def test_users_per_snapshot_are_bounded_when_built(tmp_path, capsys):
    # only configs are built here: none of them runs, so nothing of the
    # refused size is ever allocated
    per_macro = 5 + 6 * 4  # cells.hpue_per_macro + max(mc.sweep) x lpue
    rows = math.isqrt(MAX_USERS // per_macro)
    assert rows**2 * per_macro <= MAX_USERS < (rows + 1) ** 2 * per_macro
    SimConfig(grid_rows=rows)
    with pytest.raises(ConfigError, match="grid.rows"):
        SimConfig(grid_rows=rows + 1)
    with pytest.raises(ConfigError, match="grid.rows"):
        SimConfig(grid_rows=1, hpue_per_macro=MAX_USERS + 1)
    # the disc: expected users lambda_hi x max(mc.sweep) + 1, and cells
    disc = dict(geometry="disc", sweep=(40,))
    SimConfig(**disc, lambda_hi=float((MAX_USERS - 1) // 40))
    with pytest.raises(ConfigError, match="disc.lambda_hi"):
        SimConfig(**disc, lambda_hi=float((MAX_USERS - 1) // 40 + 1))
    with pytest.raises(ConfigError, match="disc.lambda_hi"):
        SimConfig(**disc, lambda_hi=POISSON_LAM_MAX)
    idle = dict(geometry="disc", lambda_lo=0.0, lambda_hi=0.0)
    SimConfig(**idle, sweep=(MAX_USERS - 1,))
    for top in (MAX_USERS, 10**400):
        with pytest.raises(ConfigError, match="mc.sweep"):
            SimConfig(**idle, sweep=(top,))
    # both default configs pass; from the CLI the bound exits 2
    parse_config(FIG2_CFG)
    parse_config("configs/fig3_default.cfg", base=fig3_defaults())
    args = ["sweep", "--out", str(tmp_path), "--set", f"grid.rows={rows + 1}"]
    assert main(args) == 2
    assert "key='grid.rows'" in capsys.readouterr().err


def _as_config_text(block):
    """The ``config`` block of a summary.json as ``key = value`` text."""
    return "".join(
        f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in block.items()
    )


def test_summary_config_round_trip_defaults(tmp_path, cfg):
    assert main(["fig2", "--out", str(tmp_path), *_tiny_overrides()]) == 0
    block = json.loads((tmp_path / "summary.json").read_text())["config"]
    ran = dataclasses.replace(cfg, snapshots=2, sweep=(3,))
    assert parse_config_text(_as_config_text(block)) == ran


@given(
    snapshots=st.integers(1, 500),
    seed=st.integers(0, 2**64 - 1),
    noise=st.floats(1e-18, 1e-3),
    sir_db=st.floats(-30.0, 30.0),
    alg=st.sampled_from(("tpc", "tpc_gr", "opc", "dtpc", "ptpc", "popc")),
    sweep=st.lists(st.integers(1, 25), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_summary_config_round_trip_random_configs(
    snapshots, seed, noise, sir_db, alg, sweep
):
    cfg = SimConfig(
        snapshots=snapshots,
        base_seed=seed,
        noise_w=noise,
        target_sir_db=sir_db,
        pc_algorithm=alg,
        sweep=tuple(sweep),
    )
    block = json.loads(json.dumps(config_json_dict(cfg)))
    assert parse_config_text(_as_config_text(block)) == cfg


def _config_file_keys(path):
    section, keys = None, []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            key = line.split("=", 1)[0].strip()
            keys.append(f"{section}.{key}" if section else key)
    return keys


def test_known_keys_are_documented_once():
    # each shipped config spells out every key once, and README's key table
    # lists every key once; neither names a key the schema lacks
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {
        "fig2_default.cfg": _config_file_keys(ROOT / "configs/fig2_default.cfg"),
        "fig3_default.cfg": _config_file_keys(ROOT / "configs/fig3_default.cfg"),
        "README key table": [
            key
            for line in table
            for key in re.findall(r"`([^`]+)`", line.split(" | ")[0])
        ],
    }
    for where, keys in documented.items():
        assert sorted(keys) == sorted(KNOWN_KEYS), where


def test_config_is_validated_when_built():
    with pytest.raises(ConfigError, match="power.pmax_w"):
        SimConfig(pmax_w=-1.0)
    with pytest.raises(ConfigError, match="target_sir_db"):
        SimConfig(target_sir_db=4000.0)
    with pytest.raises(ConfigError, match="mc.sweep"):
        dataclasses.replace(fig3_defaults(), geometry="grid")
    with pytest.raises(dataclasses.FrozenInstanceError):
        SimConfig().pmax_w = 2.0


def test_config_types_are_checked_when_built():
    # a value has its default's type: a bool is not an int, an int is not a
    # float, and mc.sweep is a tuple of ints; each names its key
    wrong = [
        ("mc.snapshots", {"snapshots": 2.5, "sweep": (3,)}),
        ("mc.snapshots", {"snapshots": True}),
        ("power.pmax_w", {"pmax_w": "1.0"}),
        ("power.pmax_w", {"pmax_w": 2}),
        ("power.pmax_w", {"pmax_w": True}),
        ("mc.sweep", {"sweep": [3, 4]}),
        ("mc.sweep", {"sweep": (3, True)}),
        ("mc.sweep", {"sweep": (3.0,)}),
        ("geometry", {"geometry": None}),
    ]
    for key, values in wrong:
        with pytest.raises(ConfigError, match=re.escape(f"key={key!r}")):
            SimConfig(**values)
    # a float subclass is a float; text is parsed as the default's type
    assert SimConfig(pmax_w=np.float64(2.0)).pmax_w == 2.0
    parsed = parse_config_text("power.pmax_w = 2\nmc.snapshots = 3")
    assert type(parsed.pmax_w) is float and type(parsed.snapshots) is int


# ------------------------------------------------------------------- CLI


def _tiny_overrides():
    return [
        "--set", "mc.snapshots=2",
        "--set", "mc.sweep=3",
    ]


def test_cli_fig2_writes_outputs(tmp_path, capsys):
    out = tmp_path / "fig2"
    code = main(["fig2", "--out", str(out), *_tiny_overrides()])
    assert code == 0
    csv_text = (out / "results.csv").read_text()
    assert csv_text.startswith(
        "experiment,sweep_param,sweep_value,algorithm,scheme,direction,"
    )
    assert len(csv_text.strip().splitlines()) == 1 + 4  # header + 4 algorithms
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tool"]["name"] == "hetsim"
    assert summary["config"]["mc.snapshots"] == 2
    assert len(summary["rows"]) == 4


def test_cli_seed_override_changes_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["fig2", "--out", str(out_a), *_tiny_overrides()]) == 0
    assert main(["fig2", "--out", str(out_b), *_tiny_overrides(), "--seed", "99"]) == 0
    assert main(["fig2", "--out", str(out_c), *_tiny_overrides(), "--seed", "99"]) == 0
    a = (out_a / "results.csv").read_bytes()
    b = (out_b / "results.csv").read_bytes()
    c = (out_c / "results.csv").read_bytes()
    assert a != b
    assert b == c


def test_cli_fig3_runs(tmp_path):
    out = tmp_path / "fig3"
    code = main(
        ["fig3", "--out", str(out), "--set", "mc.snapshots=2", "--set",
         "mc.sweep=0,5"]
    )
    assert code == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3  # two sweep points x three schemes


def test_cli_sweep_uses_configured_variant(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--out", str(out), "--set", "pc.algorithm=dtpc",
         *_tiny_overrides()]
    )
    assert code == 0
    assert ",dtpc," in (out / "results.csv").read_text()


def test_cli_config_error_exit_code(tmp_path, capsys):
    for args, key in (
        (["--set", "power.pmax_w=-1"], "power.pmax_w"),
        (["--set", "noise_w=inf"], "noise_w"),
        (["--set", "grid.macro_side_m=inf"], "grid.macro_side_m"),
        (["--set", "pc.tol=inf"], "pc.tol"),
        (["--set", "ith_w=inf"], "ith_w"),
        (["--set", "opc_eta=nan"], "opc_eta"),
        (["--set", "mc.sweep=3,65"], "mc.sweep"),
        (["--set", "mc.sweep=26"], "mc.sweep"),
        (["--set", "power.pmax_w=1e155"], "power.pmax_w"),
        # the path-loss parameters are checked here alone
        (["--set", "pathloss.exponent=2"], "pathloss.exponent"),
        (["--set", "pathloss.d_min=0"], "pathloss.d_min"),
        (["--set", "pathloss.k=0"], "pathloss.k"),
        # 10 ** (db / 10) overflows or underflows to 0
        (["--set", "target_sir_db=4000"], "target_sir_db"),
        (["--set", "target_sir_db=-4000"], "target_sir_db"),
        (["--set", "assoc.uplink=cre", "--set", "bias_db=4000",
          "--set", "mc.snapshots=1"], "bias_db"),
        (["--seed", "18446744073709551616"], "mc.base_seed"),
        (["--seed", "-1"], "mc.base_seed"),
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-3"], "--jobs"),
    ):
        code = main(["fig2", "--out", str(tmp_path), *args])
        assert code == 2, args
        assert key in capsys.readouterr().err, args
    # a preset runs its own geometry only; the geometry is blamed even
    # where the preset's default sweep would fail the other geometry's check
    for args in (
        ["fig2", "--set", "geometry=disc"],
        ["fig3", "--set", "geometry=grid"],
    ):
        assert main([*args, "--out", str(tmp_path)]) == 2, args
        assert "key='geometry'" in capsys.readouterr().err, args
    # a disc intensity numpy's Poisson sampler rejects
    disc = ["sweep", "--out", str(tmp_path), "--set", "geometry=disc",
            "--set", "mc.sweep=1", "--set", "mc.snapshots=1"]
    for key in ("disc.lambda_lo", "disc.lambda_hi"):
        args = [*disc, "--set", "disc.lambda_hi=1e300", "--set", f"{key}=1e300"]
        assert main(args) == 2, key
        assert f"key='{key}'" in capsys.readouterr().err, key


def test_cli_jobs_above_cpu_count_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("hetsim.harness.ProcessPoolExecutor", no_pool)
    jobs = str((os.cpu_count() or 1) + 1)
    for command in ("fig2", "fig3", "sweep"):
        out = tmp_path / command
        code = main([command, "--out", str(out), "--jobs", jobs])
        assert code == 2, command
        assert "--jobs" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_cli_missing_config_file_exit_code(tmp_path):
    code = main(["fig2", "--config", str(tmp_path / "none.cfg")])
    assert code == 2
    # an unreadable file is a config error too, not a numeric one
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("noise_w = 1e-13 # \u00b5W\n".encode("latin-1"))
    assert main(["fig2", "--config", str(latin1)]) == 2


def test_cli_io_error_exit_code(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    code = main(["fig2", "--out", str(blocker), *_tiny_overrides()])
    assert code == 4


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    # 25 small cells fit a macro cell only as an exact 5x5 tiling, which
    # rejection sampling does not find at seed 1: generation fails
    code = main(
        ["fig2", "--out", str(tmp_path / "x"), "--set", "mc.snapshots=1",
         "--set", "mc.sweep=25"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "mc.sweep" in err
    # distances that overflow and path gains that underflow to 0 are
    # numeric failures of the run; the disc's guard sees the tagged row
    for preset, key, word in (
        ("fig2", "grid.macro_side_m=1e300", "distances overflow"),
        ("fig2", "grid.macro_side_m=1e100", "pathloss"),
        ("fig2", "pathloss.exponent=1000", "pathloss"),
        ("fig3", "disc.radius_m=1e300", "distances overflow"),
        ("fig3", "pathloss.exponent=1000", "pathloss"),
    ):
        code = main(
            [preset, "--out", str(tmp_path / "y"), "--set", "mc.snapshots=1",
             "--set", "mc.sweep=3", "--set", key]
        )
        assert code == 3, (preset, key)
        assert word in capsys.readouterr().err, (preset, key)


def test_cli_lets_other_value_errors_surface(tmp_path, monkeypatch):
    # exit 3 means a numeric failure; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("not a numeric failure")

    monkeypatch.setattr("hetsim.cli.run_preset", broken)
    with pytest.raises(ValueError, match="not a numeric failure"):
        main(["fig2", "--out", str(tmp_path)])


def test_cli_oracle_check_passes(capsys):
    code = main(["oracle-check", "--count", "25", "--seed", "3"])
    assert code == 0
    assert "25/25 passed" in capsys.readouterr().out


def test_cli_oracle_check_bad_flags_are_config_errors(capsys):
    for args, flag in (
        (["--count", "0"], "--count"),
        (["--count", "-5"], "--count"),
        (["--seed", "-1"], "--seed"),
        # instance k uses seed + k, past the 128-bit seeds at the last one
        (["--count", "2", "--seed", str(2**128 - 1)], "--seed"),
    ):
        assert main(["oracle-check", *args]) == 2, args
        assert flag in capsys.readouterr().err, args
    # the last instance may take the last 128-bit seed
    assert main(["oracle-check", "--count", "1", "--seed", str(2**128 - 1)]) == 0


def test_cli_oracle_check_failure_exit_code(monkeypatch, capsys):
    from hetsim import cli as cli_mod

    def fake(count, seed):
        return [(0, seed, "synthetic mismatch")]

    monkeypatch.setattr(cli_mod, "run_oracle_check", fake)
    assert cli_mod.main(["oracle-check", "--count", "5"]) == 1
    assert "FAIL instance 0" in capsys.readouterr().out


def test_oracle_check_reports_replay_seed():
    assert run_oracle_check(10, 11) == []


def test_oracle_check_prepares_each_instance_once(monkeypatch):
    # each instance is validated and eigen-decomposed once, as a row of its
    # size group's stack, whose kept verdict the fixed-point oracle reuses:
    # the stacked rows add up to the instances
    from hetsim.power_control import CochannelSystem

    built, eigvals_rows = [], []
    post_init, eigvals = CochannelSystem.__post_init__, np.linalg.eigvals

    def rows(arr):
        return len(arr) if np.ndim(arr) == 3 else 1

    def counting_post_init(self, a):
        built.append(rows(a))
        post_init(self, a)

    def counting_eigvals(f):
        eigvals_rows.append(rows(f))
        return eigvals(f)

    monkeypatch.setattr(CochannelSystem, "__post_init__", counting_post_init)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    assert run_oracle_check(40, 0) == []
    assert sum(built) == 40
    assert sum(eigvals_rows) == 40
    # one stack per user count (2..8): no queue of the 40 fills
    assert len(built) == len(eigvals_rows) <= 7


def _reference_oracle_failures(count, seed):
    """run_oracle_check one instance at a time: one system, one verdict, one
    kernel run and one solve per instance, reading the tolerances of
    ``hetsim.cli`` as it runs."""
    from hetsim import cli as cli_mod
    from hetsim.power_control import (
        feasibility_check,
        fixed_point_oracle,
        iterate_power_control,
        sample_instance,
    )

    failures = []
    for k in range(count):
        system = instance_system(sample_instance(np.random.default_rng(seed + k)))
        check = feasibility_check(system)
        state = iterate_power_control(
            system, algorithm="tpc", max_iters=200_000, tol=1e-12
        )
        behaved = state.converged and bool(state.supported.all())
        if check.feasible != behaved:
            failures.append(
                (
                    k,
                    seed + k,
                    f"feasibility mismatch: rho={check.spectral_radius:.6g} "
                    f"converged={state.converged} "
                    f"supported={int(state.supported.sum())}/{len(state.p)}",
                )
            )
            continue
        if check.feasible and check.spectral_radius < cli_mod.ORACLE_RHO_MATCH:
            exact = fixed_point_oracle(system)
            rel = float(np.abs(state.p - exact).max() / np.abs(exact).max())
            if rel > cli_mod.ORACLE_REL_TOL:
                failures.append(
                    (k, seed + k, f"fixed-point mismatch: rel error {rel:.3e}")
                )
    return failures


@pytest.mark.parametrize(
    "chunk,count", [(8, 7), (8, 8), (8, 9), (8, 30), (4, 60), (256, 257)]
)
def test_oracle_check_fails_like_one_instance_at_a_time(
    monkeypatch, capsys, chunk, count
):
    # a tolerance below the iterate's error makes most comparisons fail; the
    # size stacks report the same failures, text and order as the instances
    # checked one by one, whether or not the count fills a chunk, and when
    # the queues of the user counts fill and run out of instance order
    from hetsim import cli as cli_mod

    monkeypatch.setattr(cli_mod, "ORACLE_REL_TOL", 1e-15)
    monkeypatch.setattr(cli_mod, "ORACLE_CHUNK", chunk)
    want = _reference_oracle_failures(count, 5)
    assert len(want) > count // 3
    assert run_oracle_check(count, 5) == want
    assert main(["oracle-check", "--count", str(count), "--seed", "5"]) == 1
    printed = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    ]
    assert printed == [
        f"FAIL instance {k} (seed {s}): {reason}" for k, s, reason in want
    ]


def test_oracle_check_memory_is_bounded_by_its_chunk(monkeypatch):
    # a run holds at most one partly full queue per user count and one
    # running stack of ORACLE_CHUNK rows: once every user count's queue has
    # filled, four times the instances peak at about what one count does
    import tracemalloc
    from collections import Counter

    from hetsim import cli as cli_mod
    from hetsim.power_control import sample_instance

    chunk, count = 16, 256
    monkeypatch.setattr(cli_mod, "ORACLE_CHUNK", chunk)
    sizes = Counter(
        len(sample_instance(np.random.default_rng(k)).targets) for k in range(count)
    )
    assert len(sizes) == 7 and min(sizes.values()) >= chunk, sizes
    peaks = []
    tracemalloc.start()
    try:
        for total in (count, 4 * count):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert run_oracle_check(total, 0) == []
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    one, four = peaks
    assert four <= 1.25 * one, peaks


def test_oracle_check_shares_each_stack_tail_across_chunks(monkeypatch):
    # the kernel computes one stacked product per sweep of a stack, however
    # many rows it holds: one stack per user count across the chunks runs
    # 33,278 of them at --seed 1, where a stack per (chunk of 256, user
    # count) ran each slow row's tail alone, 49,815 in all
    from hetsim import power_control

    counting = CountingNumpy()
    monkeypatch.setattr(power_control, "np", counting)
    assert run_oracle_check(1000, 1) == []
    assert 0 < counting.matmuls <= 33_300


def test_oracle_check_counts_its_fixed_point_rows(monkeypatch, capsys):
    # every comfortably feasible instance (spectral radius below
    # ORACLE_RHO_MATCH) is checked against the exact fixed point, one
    # oracle call per user count: 875 of 1,000 at --seed 0, where a
    # threshold of 0.5 would check 782
    from hetsim import cli as cli_mod

    oracle, rows = cli_mod.fixed_point_oracle, []

    def counting(system):
        rows.append(len(system.targets))
        return oracle(system)

    monkeypatch.setattr(cli_mod, "fixed_point_oracle", counting)
    assert main(["oracle-check", "--count", "1000", "--seed", "0"]) == 0
    assert (sum(rows), len(rows)) == (875, 7)


def test_oracle_check_rejects_corrupt_gains():
    import numpy as np

    from hetsim.power_control import CochannelSystem

    # corrupt gains are rejected when the system is built, before an oracle
    bad = np.array([[1.0, -0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        CochannelSystem(bad, np.array([0.1, 0.1]), np.array([1.0, 1.0]), 1.0)


def test_cli_import_leaves_numpy_random_unimported():
    # NumPy 2 imports numpy.random on first use; the disc's seeding type is
    # built then, so importing the CLI adds no import time to a run's set-up
    probe = "import {}, sys; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def imports_numpy_random(module):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(module)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    if imports_numpy_random("numpy") == "True":
        pytest.skip("this NumPy imports numpy.random with numpy itself")
    assert imports_numpy_random("hetsim.cli") == "False"
