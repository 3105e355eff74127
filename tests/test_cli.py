import csv
import json
import math

import numpy as np
import pytest

from ghost_turb.cli import main, mds_demo_rows
from ghost_turb.config import build_config, load_config, parse_config_text, parse_mask
from ghost_turb.errors import ConfigurationError
from ghost_turb.io_formats import read_pgm8
from ghost_turb.optics import Grid2D
from ghost_turb.simulate import BATCH_FRAMES

NOMINAL_REGIME = ["--set", "cn2=1.5e-12"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ghost-turb ")


def test_rho0_command_nominal_regime(capsys):
    assert main(["rho0", *NOMINAL_REGIME]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "coherence length" in lines[0] and "cn2_uniform" in lines[0]
    rho0_m = float(lines[0].split("=")[1].split()[0])
    assert 0.0494 <= rho0_m <= 0.0500
    assert "8.05537e+06" in lines[1].replace("e+6", "e+06")
    integral = float(lines[2].split("=")[1].split()[0])
    assert integral == pytest.approx(1.5e-12 * 1.4 * 3.0 / 8.0, rel=1e-4)
    assert "immune" in lines[4]
    assert "4.52" in lines[4]


def test_rho0_command_vacuum_default(capsys):
    assert main(["rho0"]) == 0
    out = capsys.readouterr().out
    assert "inf" in out.splitlines()[0]
    assert "vacuum" in out.splitlines()[0]
    assert "immune" in out


def test_rho0_inline_profile_section(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "frames = 100  # short\n"
        "[profile]\n"
        "0.0 0.7 1.5e-12\n"
        "0.7 1.4 1.5e-12\n")
    assert main(["rho0", "--config", str(cfg)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "inline_profile" in line
    rho0_m = float(line.split("=")[1].split()[0])
    assert 0.0494 <= rho0_m <= 0.0500


def test_rho0_mm_flag_overrides_file_cn2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cn2 = 1.5e-12\n")
    assert main(["rho0", "--config", str(cfg), "--rho0-mm", "2"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "explicit" in line
    assert float(line.split("=")[1].split()[0]) == pytest.approx(2e-3)


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("framez = 100\n")
    assert main(["rho0", "--config", str(cfg)]) == 2
    assert "unknown config keys: framez" in capsys.readouterr().err


def test_single_frame_exits_2(capsys):
    assert main(["simulate", "--frames", "1"]) == 2
    assert "frames >= 2" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["rho0", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def _small_sim_args(outdir, frames=300, extra=()):
    return ["simulate", "--frames", str(frames), "--out", str(outdir),
            "--set", "source_pitch=2e-3", "--set", "ref_pixels=24",
            "--set", "object_pixels=5", *extra]


def test_simulate_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_small_sim_args(outdir)) == 0
    for name in ("ghost.pgm", "ghost.pgm.scale.txt", "ghost.csv", "psf_metrics.csv",
                 "background.pgm", "stderr.pgm", "stderr.csv", "run.json"):
        assert (outdir / name).exists(), name
    record = json.loads((outdir / "run.json").read_text())
    assert record["command"] == "simulate"
    assert record["peak"]["status"] == "ok"
    assert record["config"]["frames"] == 300
    assert set(record["versions"]) == {"ghost_turb", "numpy", "python"}
    assert record["wall_time_s"] > 0
    assert record["batch_frames"] == BATCH_FRAMES
    assert record["blas_threads"] in (1, None)
    rows = _read_csv(outdir / "psf_metrics.csv")
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["status"] == "ok"
    assert float(metrics["fwhm_x_m"]) > 0
    out = capsys.readouterr().out
    assert "simulated 300 frames" in out


def test_simulate_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    assert main(_small_sim_args(a)) == 0
    assert main(_small_sim_args(b)) == 0
    assert main(_small_sim_args(c, extra=("--workers", "2"))) == 0
    for name in ("ghost.pgm", "ghost.csv", "psf_metrics.csv", "stderr.csv"):
        ref = (a / name).read_bytes()
        assert (b / name).read_bytes() == ref, name
        assert (c / name).read_bytes() == ref, name


def test_simulate_undecidable_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    # Two frames satisfy the config check but cannot yield a significant
    # covariance peak.
    assert main(_small_sim_args(outdir, frames=2)) == 3
    assert "add frames" in capsys.readouterr().err
    record = json.loads((outdir / "run.json").read_text())
    assert record["peak"]["status"] == "no_detection"


def _analytic_args(outdir):
    return ["analytic", "--out", str(outdir), "--rho0-mm", "49.7292",
            "--set", "ref_pixels=32", "--set", "object_pixels=5",
            "--set", "source_pitch=1e-3"]


def test_analytic_products(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_analytic_args(outdir)) == 0
    for name in ("analytic.pgm", "analytic.csv", "analytic_psf.csv",
                 "bracket_curve.csv", "mds_demo.csv", "run.json"):
        assert (outdir / name).exists(), name

    rho0 = 49.7292e-3
    curve = _read_csv(outdir / "bracket_curve.csv")
    assert len(curve) == 121
    assert float(curve[0]["separation_m"]) == 0.0
    assert float(curve[0]["pair_factor"]) == pytest.approx(2.0, rel=1e-12)
    for row in curve[::10]:
        sep = float(row["separation_m"])
        expected = 1.0 + math.exp(-(sep / rho0) ** 2)
        assert float(row["pair_factor"]) == pytest.approx(expected, rel=1e-9)
    assert float(curve[-1]["separation_m"]) == pytest.approx(3.0 * rho0)

    demo = {r["case"]: r for r in _read_csv(outdir / "mds_demo.csv")}
    assert float(demo["mode_independent"]["max_rel_diff_vs_clean"]) < 1e-12
    assert float(demo["mode_dependent"]["mean_lhs"]) == pytest.approx(2.0, abs=0.01)
    assert float(demo["mode_dependent"]["clean_mean_lhs"]) == 4.0

    record = json.loads((outdir / "run.json").read_text())
    assert record["peak"]["status"] == "ok"
    assert len(record["mds_demo"]) == 2


def test_mds_demo_rows_shape():
    rows = mds_demo_rows(seed=7, matched_draws=500, random_draws=2000)
    assert rows[0]["case"] == "mode_independent"
    assert rows[0]["max_rel_diff_vs_clean"] < 1e-11
    assert rows[1]["mean_lhs"] == pytest.approx(2.0, abs=0.1)


def _compare_args(outdir, frames=1500, extra=()):
    return ["compare", "--frames", str(frames), "--out", str(outdir),
            "--set", "source_pitch=2e-3", "--set", "ref_pixels=32",
            "--set", "object_pixels=5", *extra]


def test_compare_vacuum_within_tolerance(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_compare_args(outdir)) == 0
    rows = _read_csv(outdir / "compare.csv")
    assert len(rows) == 1
    assert rows[0]["rho0_mm"] == "inf"
    assert rows[0]["within_tolerance"] == "true"
    assert float(rows[0]["rel_err_x"]) <= 0.10
    record = json.loads((outdir / "run.json").read_text())
    assert record["comparison"]["tolerance"] == 0.10
    out = capsys.readouterr().out
    assert "rel err" in out


def test_compare_sweep_and_tight_tolerance_exits_1(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(_compare_args(outdir, extra=("--set", "compare_tolerance=1e-6")))
    assert code == 1
    assert "beyond tolerance" in capsys.readouterr().err
    rows = _read_csv(outdir / "compare.csv")
    assert rows[0]["within_tolerance"] == "false"


def test_compare_insufficient_frames_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_compare_args(outdir, frames=2)) == 3
    assert "add frames" in capsys.readouterr().err
    rows = _read_csv(outdir / "compare.csv")
    assert rows[0]["status"] == "undecidable"


def test_parse_config_text_errors():
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config_text("[stuff]\n")
    with pytest.raises(ConfigurationError, match="duplicate key"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigurationError, match="expected key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigurationError, match="empty"):
        parse_config_text("[profile]\n")
    with pytest.raises(ConfigurationError, match="duplicate \\[profile\\]"):
        parse_config_text("[profile]\n0 1.4 1e-12\n[profile]\n")


def test_build_config_conflicting_rho0_family():
    with pytest.raises(ConfigurationError, match="only one"):
        build_config({"rho0": "0.05", "cn2": "1e-12"})


def test_load_config_defaults():
    rc = load_config(None, {})
    assert rc.rho0 == math.inf
    assert rc.rho0_origin == "vacuum"
    assert rc.source_pitch == pytest.approx(11e-3 / 16.0)
    assert rc.frames == 10000
    assert rc.out_dir == "ghost_out"


def test_sweep_parsing():
    rc = load_config(None, {"rho0_sweep_mm": "2, 5, 10, inf"})
    assert rc.rho0_sweep == (2e-3, 5e-3, 10e-3, math.inf)
    with pytest.raises(ConfigurationError, match="positive"):
        load_config(None, {"rho0_sweep_mm": "-3"})


def test_parse_mask_forms(tmp_path):
    grid = Grid2D.centered(9, 9, 12e-6)
    assert parse_mask("point", grid).transmissivity.sum() == 1.0
    assert parse_mask("open", grid).transmissivity.sum() == 81.0
    slit = parse_mask("double_slit:24e-6,48e-6,60e-6", grid)
    assert slit.transmissivity.sum() > 0
    with pytest.raises(ConfigurationError, match="unknown mask"):
        parse_mask("blob", grid)
    with pytest.raises(ConfigurationError, match="bad mask"):
        parse_mask("point:1,2,3", grid)
    pgm = tmp_path / "m.pgm"
    pgm.write_bytes(b"P5\n9 9\n255\n" + bytes(81))
    assert parse_mask(f"pgm:{pgm}", grid).transmissivity.sum() == 0.0
    small = tmp_path / "small.pgm"
    small.write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    with pytest.raises(ConfigurationError, match="object"):
        parse_mask(f"pgm:{small}", grid)


def test_pgm_mask_roundtrip(tmp_path):
    grid = Grid2D.centered(4, 4, 12e-6)
    pgm = tmp_path / "m.pgm"
    levels = bytes([0, 255] * 8)
    pgm.write_bytes(b"P5\n4 4\n255\n" + levels)
    mask = parse_mask(f"pgm:{pgm}", grid)
    assert np.array_equal(mask.transmissivity,
                          read_pgm8(pgm))
    assert set(np.unique(mask.transmissivity)) == {0.0, 1.0}
