import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghost_turb import cli, simulate
from ghost_turb.analytic import mds_demo_rows, predicted_ghost_image
from ghost_turb.cli import main
from ghost_turb.config import (build_config, config_to_setup, load_config,
                               parse_config_text, parse_mask)
from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.io_formats import read_pgm8
from ghost_turb.optics import Grid2D
from ghost_turb.simulate import BATCH_FRAMES
from ghost_turb.turbulence import CnSquaredProfile, coherence_length

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
    assert len(lines) == 6
    assert "coherence length" in lines[0] and "cn2_uniform" in lines[0]
    rho0_m = float(lines[0].split("=")[1].split()[0])
    assert 0.0494 <= rho0_m <= 0.0500
    assert "8.05537e+06" in lines[1].replace("e+6", "e+06")
    integral = float(lines[2].split("=")[1].split()[0])
    assert integral == pytest.approx(1.5e-12 * 1.4 * 3.0 / 8.0, rel=1e-4)
    assert "immune" in lines[4]
    assert "4.52" in lines[4]
    assert "sigma_blur" in lines[5] and "4.942 um per axis" in lines[5]


@pytest.mark.parametrize("argv, blur", [
    (["--rho0-mm", "2"], "sigma_blur            = 122.9 um per axis"),
    (["--set", "rho0=inf"], None),
    (["--rho0-mm", "2", "--set", "paths_independent=false"], None),
    (["--rho0-mm", "2", "--set", "screen_fraction=1"], None),
], ids=["2mm", "vacuum", "coupled", "detector_plane"])
def test_rho0_prints_sigma_blur_only_when_the_image_sees_turbulence(capsys, argv, blur):
    # sqrt(2) L / (k rho0) = 122.9 um at 2 mm; no blur in vacuum, with
    # coupled paths or with a detector-plane screen.
    assert main(["rho0", *argv]) == 0
    out = capsys.readouterr().out
    assert blur in out if blur else "sigma_blur" not in out


def test_rho0_command_vacuum_default(capsys):
    assert main(["rho0"]) == 0
    out = capsys.readouterr().out
    assert "inf" in out.splitlines()[0]
    assert "vacuum" in out.splitlines()[0]
    assert "immune" in out


def test_rho0_command_prints_an_infinite_margin_in_vacuum(capsys):
    assert main(["rho0", "--set", "rho0=inf"]) == 0
    assert ("turbulence immunity   = immune (rho0 / diameter = inf)"
            in capsys.readouterr().out.splitlines())


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
    # Two frames give two equal centred products, so a zero stderr that
    # would pass any peak: they are refused with one.
    for frames in ("1", "2"):
        assert main(["simulate", "--frames", frames]) == 2
        assert "frames >= 3" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["rho0", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [("directory", "is a directory"),
                                           ("latin1", "is not UTF-8 text")])
@pytest.mark.parametrize("option", ["config", "cn2_profile"])
def test_unreadable_config_or_profile_exits_2(tmp_path, capsys, kind, message, option):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("uniform 1.4 1.5e-12  # Cn\xb2\n".encode("latin-1"))
    argv = (["--config", str(path)] if option == "config"
            else ["--set", f"cn2_profile={path}"])
    assert main(["rho0", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{path} {message}" in err


@pytest.mark.parametrize("key, value", [
    ("wavelength", "nan"), ("path_length", "inf"), ("compare_tolerance", "nan"),
    ("rho0", "nan"), ("source_diameter", "-inf"),
])
def test_non_finite_number_exits_2(capsys, key, value):
    assert main(["rho0", "--set", f"{key}={value}"]) == 2
    assert f"{key}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("regime", [[], NOMINAL_REGIME], ids=["vacuum", "turbulent"])
@pytest.mark.parametrize("command", ["rho0", "simulate", "analytic", "compare"])
def test_intermediate_screen_fraction_exits_2(tmp_path, capsys, command, regime):
    outdir = tmp_path / "out"
    argv = [command, "--set", "screen_fraction=0.5", "--frames", "64",
            "--out", str(outdir), *regime]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "source plane" in err and "detector plane" in err
    assert not outdir.exists()


@pytest.mark.parametrize("setting", ["seed=-5", "workers=0"])
@pytest.mark.parametrize("command", ["rho0", "analytic", "compare"])
def test_negative_seed_or_no_workers_exits_2(tmp_path, capsys, command, setting):
    outdir = tmp_path / "out"
    assert main([command, "--set", setting, "--out", str(outdir)]) == 2
    key = setting.split("=")[0]
    assert f"{key} must be >= " in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
@pytest.mark.parametrize("setting", ["ref_pixels=0", "object_pitch=-1e-6"])
def test_invalid_grid_exits_2_without_output_directory(tmp_path, capsys, command, setting):
    outdir = tmp_path / "out"
    argv = [command, "--set", setting, "--frames", "64", "--out", str(outdir)]
    assert main(argv) == 2
    assert "error: grid" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
def test_mask_that_transmits_nothing_exits_2_without_output_directory(tmp_path, capsys,
                                                                      command):
    # Slits narrower than a pixel cover no pixel center: the bucket is
    # identically zero, which no number of frames can help.
    outdir = tmp_path / "out"
    argv = [command, "--set", "mask=double_slit:1e-9,50e-6,1e-9", "--frames", "64",
            "--out", str(outdir)]
    assert main(argv) == 2
    assert "mask transmits nothing" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [["simulate", "--workers", "1"], ["simulate", "--workers", "2"],
                                  ["analytic"], ["compare"]],
                         ids=["simulate-1", "simulate-2", "analytic", "compare"])
def test_non_paraxial_geometry_exits_2_without_output_directory(tmp_path, capsys, argv):
    # At 5 cm the Fresnel kernel drops a quartic phase of about 9.8 rad.
    outdir = tmp_path / "out"
    assert main([*argv, "--set", "path_length=0.05", "--frames", "64",
                 "--out", str(outdir)]) == 2
    assert "error: geometry is not paraxial" in capsys.readouterr().err
    assert not outdir.exists()
    assert main(["rho0", "--set", "path_length=0.05"]) == 0


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
@pytest.mark.parametrize("setting, span, half", [
    (["--set", "ref_pixels=5"], "60.0", "121.1"),
    (["--set", "ref_pixels=9"], "108.0", "121.1"),
    (["--rho0-mm", "1.5"], "768.0", "466.6"),
    (["--set", "ref_pixels=100", "--rho0-mm", "1.05"], "1200.0", "655.0"),
], ids=["5", "9", "blur_1.5mm", "wide_1.05mm"])
def test_reference_grid_narrower_than_the_airy_core_exits_2(tmp_path, capsys, command,
                                                            setting, span, half):
    # 5 and 9 px of 12 um would report FWHMs of about 35 and 70 um for a
    # 103 um image; the core is 2.44 wavelength L / D = 242.2 um.  At
    # 1.5 mm the default grid's half-span of 384 um is short of the Airy
    # radius and 2.75 sigma_blur (163.9 um) in quadrature, and the width
    # it reports is 4% low.  100 px at 1.05 mm would report one 2.3% low.
    outdir = tmp_path / "out"
    assert main([command, *setting, "--frames", "64", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert f"spans {span} um, less than the Airy core" in err
    assert "= 242.2 um" in err
    assert f"half-span must be at least {half} um; raise ref_pixels or ref_pitch" in err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
@pytest.mark.parametrize("setting, period, reach", [
    (["--set", "source_pitch=2.75e-3"], "397.1", "121.1"),
    (["--rho0-mm", "0.3"], "1588.4", "2579.0"),
], ids=["coarse_pitch", "strong_blur"])
def test_aliased_source_lattice_exits_2_without_output_directory(tmp_path, capsys, command,
                                                                 setting, period, reach):
    # A replica of the image sits one period wavelength L / pitch away and
    # reaches the Airy radius 121.1 um plus 3 sigma_blur (819 um per sigma
    # at 0.3 mm) from its centre, but the reference grid lies up to
    # 384.0 um from the point.
    outdir = tmp_path / "out"
    assert main([command, *setting, "--frames", "64", "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "error: the source lattice aliases" in err
    assert f"period wavelength path_length / source_pitch = {period} um" in err
    assert f"is {reach} um" in err
    assert "span max |x_p - x_b| = 384.0 um" in err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
@pytest.mark.parametrize("below", [False, True])
def test_out_at_an_existing_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, below):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "run_simulation", no_work)
    monkeypatch.setattr(cli, "predicted_ghost_image", no_work)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "sub" if below else taken
    assert main([command, "--frames", "64", "--out", str(out)]) == 2
    assert f"error: output path {taken} exists and is not a directory" in (
        capsys.readouterr().err)
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("command, option", [("rho0", "--config"), ("analytic", "--out")])
def test_a_name_too_long_for_the_file_system_exits_2(tmp_path, capsys, command, option):
    # 300 characters exceed the 255 a path component may have on common
    # file systems: the OS error is a bad input, not a traceback with exit 1.
    name = "x" * 300
    assert main([command, option, str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "analytic", "compare"])
@pytest.mark.parametrize("depth", [1, 2])
def test_a_long_name_under_a_missing_parent_exits_2_before_any_work(tmp_path, capsys,
                                                                    monkeypatch, command,
                                                                    depth):
    # The stat of the whole path fails at the missing parent, so only the
    # file system's name limit, read at the nearest existing ancestor,
    # can refuse the 300-character name before the run and its mkdir.
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "run_simulation", no_work)
    monkeypatch.setattr(cli, "predicted_ghost_image", no_work)
    name = "x" * 300
    out = tmp_path.joinpath(*["missing"] * depth, name)
    assert main([command, "--frames", "64", "--out", str(out)]) == 2
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    assert (f"error: output path {out} has a name of 300 bytes, more than the {limit} that "
            f"the file system of {tmp_path} allows") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _small_sim_args(outdir, frames=1024, extra=()):
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
    assert record["config"]["frames"] == 1024
    assert set(record["versions"]) == {"ghost_turb", "numpy", "python"}
    assert record["wall_time_s"] > 0
    assert record["batch_frames"] == BATCH_FRAMES
    assert record["blas_threads"] in (1, None)
    rows = _read_csv(outdir / "psf_metrics.csv")
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["status"] == "ok"
    assert float(metrics["fwhm_x_m"]) > 0
    out = capsys.readouterr().out
    assert "simulated 1024 frames" in out


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_coupled_source_plane_paths_give_the_vacuum_outputs(tmp_path, workers):
    vacuum = tmp_path / "vacuum"
    coupled = tmp_path / "coupled"
    assert main(_small_sim_args(vacuum)) == 0
    assert main(_small_sim_args(coupled, extra=(
        "--set", "rho0=0.005", "--set", "paths_independent=false",
        "--workers", workers))) == 0
    for name in ("ghost.csv", "stderr.csv"):
        assert (coupled / name).read_bytes() == (vacuum / name).read_bytes(), name


# Both leave the law of every intensity as in vacuum.
VACUUM_LIKE = pytest.mark.parametrize("setting", ["paths_independent=false", "screen_fraction=1"],
                                      ids=["coupled", "detector_plane"])


@VACUUM_LIKE
def test_analytic_treats_coupled_and_detector_plane_screens_as_vacuum(tmp_path, setting):
    base = ["analytic", "--set", "ref_pixels=32", "--set", "object_pixels=5",
            "--set", "source_pitch=1e-3"]
    vacuum, screened = tmp_path / "vacuum", tmp_path / "screened"
    assert main([*base, "--set", "rho0=inf", "--out", str(vacuum)]) == 0
    assert main([*base, "--rho0-mm", "2", "--set", setting, "--out", str(screened)]) == 0
    for name in ("analytic.csv", "analytic_psf.csv", "bracket_curve.csv"):
        assert (screened / name).read_bytes() == (vacuum / name).read_bytes(), name


@VACUUM_LIKE
def test_rho0_verdict_of_coupled_and_detector_plane_screens_is_immune(capsys, setting):
    assert main(["rho0", "--set", "cn2=1e-10"]) == 0
    assert "degraded" in capsys.readouterr().out
    assert main(["rho0", "--set", "cn2=1e-10", "--set", setting]) == 0
    assert "= immune" in capsys.readouterr().out


def test_simulate_undecidable_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    # Three frames satisfy the config check but cannot yield a significant
    # covariance peak.
    assert main(_small_sim_args(outdir, frames=3)) == 3
    assert "add frames" in capsys.readouterr().err
    record = json.loads((outdir / "run.json").read_text())
    assert record["peak"]["status"] == "no_detection"


def _analytic_args(outdir):
    return ["analytic", "--out", str(outdir), "--rho0-mm", "49.7292",
            "--set", "ref_pixels=32", "--set", "object_pixels=5",
            "--set", "source_pitch=1e-3"]


def _refuse_constant(name):
    raise ValueError(f"run.json holds {name}, which strict JSON parsers reject")


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
    assert demo["mode_dependent"]["max_rel_diff_vs_clean"] == ""
    assert float(demo["mode_dependent"]["mean_lhs"]) == pytest.approx(2.0, abs=0.01)
    assert float(demo["mode_dependent"]["clean_mean_lhs"]) == 4.0

    record = json.loads((outdir / "run.json").read_text(), parse_constant=_refuse_constant)
    assert record["peak"]["status"] == "ok"
    assert len(record["mds_demo"]) == 2
    assert record["mds_demo"][1]["max_rel_diff_vs_clean"] is None


@pytest.mark.parametrize("rho0_mm, sigma_um", [(2.0, 122.9), (math.inf, 0.0)])
def test_analytic_records_sigma_blur_next_to_the_peak(tmp_path, rho0_mm, sigma_um):
    outdir = tmp_path / "out"
    assert main(["analytic", "--rho0-mm", str(rho0_mm), "--out", str(outdir)]) == 0
    record = json.loads((outdir / "run.json").read_text())
    keys = list(record)
    assert keys[keys.index("peak") + 1] == "sigma_blur_m"
    assert record["sigma_blur_m"] * 1e6 == pytest.approx(sigma_um, abs=0.05)


def test_mds_demo_rows_shape():
    rows = mds_demo_rows(seed=7, matched_draws=500, random_draws=2000)
    assert rows[0]["case"] == "mode_independent"
    assert rows[0]["max_rel_diff_vs_clean"] < 1e-11
    assert rows[1]["mean_lhs"] == pytest.approx(2.0, abs=0.1)
    # No clean counterpart exists draw by draw: the cell is undefined, not NaN.
    assert rows[1]["max_rel_diff_vs_clean"] is None


def test_cli_imports_neither_numpy_nor_physics_or_statistics():
    # Records, rows and printed lines are formed in report.py; cli.py only
    # parses, calls and writes, so numpy, correlator and turbulence stay out.
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules.add(base)
            modules.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    banned = {m for m in modules
              if m.split(".")[0] == "numpy"
              or {"correlator", "turbulence"} & set(m.split("."))}
    assert modules and not banned, sorted(banned)


def test_commands_that_do_not_fork_import_neither_the_pool_nor_numpy_ma(tmp_path):
    # A fresh interpreter: this test process has imported these already.
    # numpy.ma comes with np.median and np.unique (1.2 MiB of RSS).
    script = (
        "import sys\n"
        "from ghost_turb.cli import main\n"
        f"assert main(['analytic', '--out', {str(tmp_path / 'analytic')!r}]) == 0\n"
        "assert main(['simulate', '--frames', '64', '--workers', '1', '--set', 'rho0=inf',\n"
        f"             '--out', {str(tmp_path / 'simulate')!r}]) in (0, 3)\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', 'numpy.ma')\n"
        "             if m in sys.modules))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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


@VACUUM_LIKE
def test_compare_of_coupled_and_detector_plane_screens_predicts_vacuum(tmp_path, setting):
    outdir = tmp_path / "out"
    assert main(_compare_args(outdir, extra=("--set", "rho0_sweep_mm=2",
                                              "--set", setting))) == 0
    (row,) = _read_csv(outdir / "compare.csv")
    assert row["rho0_mm"] == "2" and row["within_tolerance"] == "true"
    vacuum = tmp_path / "vacuum"
    assert main(_compare_args(vacuum)) == 0
    (expected,) = _read_csv(vacuum / "compare.csv")
    assert {**row, "rho0_mm": "inf"} == expected


def test_compare_refuses_a_bad_sweep_point_before_any_simulation(tmp_path, capsys,
                                                                  monkeypatch):
    # At 0.3 mm the turbulent blur makes the default lattice alias; the
    # vacuum point before it must not be simulated or printed.
    runs = []
    monkeypatch.setattr(cli, "run_simulation", runs.append)
    outdir = tmp_path / "out"
    assert main(["compare", "--set", "rho0_sweep_mm=inf,0.3", "--frames", "2048",
                 "--out", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert "aliases" in captured.err
    assert "rho0 " not in captured.out
    assert runs == []
    assert not outdir.exists()


def test_compare_insufficient_frames_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_compare_args(outdir, frames=3)) == 3
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


@pytest.mark.parametrize("setting, rho0", [({}, 2e-3), ({"paths_independent": "false"}, math.inf),
                                            ({"screen_fraction": "1"}, math.inf)])
def test_coherence_params_take_the_rho0_the_image_sees(setting, rho0):
    # The closed form of a run at rho0 = 2 mm is the vacuum image exactly
    # when the screens leave the image as in vacuum.
    setup = config_to_setup(load_config(None, {"rho0": "2e-3", **setting}))
    assert setup.model.rho0 == 2e-3
    assert setup.model.image_rho0 == rho0
    vacuum = config_to_setup(load_config(None, {"rho0": "inf", **setting}))
    image = predicted_ghost_image(setup)
    assert np.array_equal(image, predicted_ghost_image(vacuum)) == math.isinf(rho0)


def test_config_record_keeps_its_run_json_names():
    rec = load_config(None, {"rho0_sweep_mm": "2, inf"}).to_record()
    assert list(rec) == [
        "wavelength_m", "path_length_m", "source_diameter_m", "source_pitch_m",
        "source_power", "frames", "seed", "workers", "mask", "object_pixels",
        "object_pitch_m", "ref_pixels", "ref_pitch_m", "rho0_m", "rho0_origin",
        "rho0_sweep_m", "screen_fraction", "paths_independent", "compare_tolerance"]
    assert rec["rho0_m"] == "inf" and rec["rho0_origin"] == "vacuum"
    assert rec["rho0_sweep_m"] == [2e-3, "inf"]
    assert rec["wavelength_m"] == 780e-9 and rec["paths_independent"] is True


def test_sweep_parsing():
    rc = load_config(None, {"rho0_sweep_mm": "2, 5, 10, inf"})
    assert rc.rho0_sweep == (2e-3, 5e-3, 10e-3, math.inf)
    with pytest.raises(ValidationError, match="rho0_sweep_mm must be > 0"):
        load_config(None, {"rho0_sweep_mm": "-3"})


@pytest.mark.parametrize("word", ["INF", "Infinity", "vacuum"])
def test_rho0_and_sweep_take_every_vacuum_word(word):
    rc = load_config(None, {"rho0": word, "rho0_sweep_mm": f"2,, {word} ,"})
    assert rc.rho0 == math.inf and rc.rho0_origin == "explicit"
    assert rc.rho0_sweep == (2e-3, math.inf)


def _rho0_routes(tmp_path):
    """The coherence-length routes to cn2 = 1.5e-12 over the default 1.4 m path."""
    uniform = tmp_path / "uniform.txt"
    uniform.write_text("uniform 1.4 1.5e-12\n")
    row = tmp_path / "row.txt"
    row.write_text("0 1.4 1.5e-12\n")
    section = tmp_path / "section.cfg"
    section.write_text("[profile]\n0 1.4 1.5e-12\n")
    return {"cn2_uniform": (None, {"cn2": "1.5e-12"}),
            "cn2_profile_uniform": (None, {"cn2_profile": str(uniform)}),
            "cn2_profile_row": (None, {"cn2_profile": str(row)}),
            "section": (section, {}),
            "profile_key": (None, {"profile": "0 1.4 1.5e-12"})}


def test_every_rho0_route_gives_the_same_coherence_length(tmp_path):
    configs = {name: load_config(path, overrides)
               for name, (path, overrides) in _rho0_routes(tmp_path).items()}
    assert {name: rc.rho0_origin for name, rc in configs.items()} == {
        "cn2_uniform": "cn2_uniform", "cn2_profile_uniform": "cn2_profile",
        "cn2_profile_row": "cn2_profile", "section": "inline_profile",
        "profile_key": "inline_profile"}
    rho0 = configs["cn2_uniform"].rho0
    assert rho0 == pytest.approx(0.0497292, rel=1e-6)
    assert all(rc.rho0 == rho0 for rc in configs.values())


def test_profile_file_rows_read_like_inline_rows(tmp_path):
    # A cn2_profile file is split into lines like the profile key's text:
    # a CRLF line end and a '#' comment change nothing.
    path = tmp_path / "two_rows.txt"
    path.write_bytes(b"0.0 0.7 1.5e-12\r\n0.7 1.4 0.5e-12  # upper half\n")
    from_file = load_config(None, {"cn2_profile": str(path)})
    inline = load_config(None, {"profile": "0.0 0.7 1.5e-12\n0.7 1.4 0.5e-12"})
    profile = CnSquaredProfile(((0.0, 0.7, 1.5e-12), (0.7, 1.4, 0.5e-12)), 1.4)
    assert from_file.rho0_origin == "cn2_profile"
    assert from_file.rho0 == inline.rho0 == coherence_length(profile, from_file.wavelength)


@pytest.mark.parametrize("form", ["file", "section"])
def test_profile_shorter_than_the_path_exits_2(tmp_path, capsys, form):
    path = tmp_path / "short"
    if form == "file":
        path.write_text("0 1.3 1.5e-12\n")
        argv, key = ["--set", f"cn2_profile={path}"], "cn2_profile"
    else:
        path.write_text("[profile]\n0 1.3 1.5e-12\n")
        argv, key = ["--config", str(path)], "profile"
    assert main(["rho0", *argv]) == 2
    assert f"{key} covers 1.3 m but path_length is 1.4 m" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("rho0", "-1"), ("rho0", "0"), ("rho0", "abc"), ("rho0_sweep_mm", "2,-3"),
    ("rho0_sweep_mm", "2,x"), ("cn2", "abc"), ("rho0_sweep_mm", "-INF"),
])
def test_invalid_coherence_length_exits_2_and_names_its_key(capsys, key, value):
    assert main(["rho0", "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")


@pytest.mark.parametrize("key, value", [("wavelength", "-1"), ("path_length", "0"),
                                        ("source_power", "-1"), ("compare_tolerance", "0")])
def test_invalid_optics_exits_2_and_names_its_key(capsys, key, value):
    # One rule, errors.require_positive, so the error names the one bad key.
    assert main(["rho0", "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be finite and > 0, got {float(value)}")


@pytest.mark.parametrize("key, text, message", [
    ("cn2", "-1", "cn2: segment 0 has negative Cn2 = -1.0"),
    ("cn2", "abc", "cn2: expected a number, got 'abc'"),
    ("cn2_profile", "uniform -1 1e-12\n", "cn2_profile: path_length must be finite and > 0"),
    ("cn2_profile", None, "cn2_profile: [Errno 2] No such file or directory"),
    ("cn2_profile", "0 1.4\n", "cn2_profile: profile line 1 needs 3 columns"),
    ("cn2_profile", "# header\n\n0 0.7 1.5e-12\n0.7 1.4 abc\n",
     "cn2_profile: profile line 4: could not convert string to float: 'abc'"),
    ("profile", "0 1.4 -1", "profile: segment 0 has negative Cn2 = -1.0"),
], ids=["negative_cn2", "not_a_number", "negative_length", "missing_file", "two_columns",
        "line_after_comments", "inline"])
def test_invalid_profile_exits_2_and_names_its_key(tmp_path, capsys, key, text, message):
    # A profile's own error is prefixed once with the key that gave it; a
    # cn2_profile value is a file holding the text (None: no such file).
    value = text
    if key == "cn2_profile":
        value = tmp_path / "profile.txt"
        if text is not None:
            value.write_text(text)
    assert main(["rho0", "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_profile_section_error_names_the_line_in_the_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\n\n[profile]\n# lower half\n0 1.4\n")
    assert main(["rho0", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: profile: profile line 5 needs 3 columns")


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
    pgm.write_bytes(b"P5\n9 9\n255\n" + bytes(40) + b"\xff" + bytes(40))
    assert parse_mask(f"pgm:{pgm}", grid).transmissivity.sum() == 1.0
    black = tmp_path / "black.pgm"
    black.write_bytes(b"P5\n9 9\n255\n" + bytes(81))
    with pytest.raises(ConfigurationError, match="transmits nothing"):
        parse_mask(f"pgm:{black}", grid)
    small = tmp_path / "small.pgm"
    small.write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    with pytest.raises(ConfigurationError, match="does not match grid"):
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


def test_commands_run_blas_on_one_thread(tmp_path, monkeypatch):
    # The closed form's GEMMs run under the same one-thread pin as a
    # simulation, whatever the thread count was before the command.
    api = simulate._openblas()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, put = api
    seen = []

    def recording(setup):
        seen.append(get())
        return predicted_ghost_image(setup)

    monkeypatch.setattr(cli, "predicted_ghost_image", recording)
    before = get()
    put(2)
    try:
        assert main(["analytic", "--out", str(tmp_path / "out")]) == 0
        assert get() == 2
    finally:
        put(before)
    assert seen == [1]
