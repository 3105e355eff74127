import math

import numpy as np
import pytest

from ghost_turb import report
from ghost_turb.cli import main
from ghost_turb.config import config_to_setup, load_config
from ghost_turb.correlator import GhostImageResult, PsfMetrics
from ghost_turb.io_formats import write_rows_csv
from ghost_turb.optics import Grid2D
from ghost_turb.report import PSF_FIELDS, PSF_HEADER, psf_rows
from ghost_turb.simulate import SimulationOutput


def test_psf_csv_rows(tmp_path):
    metrics = PsfMetrics(fwhm_x=1e-4, fwhm_y=1.1e-4, second_moment_width=9e-5,
                         peak_x=0.0, peak_y=1.2e-5, peak_value=3.5, baseline=0.5,
                         peak_stderr=0.01)
    path = tmp_path / "psf.csv"
    write_rows_csv(path, PSF_HEADER, psf_rows(metrics))
    rows = dict(line.split(",") for line in path.read_text().strip().splitlines()[1:])
    assert rows["status"] == "ok"
    assert float(rows["fwhm_x_m"]) == 1e-4
    assert float(rows["peak_stderr"]) == 0.01
    bare = PsfMetrics(fwhm_x=1e-4, fwhm_y=1e-4, second_moment_width=9e-5,
                      peak_x=0.0, peak_y=0.0, peak_value=1.0, baseline=0.0,
                      peak_stderr=None)
    write_rows_csv(path, PSF_HEADER, psf_rows(bare))
    assert "peak_stderr" not in path.read_text()


def test_psf_csv_no_detection(tmp_path):
    path = tmp_path / "psf.csv"
    write_rows_csv(path, PSF_HEADER, psf_rows(None, note="image is flat"))
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "status,image is flat"
    assert len(lines) == 2
    write_rows_csv(path, PSF_HEADER, psf_rows(None))
    assert path.read_text().strip().splitlines()[1] == "status,no_detection"


def _tent(grid: Grid2D, ix: int, iy: int, half_x: float, half_y: float) -> np.ndarray:
    """A separable tent at pixel (ix, iy); its sides are linear, so its FWHM is exact."""
    fx = np.clip(1.0 - np.abs(grid.x() - grid.x()[ix]) / half_x, 0.0, None)
    fy = np.clip(1.0 - np.abs(grid.y() - grid.y()[iy]) / half_y, 0.0, None)
    return np.outer(fy, fx)


def test_psf_rows_and_peak_block_agree_on_every_field():
    grid = Grid2D.centered(33, 33, 1e-5)
    image = 2.0 + _tent(grid, 16, 14, 8e-5, 6e-5)
    rows, peak, lines = report.peak_report("ghost", grid, image, np.full(image.shape, 1e-3))
    csv = dict(rows)
    assert csv["status"] == peak["status"] == "ok"
    for name, key, attr in PSF_FIELDS:
        assert name in csv, attr
        if key is not None:
            assert csv[name] == peak[key], attr
    assert csv["peak_stderr"] == 1e-3
    assert list(peak) == ["status", *(key for _, key, _ in PSF_FIELDS if key)]
    assert (csv["fwhm_x_m"], csv["fwhm_y_m"]) == pytest.approx((8e-5, 6e-5), rel=1e-12)
    assert lines == ["ghost: peak at (0.0, -20.0) um, fwhm (80.0, 60.0) um"]


def test_peak_report_without_a_peak():
    grid = Grid2D.centered(9, 9, 1e-5)
    rows, peak, lines = report.peak_report("analytic", grid, np.ones((9, 9)))
    assert peak["status"] == "no_detection" and "no unique maximum" in peak["detail"]
    assert rows == [("status", peak["detail"])]
    assert lines == []


@pytest.mark.parametrize("rho0", [49.73e-3, 2e-3])
def test_bracket_curve_is_one_plus_the_pair_weight_out_to_three_rho0(rho0):
    rc = load_config(None, {"rho0": repr(rho0)})
    seps, values = np.array(report.bracket_curve(config_to_setup(rc), rc.source_diameter)).T
    assert seps.size == 121 and seps[0] == 0.0
    assert seps[-1] == pytest.approx(3.0 * rho0, rel=1e-15)
    assert values == pytest.approx(1.0 + np.exp(-seps**2 / rho0**2), rel=1e-12)


def test_bracket_curve_in_vacuum_ends_at_the_diameter():
    rc = load_config(None, {"rho0": "inf"})
    seps, values = np.array(report.bracket_curve(config_to_setup(rc), rc.source_diameter)).T
    assert seps.size == 121 and seps[-1] == rc.source_diameter
    assert np.all(values == 2.0)


def _compare(sim_fwhm, ana_fwhm, tolerance, stderr=1e-3):
    setup = config_to_setup(load_config(None, {"rho0": "0.005"}))
    grid = setup.ref_grid
    ghost = _tent(grid, 32, 32, *sim_fwhm)
    result = GhostImageResult(grid=grid, ghost=ghost, background=np.zeros_like(ghost),
                              stderr=np.full(ghost.shape, stderr), frames=100)
    output = SimulationOutput(result=result, wall_time_s=0.0)
    return report.compare_point(setup, output, _tent(grid, 32, 32, *ana_fwhm), tolerance)


@pytest.mark.parametrize("tolerance, expected", [(0.09, True), (0.07, False)])
def test_compare_point_relative_errors_against_the_tolerance(tolerance, expected):
    row, within = _compare((108e-6, 96e-6), (100e-6, 100e-6), tolerance)
    assert within is expected and row["within_tolerance"] is expected
    assert row["rho0_mm"] == "5" and row["status"] == "ok"
    assert row["rel_err_x"] == pytest.approx(0.08, rel=1e-9)
    assert row["rel_err_y"] == pytest.approx(0.04, rel=1e-9)
    assert (row["fwhm_sim_x_m"], row["fwhm_ana_y_m"]) == pytest.approx((108e-6, 100e-6))
    assert set(row) == set(report.COMPARE_HEADER)
    assert report.compare_line(row) == ("rho0 5 mm: sim fwhm (108.0, 96.0) um, predicted "
                                        "(100.0, 100.0) um, rel err (0.080, 0.040)")


def test_compare_point_without_a_significant_peak_is_undecidable():
    row, within = _compare((100e-6, 100e-6), (100e-6, 100e-6), 0.1, stderr=1.0)
    assert within is None
    assert row["status"] == "undecidable" and "washed out" in row["detail"]
    assert report.compare_line(row).startswith("rho0 5 mm: undecidable (peak height")
    assert report.table_rows(report.COMPARE_HEADER, [row])[0][2:] == [None] * 7


@pytest.mark.parametrize("overrides, argv", [
    ({"cn2": "1.5e-12"}, ["--set", "cn2=1.5e-12"]),
    ({"rho0": repr(2e-3)}, ["--rho0-mm", "2"]),
    ({"rho0": "inf"}, ["--set", "rho0=inf"]),
], ids=["nominal", "2mm", "vacuum"])
def test_rho0_lines_are_the_rho0_command_output(capsys, overrides, argv):
    assert main(["rho0", *argv]) == 0
    expected = capsys.readouterr().out
    assert "\n".join(report.rho0_lines(load_config(None, overrides))) + "\n" == expected


def test_base_record_blocks():
    rc = load_config(None, {})
    record = report.base_record("analytic", rc)
    assert list(record) == ["command", "config", "versions"]
    assert record["command"] == "analytic" and record["config"] == rc.to_record()
    assert list(record["versions"]) == ["ghost_turb", "numpy", "python"]
    assert math.isinf(rc.rho0) and record["config"]["rho0_m"] == "inf"
