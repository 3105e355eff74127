"""Report format of the four commands.

Pure functions from a run's RunConfig or RunSetup and its results to
the run.json records, CSV rows and console lines that the CLI writes.
None of them touches a file.  The names, order and content of every
record block, CSV row and printed line are decided here, once.
"""

from __future__ import annotations

import math
import platform

import numpy as np

from . import __version__
from .analytic import immunity_criterion
from .config import RunConfig
from .correlator import PsfMetrics, psf_metrics
from .errors import NoDetectionError
from .simulate import BATCH_FRAMES, RunSetup, SimulationOutput
from .turbulence import weighted_path_integral_for

# (psf CSV metric, run.json peak key or None for the CSV only, PsfMetrics field).
PSF_FIELDS = (
    ("peak_x_m", "x_m", "peak_x"),
    ("peak_y_m", "y_m", "peak_y"),
    ("peak_value", "value", "peak_value"),
    ("baseline", "baseline", "baseline"),
    ("fwhm_x_m", "fwhm_x_m", "fwhm_x"),
    ("fwhm_y_m", "fwhm_y_m", "fwhm_y"),
    ("second_moment_width_m", "second_moment_width_m", "second_moment_width"),
    ("peak_stderr", None, "peak_stderr"),
)
PSF_HEADER = ("metric", "value")
BRACKET_HEADER = ("separation_m", "pair_factor")
MDS_DEMO_HEADER = ("case", "draws", "max_rel_diff_vs_clean", "mean_lhs", "clean_mean_lhs")
COMPARE_HEADER = ("rho0_mm", "status", "fwhm_sim_x_m", "fwhm_sim_y_m", "fwhm_ana_x_m",
                  "fwhm_ana_y_m", "rel_err_x", "rel_err_y", "within_tolerance")


def base_record(command: str, rc: RunConfig) -> dict:
    return {
        "command": command,
        "config": rc.to_record(),
        "versions": {
            "ghost_turb": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def table_rows(header, records: list[dict]) -> list[list]:
    """One CSV row per record, its cells in header order; a missing key is None."""
    return [[record.get(key) for key in header] for record in records]


def _fmt_len(meters: float) -> str:
    if math.isinf(meters):
        return "inf"
    return f"{meters:.6g} m ({meters * 1e3:.4g} mm)"


def rho0_lines(rc: RunConfig) -> list[str]:
    """The rho0 command's report: coherence length, immunity margin and blur."""
    integral = weighted_path_integral_for(rc.rho0, rc.wavelength)
    # Coupled paths and a detector-plane screen leave the image as in vacuum.
    model = rc.turbulence()
    verdict = immunity_criterion(rc.source_diameter, model.image_rho0)
    state = "immune" if verdict.immune else "degraded"
    lines = [f"coherence length rho0 = {_fmt_len(rc.rho0)}  [{rc.rho0_origin}]",
             f"wavenumber k          = {rc.optical().wavenumber:.6g} rad/m",
             f"weighted path integral= {integral:.6g} m^(1/3)",
             f"source diameter       = {_fmt_len(rc.source_diameter)}",
             f"turbulence immunity   = {state} (rho0 / diameter = {verdict.margin:.4f})"]
    if model.tilt_std > 0.0:
        # A turbulent frame is the vacuum frame moved by a Gaussian random shift.
        sigma = model.blur_sigma(rc.optical())
        lines.append(f"sigma_blur            = {sigma * 1e6:.4g} um per axis "
                     "(sqrt(2) L / (k rho0))")
    return lines


def psf_rows(metrics: PsfMetrics | None, note: str = "") -> list[tuple]:
    """Peak metrics as metric,value rows; a status row comes first."""
    if metrics is None:
        return [("status", note or "no_detection")]
    values = ((name, getattr(metrics, attr)) for name, _, attr in PSF_FIELDS)
    return [("status", "ok"), *((name, v) for name, v in values if v is not None)]


def peak_report(stem: str, grid, image: np.ndarray,
                stderr: np.ndarray | None = None) -> tuple[list[tuple], dict, list[str]]:
    """An image's psf CSV rows, its run.json peak block and its console lines."""
    try:
        metrics = psf_metrics(image, grid, stderr=stderr)
    except NoDetectionError as exc:
        return psf_rows(None, note=str(exc)), {"status": "no_detection", "detail": str(exc)}, []
    peak = {"status": "ok", **{key: getattr(metrics, attr) for _, key, attr in PSF_FIELDS if key}}
    line = (f"{stem}: peak at ({metrics.peak_x * 1e6:.1f}, {metrics.peak_y * 1e6:.1f}) um, "
            f"fwhm ({metrics.fwhm_x * 1e6:.1f}, {metrics.fwhm_y * 1e6:.1f}) um")
    return psf_rows(metrics), peak, [line]


def simulate_report(rc: RunConfig, output: SimulationOutput) -> tuple[dict, dict, list[str]]:
    """simulate's run.json record, its CSV tables by file name and its console lines."""
    result = output.result
    rows, peak, lines = peak_report("ghost", result.grid, result.ghost, result.stderr)
    record = {**base_record("simulate", rc), "wall_time_s": output.wall_time_s,
              "batch_frames": BATCH_FRAMES, "blas_threads": output.blas_threads, "peak": peak}
    return (record, {"psf_metrics.csv": (PSF_HEADER, rows)},
            [f"simulated {result.frames} frames in {output.wall_time_s:.2f} s", *lines])


def analytic_report(rc: RunConfig, setup: RunSetup, image: np.ndarray,
                    demo: list[dict]) -> tuple[dict, dict, list[str]]:
    """analytic's run.json record, its CSV tables by file name and its console lines."""
    rows, peak, lines = peak_report("analytic", setup.ref_grid, image)
    record = {**base_record("analytic", rc), "peak": peak,
              "sigma_blur_m": setup.model.blur_sigma(setup.cfg), "mds_demo": demo}
    tables = {"analytic_psf.csv": (PSF_HEADER, rows),
              "bracket_curve.csv": (BRACKET_HEADER, bracket_curve(setup, rc.source_diameter)),
              "mds_demo.csv": (MDS_DEMO_HEADER, table_rows(MDS_DEMO_HEADER, demo))}
    return record, tables, lines


def bracket_curve(setup: RunSetup, diameter: float) -> list[tuple[float, float]]:
    """Pair coherence factor at 121 subsource separations, coincident detectors.

    At coincident detectors the bracket's cosine is 1, so the factor is
    1 + the pair weight.  The separations run from 0 to 3 rho0, or to
    the source diameter in vacuum.
    """
    rho0 = setup.model.image_rho0
    seps = np.linspace(0.0, 3.0 * rho0 if math.isfinite(rho0) else diameter, 121)
    return list(zip(seps.tolist(), (1.0 + setup.model.pair_weight(seps**2)).tolist()))


def compare_report(rc: RunConfig, rows: list[dict]) -> tuple[dict, dict, list[str]]:
    """compare's run.json record and CSV table from its sweep points' rows."""
    record = {**base_record("compare", rc),
              "comparison": {"tolerance": rc.compare_tolerance, "rows": rows}}
    return record, {"compare.csv": (COMPARE_HEADER, table_rows(COMPARE_HEADER, rows))}, []


def compare_point(setup: RunSetup, output: SimulationOutput, image: np.ndarray,
                  tolerance: float) -> tuple[dict, bool | None]:
    """A sweep point's compare row and whether it is within tolerance.

    An axis's error is |simulated - predicted| / predicted of its FWHM;
    the point is within tolerance when the larger error is.  Without a
    significant peak in either image the point is undecidable: None.
    """
    row = {"rho0_mm": f"{setup.model.rho0 * 1e3:g}"}
    try:
        sim = psf_metrics(output.result.ghost, output.result.grid, stderr=output.result.stderr)
        ana = psf_metrics(image, setup.ref_grid)
    except NoDetectionError as exc:
        return {**row, "status": "undecidable", "detail": str(exc)}, None
    ex = abs(sim.fwhm_x - ana.fwhm_x) / ana.fwhm_x
    ey = abs(sim.fwhm_y - ana.fwhm_y) / ana.fwhm_y
    within = max(ex, ey) <= tolerance
    values = ("ok", sim.fwhm_x, sim.fwhm_y, ana.fwhm_x, ana.fwhm_y, ex, ey, within)
    return {**row, **dict(zip(COMPARE_HEADER[1:], values))}, within


def compare_line(row: dict) -> str:
    """A compare row's console line; an undecidable one goes to stderr."""
    if row["status"] != "ok":
        return f"rho0 {row['rho0_mm']} mm: undecidable ({row['detail']}); add frames"
    sx, sy, ax, ay = (row[key] * 1e6 for key in COMPARE_HEADER[2:6])
    return (f"rho0 {row['rho0_mm']} mm: sim fwhm ({sx:.1f}, {sy:.1f}) um, predicted "
            f"({ax:.1f}, {ay:.1f}) um, rel err ({row['rel_err_x']:.3f}, {row['rel_err_y']:.3f})")
