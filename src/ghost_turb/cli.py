"""Command line front end.

Subcommands:
  rho0      compute the path coherence length and immunity margin
  simulate  run the frame-by-frame estimator and write image products
  analytic  closed-form ghost image, pair-factor curve, and phase demo
  compare   simulated vs predicted peak widths over a coherence sweep

Exit codes: 0 success, 1 comparison outside tolerance, 2 bad
configuration or inputs, 3 result undecidable (no significant peak or
not enough frames).
"""

from __future__ import annotations

import argparse
import csv
import math
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (TwoPhotonPhases, corrected_mds_lhs, immunity_criterion,
                       pair_coherence_factor, predicted_ghost_image,
                       turbulence_free_lhs)
from .config import RunConfig, config_to_setup, load_config, parse_mask
from .correlator import PsfMetrics, psf_metrics
from .errors import (ConfigurationError, InsufficientDataError, NoDetectionError,
                     ValidationError)
from .io_formats import FLOAT_FMT, write_map_csv, write_pgm16, write_psf_csv, write_run_json
from .simulate import BATCH_FRAMES, run_simulation
from .turbulence import PHASE_STRUCTURE_COEFF

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_UNDECIDABLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="key=value config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="sets", help="override one config key (repeatable)")
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--rho0-mm", type=float, default=None,
                        help="coherence length in millimeters (overrides cn2 keys)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: out_dir key, ghost_out)")


def _overrides(args) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in args.sets:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    if args.frames is not None:
        out["frames"] = str(args.frames)
    if args.seed is not None:
        out["seed"] = str(args.seed)
    if args.workers is not None:
        out["workers"] = str(args.workers)
    if args.rho0_mm is not None:
        out["rho0"] = repr(args.rho0_mm * 1e-3)
    if args.out is not None:
        out["out_dir"] = args.out
    return out


def _load(args) -> RunConfig:
    return load_config(args.config, _overrides(args))


def _outdir(rc: RunConfig) -> Path:
    path = Path(rc.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt_len(meters: float) -> str:
    if math.isinf(meters):
        return "inf"
    return f"{meters:.6g} m ({meters * 1e3:.4g} mm)"


def _base_record(command: str, rc: RunConfig) -> dict:
    return {
        "command": command,
        "config": rc.to_record(),
        "versions": {
            "ghost_turb": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def cmd_rho0(args) -> int:
    rc = _load(args)
    k = 2.0 * math.pi / rc.wavelength
    if math.isinf(rc.rho0):
        integral = 0.0
    else:
        integral = rc.rho0 ** (-5.0 / 3.0) / (PHASE_STRUCTURE_COEFF * k * k)
    verdict = immunity_criterion(rc.source_diameter, rc.rho0)
    print(f"coherence length rho0 = {_fmt_len(rc.rho0)}  [{rc.rho0_origin}]")
    print(f"wavenumber k          = {k:.6g} rad/m")
    print(f"weighted path integral= {integral:.6g} m^(1/3)")
    print(f"source diameter       = {_fmt_len(rc.source_diameter)}")
    margin = "inf" if math.isinf(verdict.margin) else f"{verdict.margin:.4f}"
    state = "immune" if verdict.immune else "degraded"
    print(f"turbulence immunity   = {state} (rho0 / diameter = {margin})")
    return EXIT_OK


def _peak_record(metrics: PsfMetrics) -> dict:
    return {
        "status": "ok",
        "x_m": metrics.peak_x,
        "y_m": metrics.peak_y,
        "value": metrics.peak_value,
        "baseline": metrics.baseline,
        "fwhm_x_m": metrics.fwhm_x,
        "fwhm_y_m": metrics.fwhm_y,
        "second_moment_width_m": metrics.second_moment_width,
    }


def _image_products(outdir: Path, stem: str, grid, image: np.ndarray,
                    stderr: np.ndarray | None, psf_name: str | None = None) -> dict:
    write_pgm16(outdir / f"{stem}.pgm", image)
    write_map_csv(outdir / f"{stem}.csv", grid, image, value_name=stem)
    psf_path = outdir / (psf_name or f"{stem}_psf.csv")
    try:
        metrics = psf_metrics(image, grid, stderr=stderr)
    except NoDetectionError as exc:
        write_psf_csv(psf_path, None, note=str(exc))
        return {"peak": {"status": "no_detection", "detail": str(exc)}}
    write_psf_csv(psf_path, metrics)
    print(f"{stem}: peak at ({metrics.peak_x * 1e6:.1f}, {metrics.peak_y * 1e6:.1f}) um, "
          f"fwhm ({metrics.fwhm_x * 1e6:.1f}, {metrics.fwhm_y * 1e6:.1f}) um")
    return {"peak": _peak_record(metrics)}


def cmd_simulate(args) -> int:
    rc = _load(args)
    outdir = _outdir(rc)
    setup = config_to_setup(rc)
    output = run_simulation(setup)
    result = output.result
    record = _base_record("simulate", rc)
    record["wall_time_s"] = output.wall_time_s
    record["batch_frames"] = BATCH_FRAMES
    record["blas_threads"] = output.blas_threads
    print(f"simulated {result.frames} frames in {output.wall_time_s:.2f} s")
    record.update(_image_products(outdir, "ghost", result.grid, result.ghost,
                                  result.stderr, psf_name="psf_metrics.csv"))
    write_pgm16(outdir / "background.pgm", result.background)
    write_pgm16(outdir / "stderr.pgm", result.stderr)
    write_map_csv(outdir / "stderr.csv", result.grid, result.stderr, value_name="stderr")
    write_run_json(outdir / "run.json", record)
    print(f"outputs written to {outdir}")
    if record["peak"]["status"] != "ok":
        print("no significant correlation peak detected; add frames", file=sys.stderr)
        return EXIT_UNDECIDABLE
    return EXIT_OK


def analytic_ghost_image(rc: RunConfig) -> np.ndarray:
    """Closed-form covariance image for the configured mask and grids."""
    obj_grid = rc.object_grid()
    mask = parse_mask(rc.mask, obj_grid)
    sources = rc.subsources()
    params = rc.coherence_params()
    ref_grid = rc.reference_grid()
    points = obj_grid.points()
    total = np.zeros((ref_grid.ny, ref_grid.nx))
    weights = mask.transmissivity
    for iy, ix in zip(*np.nonzero(weights > 0.0)):
        rho_b = (float(points[iy, ix, 0]), float(points[iy, ix, 1]))
        total += weights[iy, ix] * predicted_ghost_image(ref_grid, rho_b, sources, params)
    return total


def _write_bracket_curve(path: Path, rc: RunConfig) -> None:
    """Pair coherence factor vs subsource separation, coincident detectors."""
    params = rc.coherence_params()
    top = 3.0 * rc.rho0 if math.isfinite(rc.rho0) else rc.source_diameter
    seps = np.linspace(0.0, top, 121)
    zero = (0.0, 0.0)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["separation_m", "pair_factor"])
        for r in seps:
            value = pair_coherence_factor(zero, zero, (r / 2.0, 0.0),
                                          (-r / 2.0, 0.0), params)
            writer.writerow([FLOAT_FMT % r, FLOAT_FMT % float(value)])


def mds_demo_rows(seed: int = 20260815, matched_draws: int = 10_000,
                  random_draws: int = 1_000_000) -> list[dict]:
    """Worst-case and mean behavior of the corrected two-photon sum.

    Row one: detector phase noise common to both interfering terms
    (mode-independent) cancels, so the corrected value tracks the
    noise-free one draw by draw.  Row two: mode-dependent phase noise
    destroys the interference, pulling the mean from 4 to 2 at unit
    magnitudes and zero geometric phases.
    """
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.1, 2.0, size=(4, matched_draws))
    geos = rng.uniform(0.0, 2.0 * math.pi, size=(4, matched_draws))
    common1, common2 = rng.uniform(0.0, 2.0 * math.pi, size=(2, matched_draws))
    matched = TwoPhotonPhases(
        mag1_a=mags[0], mag1_b=mags[1], mag2_a=mags[2], mag2_b=mags[3],
        geo1_a=geos[0], geo1_b=geos[1], geo2_a=geos[2], geo2_b=geos[3],
        turb1_a=common1, turb1_b=common1, turb2_a=common2, turb2_b=common2)
    corrected = corrected_mds_lhs(matched)
    clean = turbulence_free_lhs(matched)
    worst = float(np.max(np.abs(corrected - clean) / clean))

    ones = np.ones(random_draws)
    zeros = np.zeros(random_draws)
    turb = rng.uniform(0.0, 2.0 * math.pi, size=(4, random_draws))
    scrambled = TwoPhotonPhases(
        mag1_a=ones, mag1_b=ones, mag2_a=ones, mag2_b=ones,
        geo1_a=zeros, geo1_b=zeros, geo2_a=zeros, geo2_b=zeros,
        turb1_a=turb[0], turb1_b=turb[1], turb2_a=turb[2], turb2_b=turb[3])
    mean_scrambled = float(np.mean(corrected_mds_lhs(scrambled)))

    return [
        {"case": "mode_independent", "draws": matched_draws,
         "max_rel_diff_vs_clean": worst, "mean_lhs": float(np.mean(corrected)),
         "clean_mean_lhs": float(np.mean(clean))},
        {"case": "mode_dependent", "draws": random_draws,
         "max_rel_diff_vs_clean": float("nan"), "mean_lhs": mean_scrambled,
         "clean_mean_lhs": 4.0},
    ]


def _write_mds_demo(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "draws", "max_rel_diff_vs_clean", "mean_lhs",
                         "clean_mean_lhs"])
        for row in rows:
            writer.writerow([row["case"], row["draws"],
                             FLOAT_FMT % row["max_rel_diff_vs_clean"],
                             FLOAT_FMT % row["mean_lhs"],
                             FLOAT_FMT % row["clean_mean_lhs"]])


def cmd_analytic(args) -> int:
    rc = _load(args)
    outdir = _outdir(rc)
    image = analytic_ghost_image(rc)
    record = _base_record("analytic", rc)
    record.update(_image_products(outdir, "analytic", rc.reference_grid(), image, None))
    _write_bracket_curve(outdir / "bracket_curve.csv", rc)
    rows = mds_demo_rows(seed=rc.seed)
    _write_mds_demo(outdir / "mds_demo.csv", rows)
    record["mds_demo"] = rows
    write_run_json(outdir / "run.json", record)
    print(f"outputs written to {outdir}")
    if record["peak"]["status"] != "ok":
        return EXIT_UNDECIDABLE
    return EXIT_OK


def _sweep_values(rc: RunConfig) -> tuple[float, ...]:
    return rc.rho0_sweep if rc.rho0_sweep else (rc.rho0,)


def _axis_rel_err(sim: PsfMetrics, ana: PsfMetrics) -> tuple[float, float]:
    ex = abs(sim.fwhm_x - ana.fwhm_x) / ana.fwhm_x
    ey = abs(sim.fwhm_y - ana.fwhm_y) / ana.fwhm_y
    return ex, ey


def cmd_compare(args) -> int:
    rc = _load(args)
    outdir = _outdir(rc)
    record = _base_record("compare", rc)
    rows = []
    status = EXIT_OK
    for rho0 in _sweep_values(rc):
        rc_point = replace(rc, rho0=rho0, rho0_origin="sweep", rho0_sweep=())
        label = "inf" if math.isinf(rho0) else f"{rho0 * 1e3:g}"
        row: dict = {"rho0_mm": label}
        try:
            output = run_simulation(config_to_setup(rc_point))
            sim = psf_metrics(output.result.ghost, output.result.grid,
                              stderr=output.result.stderr)
            ana = psf_metrics(analytic_ghost_image(rc_point), rc_point.reference_grid())
        except (NoDetectionError, InsufficientDataError) as exc:
            row.update(status="undecidable", detail=str(exc))
            print(f"rho0 {label} mm: undecidable ({exc}); add frames", file=sys.stderr)
            status = EXIT_UNDECIDABLE
            rows.append(row)
            continue
        ex, ey = _axis_rel_err(sim, ana)
        within = max(ex, ey) <= rc.compare_tolerance
        row.update(status="ok",
                   fwhm_sim_x_m=sim.fwhm_x, fwhm_sim_y_m=sim.fwhm_y,
                   fwhm_ana_x_m=ana.fwhm_x, fwhm_ana_y_m=ana.fwhm_y,
                   rel_err_x=ex, rel_err_y=ey, within_tolerance=within)
        print(f"rho0 {label} mm: sim fwhm ({sim.fwhm_x * 1e6:.1f}, {sim.fwhm_y * 1e6:.1f}) um, "
              f"predicted ({ana.fwhm_x * 1e6:.1f}, {ana.fwhm_y * 1e6:.1f}) um, "
              f"rel err ({ex:.3f}, {ey:.3f})")
        if not within and status == EXIT_OK:
            status = EXIT_TOLERANCE
        rows.append(row)
    with open(outdir / "compare.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho0_mm", "status", "fwhm_sim_x_m", "fwhm_sim_y_m",
                         "fwhm_ana_x_m", "fwhm_ana_y_m", "rel_err_x", "rel_err_y",
                         "within_tolerance"])
        for row in rows:
            if row["status"] != "ok":
                writer.writerow([row["rho0_mm"], row["status"], "", "", "", "", "", "", ""])
                continue
            writer.writerow([
                row["rho0_mm"], row["status"],
                FLOAT_FMT % row["fwhm_sim_x_m"], FLOAT_FMT % row["fwhm_sim_y_m"],
                FLOAT_FMT % row["fwhm_ana_x_m"], FLOAT_FMT % row["fwhm_ana_y_m"],
                FLOAT_FMT % row["rel_err_x"], FLOAT_FMT % row["rel_err_y"],
                str(row["within_tolerance"]).lower()])
    record["comparison"] = {"tolerance": rc.compare_tolerance, "rows": rows}
    write_run_json(outdir / "run.json", record)
    if status == EXIT_TOLERANCE:
        print("simulated and predicted widths disagree beyond tolerance", file=sys.stderr)
    print(f"outputs written to {outdir}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghost-turb",
        description="Lensless pseudothermal ghost imaging through turbulence: "
                    "simulation and closed-form analysis.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("rho0", cmd_rho0, "coherence length and immunity margin"),
            ("simulate", cmd_simulate, "Monte Carlo ghost image"),
            ("analytic", cmd_analytic, "closed-form ghost image and demos"),
            ("compare", cmd_compare, "simulated vs predicted widths per rho0")):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoDetectionError, InsufficientDataError) as exc:
        print(f"undecidable: {exc}; add frames", file=sys.stderr)
        return EXIT_UNDECIDABLE


if __name__ == "__main__":
    sys.exit(main())
