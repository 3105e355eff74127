"""Command line front end.

Subcommands:
  rho0      compute the path coherence length and immunity margin
  simulate  run the frame-by-frame estimator and write image products
  analytic  closed-form ghost image, pair-factor curve, and phase demo
  compare   simulated vs predicted peak widths over a coherence sweep

The CLI parses arguments into a RunConfig, calls the library, writes
the files and maps exceptions to exit codes.  Every run.json record,
CSV row and printed line it writes comes from report.py.

Exit codes: 0 success, 1 comparison outside tolerance, 2 bad
configuration or inputs, or an OS error on an input or output path,
3 result undecidable (no significant peak or not enough frames).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, report
from .analytic import mds_demo_rows, predicted_ghost_image
from .config import RunConfig, config_to_setup, load_config
from .errors import (ConfigurationError, InsufficientDataError, NoDetectionError,
                     ValidationError)
from .io_formats import write_map_csv, write_pgm16, write_rows_csv, write_run_json
from .simulate import one_blas_thread, run_simulation

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


def _check_outdir(rc: RunConfig) -> Path:
    """The output path; refused, before any work, if it cannot be a directory.

    It is refused at or under an existing file, and when a directory it
    would create has a name longer than the file system of its nearest
    existing ancestor allows.  A missing parent hides such a name from
    the stat of the whole path, which fails at the parent.
    """
    path = Path(rc.out_dir)
    missing = []
    for part in (path, *path.parents):
        if part.exists():
            break
        missing.append(part)
    if not part.is_dir():
        raise ConfigurationError(f"output path {part} exists and is not a directory")
    limit = os.pathconf(part, "PC_NAME_MAX")
    for new in missing:
        size = len(os.fsencode(new.name))
        if size > limit:
            raise ConfigurationError(
                f"output path {new} has a name of {size} bytes, more than the {limit} "
                f"that the file system of {part} allows")
    return path


def cmd_rho0(args) -> int:
    print("\n".join(report.rho0_lines(_load(args))))
    return EXIT_OK


def _write_report(outdir: Path, record: dict, tables: dict, lines: list[str]) -> dict:
    """Write a command's CSV tables and run.json, print its lines; return the record."""
    for name, (header, rows) in tables.items():
        write_rows_csv(outdir / name, header, rows)
    write_run_json(outdir / "run.json", record)
    print("\n".join([*lines, f"outputs written to {outdir}"]))
    return record


def cmd_simulate(args) -> int:
    rc = _load(args)
    outdir = _check_outdir(rc)
    output = run_simulation(config_to_setup(rc))
    result = output.result
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, values in (("ghost", result.ghost), ("stderr", result.stderr)):
        write_pgm16(outdir / f"{stem}.pgm", values)
        write_map_csv(outdir / f"{stem}.csv", result.grid, values, value_name=stem)
    write_pgm16(outdir / "background.pgm", result.background)
    record = _write_report(outdir, *report.simulate_report(rc, output))
    if record["peak"]["status"] != "ok":
        print("no significant correlation peak detected; add frames", file=sys.stderr)
        return EXIT_UNDECIDABLE
    return EXIT_OK


def cmd_analytic(args) -> int:
    rc = _load(args)
    outdir = _check_outdir(rc)
    setup = config_to_setup(rc)
    image = predicted_ghost_image(setup)
    demo = mds_demo_rows(seed=rc.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm16(outdir / "analytic.pgm", image)
    write_map_csv(outdir / "analytic.csv", setup.ref_grid, image, value_name="analytic")
    record = _write_report(outdir, *report.analytic_report(rc, setup, image, demo))
    return EXIT_OK if record["peak"]["status"] == "ok" else EXIT_UNDECIDABLE


def cmd_compare(args) -> int:
    rc = _load(args)
    outdir = _check_outdir(rc)
    rows = []
    status = EXIT_OK
    # Every point's setup first, so a bad point fails before any simulation.
    setups = [config_to_setup(replace(rc, rho0=rho0, rho0_origin="sweep", rho0_sweep=()))
              for rho0 in rc.rho0_sweep or (rc.rho0,)]
    for setup in setups:
        row, within = report.compare_point(setup, run_simulation(setup),
                                           predicted_ghost_image(setup), rc.compare_tolerance)
        rows.append(row)
        print(report.compare_line(row), file=sys.stderr if within is None else sys.stdout)
        if within is None:
            status = EXIT_UNDECIDABLE
        elif not within and status == EXIT_OK:
            status = EXIT_TOLERANCE
    if status == EXIT_TOLERANCE:
        print("simulated and predicted widths disagree beyond tolerance", file=sys.stderr)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_report(outdir, *report.compare_report(rc, rows))
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
        # The closed form's GEMMs are small: on more threads they would
        # only leave idle BLAS threads spinning.
        with one_blas_thread():
            return args.func(args)
    except (ConfigurationError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoDetectionError, InsufficientDataError) as exc:
        print(f"undecidable: {exc}; add frames", file=sys.stderr)
        return EXIT_UNDECIDABLE


if __name__ == "__main__":
    sys.exit(main())
