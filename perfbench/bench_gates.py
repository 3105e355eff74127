"""Correctness gates on the files one ghost_turb command writes.

A command's output directory is read once, right after the command, into
an Outcome.  Each gate takes outcomes and returns None when they pass or
a one-line reason when they do not, so a gate can be exercised on a
deliberately corrupted copy of real output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Phase-correction demo bounds, the same ones the acceptance battery uses:
# the mode-independent identity holds to rounding, and mode-dependent
# phases pull the mean two-photon sum from 4 to 2.
MDS_IDENTITY_TOL = 1e-12
MDS_SCRAMBLED_MEAN = 2.0
MDS_SCRAMBLED_TOL = 0.01
# The open-mask closed-form image is symmetric under x <-> y, because the
# subsource lattice, the object grid and the reference grid all are.
SYMMETRY_TOL = 1e-9


@dataclass
class Outcome:
    """What one command returned and wrote."""

    label: str
    command: str                 # "simulate" or "analytic"
    code: int
    wall_s: float = 0.0
    cpu_s: float = 0.0           # user + sys, this process and reaped children
    child_cpu_s: float = 0.0     # user + sys of reaped children alone
    error: str = ""
    digest: str = ""             # sha256 of ghost.csv / analytic.csv
    psf: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    image: np.ndarray | None = None     # analytic image, for the symmetry gate
    mds: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def peak_z(self) -> float:
        """Peak height over baseline in standard errors, 0 without a stderr."""
        try:
            height = float(self.psf["peak_value"]) - float(self.psf["baseline"])
            return height / float(self.psf["peak_stderr"])
        except (KeyError, ValueError, ZeroDivisionError):
            return 0.0


def image_name(command: str) -> str:
    return "ghost" if command == "simulate" else "analytic"


def psf_name(command: str) -> str:
    return "psf_metrics.csv" if command == "simulate" else "analytic_psf.csv"


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.reader(fh))


def collect(outcome: Outcome, outdir: Path) -> Outcome:
    """Fill an outcome from the files in a command's output directory."""
    if not outdir.is_dir():
        return outcome
    outcome.bytes_written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    image_csv = outdir / f"{image_name(outcome.command)}.csv"
    if image_csv.is_file():
        outcome.digest = hashlib.sha256(image_csv.read_bytes()).hexdigest()
    psf_csv = outdir / psf_name(outcome.command)
    if psf_csv.is_file():
        outcome.psf = {row[0]: row[1] for row in _read_rows(psf_csv)[1:] if len(row) == 2}
    if outcome.command == "analytic":
        if image_csv.is_file():
            values = np.array([float(row[2]) for row in _read_rows(image_csv)[1:]])
            side = math.isqrt(values.size)
            if side * side == values.size:
                outcome.image = values.reshape(side, side)
        mds_csv = outdir / "mds_demo.csv"
        if mds_csv.is_file():
            rows = _read_rows(mds_csv)
            outcome.mds = {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
    return outcome


def gate_detected(o: Outcome) -> str | None:
    """Exit code 0 and a detected, measured correlation peak."""
    if o.error:
        return f"{o.label}: command raised {o.error}"
    if o.code != 0:
        return f"{o.label}: exit code {o.code}"
    if o.psf.get("status") != "ok":
        return f"{o.label}: peak status {o.psf.get('status', 'missing')!r}"
    return None


def fwhm(o: Outcome) -> tuple[float, float]:
    return float(o.psf["fwhm_x_m"]), float(o.psf["fwhm_y_m"])


def gate_fwhm(o: Outcome, reference: tuple[float, float], tolerance: float) -> str | None:
    """Simulated FWHM within the program's compare_tolerance of the closed form."""
    try:
        sim = fwhm(o)
    except (KeyError, ValueError):
        return f"{o.label}: no FWHM in the peak metrics"
    err = max(abs(s - r) / r for s, r in zip(sim, reference))
    if not err <= tolerance:
        return (f"{o.label}: FWHM ({sim[0] * 1e6:.2f}, {sim[1] * 1e6:.2f}) um is {err:.3f} "
                f"from the closed form, tolerance {tolerance}")
    return None


def gate_same_image(o: Outcome, reference: Outcome) -> str | None:
    """Byte-identical image CSV to a reference command with the same seed."""
    if not o.digest or o.digest != reference.digest:
        return (f"{o.label}: {image_name(o.command)}.csv differs from {reference.label} "
                f"({o.digest[:12] or 'missing'} vs {reference.digest[:12] or 'missing'})")
    return None


def gate_analytic(o: Outcome) -> str | None:
    """Open-mask image symmetry and the phase-correction identity."""
    if o.image is None:
        return f"{o.label}: analytic.csv missing or not square"
    scale = float(np.max(np.abs(o.image)))
    asym = float(np.max(np.abs(o.image - o.image.T)))
    if not asym <= SYMMETRY_TOL * scale:
        return f"{o.label}: analytic image not x<->y symmetric ({asym:.3g} of {scale:.3g})"
    try:
        worst = float(o.mds["mode_independent"]["max_rel_diff_vs_clean"])
        mean = float(o.mds["mode_dependent"]["mean_lhs"])
    except (KeyError, ValueError):
        return f"{o.label}: mds_demo.csv missing rows"
    if not worst <= MDS_IDENTITY_TOL:
        return f"{o.label}: mode-independent phases do not cancel ({worst:.3g})"
    if not abs(mean - MDS_SCRAMBLED_MEAN) <= MDS_SCRAMBLED_TOL:
        return f"{o.label}: mode-dependent mean {mean:.5f}, expected {MDS_SCRAMBLED_MEAN}"
    return None
