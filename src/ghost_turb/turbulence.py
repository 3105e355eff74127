"""Turbulence strength profiles, transverse coherence length, screen tilts.

The coherence length of a spherical wave launched at z = 0 and observed
at z = L through refractive-index turbulence Cn2(z) is

    rho0 = (2.91 k^2 integral_0^L Cn2(z) (1 - z/L)^(5/3) dz)^(-3/5)

with k the optical wavenumber.  A phase screen is a Gaussian random
field whose phase structure function is exactly the square law
D_phi(r) = 2 r^2 / rho0^2, the one behind the closed form's pair weight
exp(-r^2 / rho0^2).  Such a field is affine: a piston, which cancels in
every intensity, plus a random tilt g . rho with g ~ N(0, (2 / rho0^2) I_2).
So a screen is two numbers per frame, TurbulenceModel.tilt_std times two
standard normals.

What that does to the image: a tilt moves the reference speckle rigidly
by g L / k, so a turbulent frame is the vacuum frame moved by a Gaussian
random shift of standard deviation sigma_blur = sqrt(2) L / (k rho0) per
axis (TurbulenceModel.blur_sigma), and the ghost image is the vacuum
image blurred by that Gaussian.  The closed form's pair weight
exp(-|d|^2 / rho0^2) (TurbulenceModel.pair_weight) is that blur's
Fourier transform, taken at the spatial frequency k d / L of the
subsource difference d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigurationError, ValidationError, require_length, require_positive

if TYPE_CHECKING:
    from .optics import OpticalConfig

# Path-weighting coefficient of the spherical-wave phase structure
# function for Kolmogorov-strength turbulence.
PHASE_STRUCTURE_COEFF = 2.91


@dataclass(frozen=True)
class CnSquaredProfile:
    """Piecewise-constant Cn2(z) over [0, path_length].

    segments is a tuple of (z_start, z_end, cn2) in meters and m^(-2/3);
    segments must tile [0, path_length] contiguously in order.
    """

    segments: tuple[tuple[float, float, float], ...]
    path_length: float

    def __post_init__(self):
        require_positive("path_length", self.path_length)
        if len(self.segments) == 0:
            raise ValidationError("profile needs at least one segment")
        tol = 1e-9 * self.path_length
        prev_end = 0.0
        for i, (z0, z1, v) in enumerate(self.segments):
            if not all(math.isfinite(u) for u in (z0, z1, v)):
                raise ValidationError(f"segment {i} has non-finite entries: {(z0, z1, v)}")
            if v < 0:
                raise ValidationError(f"segment {i} has negative Cn2 = {v}")
            if z1 <= z0:
                raise ValidationError(f"segment {i} has z_end <= z_start: {(z0, z1)}")
            if abs(z0 - prev_end) > tol:
                raise ValidationError(
                    f"segment {i} starts at {z0} but the previous one ends at {prev_end}; "
                    "segments must tile the path contiguously"
                )
            prev_end = z1
        if abs(prev_end - self.path_length) > tol:
            raise ValidationError(
                f"last segment ends at {prev_end}, not at path_length {self.path_length}"
            )

    @classmethod
    def uniform(cls, path_length: float, cn2: float) -> "CnSquaredProfile":
        return cls(segments=((0.0, float(path_length), float(cn2)),),
                   path_length=float(path_length))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "CnSquaredProfile":
        """Parse profile text: either one 'uniform L cn2' line, read as the
        row '0 L cn2', or rows of 'z_start z_end cn2'.  '#' starts a
        comment, blank lines ignored.  An error names a row by its line
        number in lines, comment and blank lines counted."""
        rows = []
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((lineno, text.split()))
        if not rows:
            raise ConfigurationError("profile text contains no data lines")
        if rows[0][1][0].lower() == "uniform":
            if len(rows) != 1 or len(rows[0][1]) != 3:
                raise ConfigurationError(
                    "a 'uniform' profile must be a single line: uniform <path_length> <cn2>"
                )
            rows[0][1][0] = "0"
        segments = []
        for lineno, row in rows:
            if len(row) != 3:
                raise ConfigurationError(
                    f"profile line {lineno} needs 3 columns (z_start z_end cn2), got {len(row)}"
                )
            try:
                segments.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ConfigurationError(f"profile line {lineno}: {exc}")
        return cls(segments=tuple(segments), path_length=segments[-1][1])


def weighted_path_integral(profile: CnSquaredProfile) -> float:
    """integral_0^L Cn2(z) (1 - z/L)^(5/3) dz, exactly per segment.

    Uses the closed-form antiderivative of (1 - z/L)^(5/3) on each
    constant segment, so piecewise profiles carry no quadrature error.
    """
    length = profile.path_length
    total = 0.0
    for z0, z1, v in profile.segments:
        u0 = max(0.0, 1.0 - z0 / length)
        u1 = max(0.0, 1.0 - z1 / length)
        total += v * (3.0 * length / 8.0) * (u0 ** (8.0 / 3.0) - u1 ** (8.0 / 3.0))
    return total


def _law_coefficient(wavelength: float) -> float:
    """2.91 k^2, the rho0 law's coefficient: rho0 = (2.91 k^2 integral)^(-3/5)."""
    require_positive("wavelength", wavelength)
    k = 2.0 * math.pi / wavelength
    return PHASE_STRUCTURE_COEFF * k * k


def coherence_length(profile: CnSquaredProfile, wavelength: float) -> float:
    """Source-plane transverse coherence length rho0 in meters.

    Returns math.inf when the weighted integral vanishes (no turbulence).
    """
    coeff = _law_coefficient(wavelength)
    integral = weighted_path_integral(profile)
    if integral == 0.0:
        return math.inf
    return (coeff * integral) ** (-3.0 / 5.0)


def weighted_path_integral_for(rho0: float, wavelength: float) -> float:
    """The weighted path integral that coherence_length maps to rho0.

    The inverse of the rho0 law, rho0^(-5/3) / (2.91 k^2) in m^(1/3);
    0.0 for rho0 = math.inf (no turbulence).
    """
    coeff = _law_coefficient(wavelength)
    require_length("rho0", rho0)
    return rho0 ** (-5.0 / 3.0) / coeff


@dataclass(frozen=True)
class TurbulenceModel:
    """Coherence length plus screen placement for a simulated path.

    rho0 is the transverse coherence length in meters (math.inf means no
    turbulence).  screen_position_fraction places the thin screen at
    one of two planes: 0 at the source plane, where rho0 acts, or 1 at
    the detector plane, where a screen leaves every intensity unchanged.
    Nothing in between: rho0 already weights turbulence along the path
    by (1 - z/L)^(5/3).  paths_independent says whether the bucket and
    reference paths see independent source-plane turbulence each frame
    (true) or one shared screen (false).  A shared source-plane screen
    multiplies every subsource amplitude of both paths by the same unit
    phase, which leaves the circular Gaussian law of the amplitudes
    unchanged, so such a run is a vacuum run.
    """

    rho0: float
    screen_position_fraction: float = 0.0
    paths_independent: bool = True

    def __post_init__(self):
        require_length("rho0", self.rho0)
        f = self.screen_position_fraction
        if f not in (0.0, 1.0):
            raise ValidationError(
                f"screen_position_fraction must be 0 (source plane) or 1 (detector plane), "
                f"got {f}")

    @property
    def image_rho0(self) -> float:
        """The coherence length the ghost image sees.

        rho0 for independent source-plane screens; math.inf for a shared
        source-plane screen or a detector-plane one, which leave the law
        of every intensity as in vacuum.
        """
        if self.screen_position_fraction == 0.0 and self.paths_independent:
            return self.rho0
        return math.inf

    def pair_weight(self, r2: np.ndarray) -> np.ndarray:
        """exp(-r2 / image_rho0^2), the closed form's weight of a subsource pair.

        r2 holds squared subsource separations |rho_m - rho_m'|^2.  The
        weight is the Fourier transform of the blur of blur_sigma, and
        exactly 1 when the image sees no turbulence (r2 / inf = 0).
        """
        return np.exp(-r2 / self.image_rho0**2)

    @property
    def tilt_std(self) -> float:
        """Standard deviation, in rad/m, of each component of a frame's screen tilt.

        The relative screen of two independent source-plane paths has
        the square-law structure function 2 r^2 / rho0^2, so it is a
        piston, which no intensity sees, plus a tilt g . rho with
        g ~ N(0, tilt_std^2 I_2): tilt_std = sqrt(2) / image_rho0, and
        0.0 when the image sees no turbulence.
        """
        return math.sqrt(2.0) / self.image_rho0

    def blur_sigma(self, cfg: OpticalConfig) -> float:
        """Standard deviation, in meters per axis, of a turbulent frame's random shift.

        A tilt g moves the reference frame by g L / k, so the shift has
        tilt_std L / k = sqrt(2) L / (k image_rho0) per axis; 0.0 when
        the image sees no turbulence.
        """
        return self.tilt_std * cfg.path_length / cfg.wavenumber
