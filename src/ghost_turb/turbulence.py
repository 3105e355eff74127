"""Turbulence strength profiles, transverse coherence length, phase screens.

The coherence length of a spherical wave launched at z = 0 and observed
at z = L through refractive-index turbulence Cn2(z) is

    rho0 = (2.91 k^2 integral_0^L Cn2(z) (1 - z/L)^(5/3) dz)^(-3/5)

with k the optical wavenumber.  Phase screens are Gaussian random fields
whose phase structure function follows the square law
D_phi(r) = 2 r^2 / rho0_target^2 for separations in the quadratic regime
(|r| up to about a third of the covariance scale ell).  They are drawn
from the half plane of a truncated wavenumber grid: modes k and -k
carry the same weight, so a real screen needs one cosine and one sine
coefficient per half-plane mode, K normals for K wavenumbers.  A screen
is never synthesized on a grid: its mode table gives its phase exactly
at the points where it acts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, ValidationError
from .optics import Grid2D

# Path-weighting coefficient of the spherical-wave phase structure
# function for Kolmogorov-strength turbulence.
PHASE_STRUCTURE_COEFF = 2.91

# Spectral synthesis controls: the mode grid spans wavenumbers up to
# KMAX_FACTOR / ell (the Gaussian spectrum is negligible beyond), with
# spacing set by the grid extent plus EMBED_MARGIN_FACTOR * ell of
# padding so the discrete covariance has no wraparound at on-grid
# separations.
KMAX_FACTOR = 9.0
EMBED_MARGIN_FACTOR = 3.5


@dataclass(frozen=True)
class CnSquaredProfile:
    """Piecewise-constant Cn2(z) over [0, path_length].

    segments is a tuple of (z_start, z_end, cn2) in meters and m^(-2/3);
    segments must tile [0, path_length] contiguously in order.
    """

    segments: tuple[tuple[float, float, float], ...]
    path_length: float

    def __post_init__(self):
        if not (math.isfinite(self.path_length) and self.path_length > 0):
            raise ValidationError(f"path_length must be finite and > 0, got {self.path_length}")
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
        """Parse profile text: either one 'uniform L cn2' line or rows of
        'z_start z_end cn2'.  '#' starts a comment, blank lines ignored."""
        rows = []
        for raw in lines:
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            rows.append(text.split())
        if not rows:
            raise ConfigurationError("profile text contains no data lines")
        if rows[0][0].lower() == "uniform":
            if len(rows) != 1 or len(rows[0]) != 3:
                raise ConfigurationError(
                    "a 'uniform' profile must be a single line: uniform <path_length> <cn2>"
                )
            try:
                length, cn2 = float(rows[0][1]), float(rows[0][2])
            except ValueError as exc:
                raise ConfigurationError(f"bad uniform profile numbers: {exc}")
            return cls.uniform(length, cn2)
        segments = []
        for i, row in enumerate(rows):
            if len(row) != 3:
                raise ConfigurationError(
                    f"profile line {i + 1} needs 3 columns (z_start z_end cn2), got {len(row)}"
                )
            try:
                segments.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ConfigurationError(f"profile line {i + 1}: {exc}")
        return cls(segments=tuple(segments), path_length=segments[-1][1])

    @classmethod
    def from_file(cls, path) -> "CnSquaredProfile":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh)


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


def coherence_length(profile: CnSquaredProfile, wavelength: float) -> float:
    """Source-plane transverse coherence length rho0 in meters.

    Returns math.inf when the weighted integral vanishes (no turbulence).
    """
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValidationError(f"wavelength must be finite and > 0, got {wavelength}")
    integral = weighted_path_integral(profile)
    if integral == 0.0:
        return math.inf
    k = 2.0 * math.pi / wavelength
    return (PHASE_STRUCTURE_COEFF * k * k * integral) ** (-3.0 / 5.0)


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
        if math.isnan(self.rho0) or self.rho0 <= 0:
            raise ValidationError(f"rho0 must be > 0 (math.inf for none), got {self.rho0}")
        f = self.screen_position_fraction
        if f not in (0.0, 1.0):
            raise ValidationError(
                f"screen_position_fraction must be 0 (source plane) or 1 (detector plane), "
                f"got {f}")

    @property
    def turbulent(self) -> bool:
        return math.isfinite(self.rho0)


def default_covariance_scale(grid: Grid2D) -> float:
    """Covariance scale ell for a screen covering this grid.

    ell = max(4 * grid extent, 8 * pitch) keeps every on-grid separation
    inside the quadratic regime of the structure function.
    """
    extent = max(grid.nx - 1, grid.ny - 1) * grid.pitch
    return max(4.0 * extent, 8.0 * grid.pitch)


class ScreenSampler:
    """Spectral screen sampler for a source-plane region and a model.

    The screen is a band-limited Fourier sum of a real field on a
    truncated wavenumber grid, weighted by the square root of the
    Gaussian covariance spectrum.  Modes k and -k carry the same weight,
    so only the half plane is drawn: one standard normal for the cosine
    of k = 0, and one each for the cosine and the sine of every other
    half-plane mode with sqrt(2) times its weight.  That is K normals
    for K wavenumbers, with the covariance of the full grid.  The grid
    argument only fixes the covariance scale ell (default_covariance_scale)
    and the mode spacing dk from its extent; no screen is synthesized on
    it.  Phases are evaluated at any points through mode_table, exactly.
    Construction is deterministic, so equal draws give equal phases.
    """

    def __init__(self, grid: Grid2D, model: TurbulenceModel):
        self.grid = grid
        self.model = model
        self.ell = default_covariance_scale(grid)
        if not model.turbulent:
            self.sigma2 = 0.0
            self._amp = None
            return
        self.sigma2 = (self.ell / model.rho0) ** 2
        extent = max(grid.nx - 1, grid.ny - 1) * grid.pitch
        domain = extent + EMBED_MARGIN_FACTOR * self.ell
        dk = 2.0 * math.pi / domain
        n_half = int(math.ceil(KMAX_FACTOR / self.ell / dk))
        k1d = dk * np.arange(-n_half, n_half + 1)
        k2 = k1d[:, None] ** 2 + k1d[None, :] ** 2
        # Continuous spectrum of sigma2 * exp(-r^2/ell^2) is
        # sigma2 * pi * ell^2 * exp(-k^2 ell^2 / 4); each mode carries
        # amp^2 = S(k) dk^2 / (2 pi)^2 of covariance.
        spectrum = self.sigma2 * math.pi * self.ell**2 * np.exp(-k2 * self.ell**2 / 4.0)
        self._amp = np.sqrt(spectrum) * (dk / (2.0 * math.pi))
        self._k1d = k1d
        # Row r of a draw multiplies Re(weight_r exp(i k_r . rho)).  With
        # the flat mode index j = iy * n + ix, -k is mode K - 1 - j, so
        # the half plane is j > K // 2 (and K // 2 is k = 0).  Rows: the
        # cosines of k = 0 and the half plane, then the half-plane sines,
        # whose weight is -i sqrt(2) amp_k since Re(-i e^{it}) = sin t.
        count = self._amp.size
        half = np.arange(count // 2 + 1, count)
        self._row_mode = np.concatenate([[count // 2], half, half])
        weight = np.full(count, math.sqrt(2.0), dtype=complex)
        weight[0] = 1.0
        weight[half.size + 1:] *= -1j
        self._row_weight = weight * self._amp.reshape(-1)[self._row_mode]

    def mode_covariance(self, separations) -> np.ndarray:
        """Covariance the mode table realizes at (..., 2) separations."""
        r = np.asarray(separations, dtype=float)
        if self._amp is None:
            return np.zeros(r.shape[:-1])
        phase = (r[..., None, None, 0] * self._k1d[None, :]
                 + r[..., None, None, 1] * self._k1d[:, None])
        return np.sum(self._amp**2 * np.cos(phase), axis=(-2, -1))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Mode coefficients of count screens as standard normals, shape (count, K).

        Drawn screen-major, so row i does not depend on count.
        """
        if self._amp is None:
            raise ValidationError("a turbulence-free sampler has no modes to draw")
        return rng.standard_normal((count, self._row_mode.size))

    def mode_table(self, points) -> np.ndarray:
        """Real (K, P) table that maps draw() rows to screen phases at P points.

        The screen's phase at rho is sum_r g_r Re(weight_r exp(i k_r . rho)),
        so it is (g @ table)[p]: exact at any point, with no interpolation.
        """
        if self._amp is None:
            raise ValidationError("a turbulence-free sampler has no modes")
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ey = np.exp(1j * np.outer(self._k1d, pts[:, 1]))
        ex = np.exp(1j * np.outer(self._k1d, pts[:, 0]))
        iy, ix = np.divmod(self._row_mode, self._k1d.size)
        return (self._row_weight[:, None] * ey[iy] * ex[ix]).real
