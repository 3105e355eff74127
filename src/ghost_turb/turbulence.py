"""Turbulence strength profiles, transverse coherence length, phase screens.

The coherence length of a spherical wave launched at z = 0 and observed
at z = L through refractive-index turbulence Cn2(z) is

    rho0 = (2.91 k^2 integral_0^L Cn2(z) (1 - z/L)^(5/3) dz)^(-3/5)

with k the optical wavenumber.  Phase screens are Gaussian random fields
whose phase structure function follows the square law
D_phi(r) = 2 r^2 / rho0_target^2 for separations in the quadratic regime
(|r| up to about a third of the covariance scale ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, ValidationError
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


def _normalize_seed(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        seq = (int(seed),)
    else:
        try:
            seq = tuple(int(s) for s in seed)
        except TypeError:
            raise ValidationError(f"seed must be an int or a sequence of ints, got {seed!r}")
    if len(seq) == 0 or any(s < 0 for s in seq):
        raise ValidationError(f"seed entries must be non-negative ints, got {seq}")
    return seq


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
    turbulence).  screen_position_fraction places the thin screen along
    the path: 0 at the source plane, 1 at the detector plane.  When
    paths_independent is true the bucket and reference paths get
    independently drawn screens each frame.
    """

    rho0: float
    screen_position_fraction: float = 0.0
    paths_independent: bool = True

    def __post_init__(self):
        if math.isnan(self.rho0) or self.rho0 <= 0:
            raise ValidationError(f"rho0 must be > 0 (math.inf for none), got {self.rho0}")
        f = self.screen_position_fraction
        if not (math.isfinite(f) and 0.0 <= f <= 1.0):
            raise ValidationError(f"screen_position_fraction must be in [0, 1], got {f}")

    @property
    def turbulent(self) -> bool:
        return math.isfinite(self.rho0)


@dataclass(frozen=True, eq=False)
class PhaseScreen:
    """Phase samples (radians) on a grid, with the synthesis parameters."""

    grid: Grid2D
    values: np.ndarray
    rho0_target: float
    ell: float
    sigma2: float
    seed: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValidationError(
                f"screen shape {v.shape} does not match grid {self.grid.ny} x {self.grid.nx}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("screen values must be finite")
        object.__setattr__(self, "values", v)

    def sample_at(self, points) -> np.ndarray:
        """Bilinear phase samples at (..., 2) coordinates inside the grid.

        Accurate off the pixel centers only when the grid pitch is small
        against the covariance scale ell, which holds for every screen
        this package generates for source-plane use.
        """
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 2:
            raise ValidationError("points must have a trailing axis of size 2 (x, y)")
        xs = self.grid.x()
        ys = self.grid.y()
        fx = (pts[..., 0] - xs[0]) / self.grid.pitch
        fy = (pts[..., 1] - ys[0]) / self.grid.pitch
        eps = 1e-9
        if (np.any(fx < -eps) or np.any(fx > self.grid.nx - 1 + eps)
                or np.any(fy < -eps) or np.any(fy > self.grid.ny - 1 + eps)):
            raise ValidationError("sample points fall outside the screen grid")
        if self.grid.nx == 1 and self.grid.ny == 1:
            return np.broadcast_to(self.values[0, 0], pts.shape[:-1]).copy()
        i0 = np.clip(np.floor(fx).astype(int), 0, max(self.grid.nx - 2, 0))
        j0 = np.clip(np.floor(fy).astype(int), 0, max(self.grid.ny - 2, 0))
        i1 = np.minimum(i0 + 1, self.grid.nx - 1)
        j1 = np.minimum(j0 + 1, self.grid.ny - 1)
        wx = np.clip(fx - i0, 0.0, 1.0)
        wy = np.clip(fy - j0, 0.0, 1.0)
        v = self.values
        return ((1 - wy) * ((1 - wx) * v[j0, i0] + wx * v[j0, i1])
                + wy * ((1 - wx) * v[j1, i0] + wx * v[j1, i1]))


def default_covariance_scale(grid: Grid2D) -> float:
    """Covariance scale ell for a screen covering this grid.

    ell = max(4 * grid extent, 8 * pitch) keeps every on-grid separation
    inside the quadratic regime of the structure function.
    """
    extent = max(grid.nx - 1, grid.ny - 1) * grid.pitch
    return max(4.0 * extent, 8.0 * grid.pitch)


class ScreenSampler:
    """Reusable spectral sampler for screens on a fixed grid and model.

    The screen is a band-limited Fourier synthesis: independent complex
    normal coefficients on a truncated wavenumber grid, weighted by the
    square root of the Gaussian covariance spectrum, evaluated on the
    pixel grid through separable matrix products.  Construction is
    deterministic, so sample(seed) is bit-reproducible.
    """

    def __init__(self, grid: Grid2D, model: TurbulenceModel, ell: float | None = None):
        self.grid = grid
        self.model = model
        if model.turbulent and grid.pitch >= model.rho0 / 4.0:
            raise ValidationError(
                f"screen grid pitch {grid.pitch:.6g} m must be below rho0/4 = "
                f"{model.rho0 / 4.0:.6g} m to resolve the coherence scale"
            )
        self.ell = float(ell) if ell is not None else default_covariance_scale(grid)
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValidationError(f"covariance scale ell must be finite and > 0, got {self.ell}")
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
        self._ey = np.exp(1j * np.outer(grid.y(), k1d))
        self._ex = np.exp(1j * np.outer(grid.x(), k1d))

    def mode_covariance(self, separations) -> np.ndarray:
        """Covariance the mode table realizes at (..., 2) separations."""
        if self._amp is None:
            r = np.asarray(separations, dtype=float)
            return np.zeros(r.shape[:-1])
        r = np.asarray(separations, dtype=float)
        phase = (r[..., None, None, 0] * self._k1d[None, :]
                 + r[..., None, None, 1] * self._k1d[:, None])
        return np.sum(self._amp**2 * np.cos(phase), axis=(-2, -1))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Mode coefficients of count screens as standard normals, shape (count, K, 2).

        Entry [i, k] holds the real and imaginary parts of screen i's
        coefficient for mode k (before the spectral weight), drawn
        screen-major, so row i does not depend on count.
        """
        if self._amp is None:
            raise ValidationError("a turbulence-free sampler has no modes to draw")
        return rng.standard_normal((count, self._amp.size, 2))

    def screen(self, normals: np.ndarray, seed) -> PhaseScreen:
        """The screen on this grid of one row (K, 2) of draw()."""
        g = np.asarray(normals).reshape(self._amp.shape + (2,))
        coeff = (g[..., 0] + 1j * g[..., 1]) * self._amp
        values = (self._ey @ coeff @ self._ex.T).real
        return PhaseScreen(grid=self.grid, values=values, rho0_target=self.model.rho0,
                           ell=self.ell, sigma2=self.sigma2, seed=_normalize_seed(seed))

    def mode_table(self, points) -> np.ndarray:
        """Real (2K, P) table that maps draw() rows to screen phases at P points.

        The screen's phase at rho is Re sum_k amp_k c_k exp(i k . rho),
        so with c_k = g_k0 + i g_k1 it is (g.reshape(-1) @ table)[p]:
        exact at any point, with no grid and no interpolation.
        """
        if self._amp is None:
            raise ValidationError("a turbulence-free sampler has no modes")
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ey = np.exp(1j * np.outer(self._k1d, pts[:, 1]))
        ex = np.exp(1j * np.outer(self._k1d, pts[:, 0]))
        modes = self._amp[:, :, None] * ey[:, None, :] * ex[None, :, :]
        table = np.stack([modes.real, -modes.imag], axis=2)
        return table.reshape(-1, pts.shape[0])

    def sample(self, seed) -> PhaseScreen:
        seq = _normalize_seed(seed)
        if self._amp is None:
            return PhaseScreen(grid=self.grid, values=np.zeros((self.grid.ny, self.grid.nx)),
                               rho0_target=self.model.rho0, ell=self.ell,
                               sigma2=self.sigma2, seed=seq)
        return self.screen(self.draw(np.random.default_rng(seq), 1)[0], seq)


def generate_phase_screen(grid: Grid2D, model: TurbulenceModel, seed,
                          ell: float | None = None) -> PhaseScreen:
    """One phase screen on a grid; bit-identical for equal seed and inputs.

    The ensemble structure function of the generated screens is
    D_phi(r) = 2 sigma2 (1 - exp(-|r|^2/ell^2)) with sigma2/ell^2 =
    1/model.rho0^2, which approximates the square law 2 |r|^2 / rho0^2
    for |r| up to about ell/3.  An infinite rho0 yields the zero screen.
    """
    return ScreenSampler(grid, model, ell=ell).sample(seed)


def structure_function_estimate(screens: Sequence[PhaseScreen] | np.ndarray,
                                offset_px: tuple[int, int]) -> tuple[float, float]:
    """Ensemble phase structure function at an integer pixel offset.

    Each screen contributes the spatial mean of the squared phase
    increment at the offset; the ensemble mean and its standard error
    over screens are returned.  Per-screen averaging keeps the standard
    error honest despite correlated pixel pairs inside one screen.
    """
    if isinstance(screens, np.ndarray):
        stack = np.asarray(screens, dtype=float)
        if stack.ndim != 3:
            raise ValidationError(f"screen stack must be (count, ny, nx), got {stack.shape}")
    else:
        screens = list(screens)
        if len(screens) == 0:
            raise InsufficientDataError("no screens given")
        grid = screens[0].grid
        for s in screens[1:]:
            if not s.grid.same_layout(grid):
                raise ValidationError("all screens must share one grid layout")
        stack = np.stack([s.values for s in screens])
    count, ny, nx = stack.shape
    if count < 2:
        raise InsufficientDataError("need at least 2 screens for a standard error")
    dx, dy = offset_px
    if dx != int(dx) or dy != int(dy):
        raise ValidationError(f"offset must be integer pixels, got {offset_px}")
    dx, dy = int(dx), int(dy)
    if abs(dx) >= nx or abs(dy) >= ny:
        raise ValidationError(
            f"offset {offset_px} px does not fit in a {ny} x {nx} screen"
        )
    if dx == 0 and dy == 0:
        return 0.0, 0.0
    x0, x1 = (0, nx - dx) if dx >= 0 else (-dx, nx)
    y0, y1 = (0, ny - dy) if dy >= 0 else (-dy, ny)
    shifted = stack[:, y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    base = stack[:, y0:y1, x0:x1]
    per_screen = np.mean((shifted - base) ** 2, axis=(1, 2))
    mean = float(np.mean(per_screen))
    stderr = float(np.std(per_screen, ddof=1) / math.sqrt(count))
    return mean, stderr
