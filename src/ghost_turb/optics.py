"""Paraxial propagation from point subsources to detector-plane grids.

The propagation kernel is the free-space quadratic-phase (Fresnel) kernel
for a path of length L.  A thin phase screen can sit anywhere along the
path: at the source plane it multiplies each subsource amplitude, at the
detector plane it multiplies the summed field per pixel, and at an
intermediate plane the propagation is done in two legs with the screen
applied on its own grid between them.  Sources on a square lattice can
be propagated many frames at a time through the exact separable form of
the kernel (LatticePropagator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, ValidationError

if TYPE_CHECKING:
    from .turbulence import PhaseScreen, TurbulenceModel

# Two-leg quadrature: fraction of the screen half-extent reserved for the
# soft edge window, and the number of Fresnel zones kept as margin around
# the geometric beam footprint.
EDGE_TAPER_FRACTION = 0.15
FRESNEL_ZONE_MARGIN = 3.0
# Largest distance, in lattice pitches, of a subsource from its lattice
# node; LatticePropagator places it on the node.
LATTICE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OpticalConfig:
    """Wavelength and source-to-detector path length, both in meters."""

    wavelength: float
    path_length: float

    def __post_init__(self):
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValidationError(f"wavelength must be finite and > 0, got {self.wavelength}")
        if not (math.isfinite(self.path_length) and self.path_length > 0):
            raise ValidationError(f"path_length must be finite and > 0, got {self.path_length}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class Grid2D:
    """Uniform pixel grid in a transverse plane.

    Pixel centers sit at ``x_i = (i - (nx - 1)/2) * pitch + center[0]``
    (same form in y), so the index-to-coordinate map is affine and
    invertible.  All lengths are meters.
    """

    nx: int
    ny: int
    pitch: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValidationError(f"grid needs nx, ny >= 1, got {self.nx} x {self.ny}")
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise ValidationError(f"grid pitch must be finite and > 0, got {self.pitch}")
        cx, cy = self.center
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValidationError(f"grid center must be finite, got {self.center}")

    @classmethod
    def centered(cls, nx: int, ny: int, pitch: float, on_pixel: bool = True) -> "Grid2D":
        """Grid around the origin; with on_pixel, the origin is a pixel center.

        Even pixel counts get a half-pixel center offset so that (0, 0)
        is sampled exactly instead of falling on a four-pixel corner.
        """
        cx = 0.5 * pitch if (on_pixel and nx % 2 == 0) else 0.0
        cy = 0.5 * pitch if (on_pixel and ny % 2 == 0) else 0.0
        return cls(nx=nx, ny=ny, pitch=pitch, center=(cx, cy))

    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.pitch + self.center[0]

    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.pitch + self.center[1]

    def points(self) -> np.ndarray:
        """Pixel-center coordinates, shape (ny, nx, 2) with (x, y) last."""
        xs = self.x()
        ys = self.y()
        out = np.empty((self.ny, self.nx, 2))
        out[..., 0] = xs[None, :]
        out[..., 1] = ys[:, None]
        return out

    def span(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((xmin, xmax), (ymin, ymax)) of the pixel centers."""
        xs = self.x()
        ys = self.y()
        return (float(xs[0]), float(xs[-1])), (float(ys[0]), float(ys[-1]))

    def same_layout(self, other: "Grid2D") -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.pitch == other.pitch
            and self.center == other.center
        )


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex scalar field sampled on a grid, values[iy, ix]."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValidationError(
                f"field shape {v.shape} does not match grid {self.grid.ny} x {self.grid.nx}"
            )
        if not np.iscomplexobj(v):
            raise ValidationError("field values must be complex")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValidationError("field values must be finite")
        object.__setattr__(self, "values", v)

    def intensity(self) -> np.ndarray:
        return intensity(self.values)


def intensity(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^2 of complex values as re^2 + im^2, written to out if given."""
    out = np.square(values.real, out=out)
    out += np.square(values.imag)
    return out


def greens_function(rho_dst, rho_src, cfg: OpticalConfig, turbulence_phase=0.0) -> np.ndarray:
    """Point-to-point paraxial propagation kernel over cfg.path_length.

    Parameters
    ----------
    rho_dst, rho_src : array_like (..., 2)
        Destination and source transverse coordinates in meters;
        broadcast against each other.
    turbulence_phase : array_like
        Real phase (radians) added by a screen along this path; the
        kernel is multiplied by exp(1j * turbulence_phase).

    Returns
    -------
    complex ndarray with the broadcast shape.  The modulus is
    1 / (wavelength * path_length) for any real turbulence_phase.
    """
    dst = np.asarray(rho_dst, dtype=float)
    src = np.asarray(rho_src, dtype=float)
    if dst.shape[-1] != 2 or src.shape[-1] != 2:
        raise ValidationError("coordinates must have a trailing axis of size 2 (x, y)")
    d2 = np.sum((dst - src) ** 2, axis=-1)
    phase = cfg.wavenumber * d2 / (2.0 * cfg.path_length) + np.asarray(turbulence_phase)
    return path_prefactor(cfg) * np.exp(1j * phase)


def path_prefactor(cfg: OpticalConfig) -> complex:
    """Constant factor -i exp(i k L) / (wavelength L) of the Fresnel kernel.

    kL is about 1e7 rad, where one ulp is about 2e-9 rad, so it enters as
    this one constant rather than as a term of every element's phase.
    """
    return complex((-1j / (cfg.wavelength * cfg.path_length))
                   * np.exp(1j * cfg.wavenumber * cfg.path_length))


def fresnel_kernel(positions: np.ndarray, grid: Grid2D, cfg: OpticalConfig,
                   distance: float | None = None) -> np.ndarray:
    """Vacuum kernel matrix from point sources to grid pixels.

    Returns a complex array of shape (ny * nx, M) so a propagated field
    is ``(kernel @ amplitudes).reshape(ny, nx)``.  ``distance`` overrides
    cfg.path_length for partial legs.
    """
    pos = _check_positions(positions)
    d = cfg.path_length if distance is None else float(distance)
    if not (math.isfinite(d) and d > 0):
        raise ValidationError(f"propagation distance must be finite and > 0, got {d}")
    leg = OpticalConfig(wavelength=cfg.wavelength, path_length=d)
    pts = grid.points().reshape(-1, 1, 2)
    return greens_function(pts, pos[None, :, :], leg)


class LatticePropagator:
    """Fresnel propagation from subsources on a square lattice to a grid.

    On lattice nodes (i * pitch, j * pitch) the kernel's quadratic phase
    separates by axis, G(p, m) = c Ky[y_p, j_m] Kx[x_p, i_m] with
    c = path_prefactor(cfg), so a frame's field is c Ky A Kx^T for its
    amplitudes A placed on the lattice.  This is the Fresnel kernel
    itself, factored exactly, not an approximation of it.  Positions
    farther than LATTICE_TOLERANCE pitches from a node, or two on one
    node, raise ConfigurationError.  Buffers for max_frames frames are
    allocated once; a call takes at most that many.
    """

    def __init__(self, positions, pitch: float, grid: Grid2D, cfg: OpticalConfig,
                 max_frames: int):
        pos = _check_positions(positions)
        if not (math.isfinite(pitch) and pitch > 0):
            raise ValidationError(f"lattice pitch must be finite and > 0, got {pitch}")
        if max_frames < 1:
            raise ValidationError(f"max_frames must be >= 1, got {max_frames}")
        nodes = pos / pitch
        idx = np.rint(nodes)
        if np.any(np.abs(nodes - idx) > LATTICE_TOLERANCE):
            raise ConfigurationError(
                f"subsource positions are off the square lattice of pitch {pitch:.6g} m; "
                "the frame pipeline needs every subsource on a lattice node"
            )
        if np.unique(idx, axis=0).shape[0] != idx.shape[0]:
            raise ConfigurationError(
                f"two subsources share a node of the square lattice of pitch {pitch:.6g} m"
            )
        lo = idx.min(axis=0)
        self._ix = (idx[:, 0] - lo[0]).astype(int)
        self._iy = (idx[:, 1] - lo[1]).astype(int)
        xs = np.arange(lo[0], idx[:, 0].max() + 1.0) * pitch
        ys = np.arange(lo[1], idx[:, 1].max() + 1.0) * pitch
        q = cfg.wavenumber / (2.0 * cfg.path_length)
        self.ky = path_prefactor(cfg) * np.exp(1j * q * (grid.y()[:, None] - ys[None, :]) ** 2)
        self.kx_t = np.exp(1j * q * (xs[:, None] - grid.x()[None, :]) ** 2)
        # Nodes without a subsource stay zero for good, so the lattice
        # buffer is filled once here and only written at subsources later.
        (ny, lat_y), (lat_x, nx) = self.ky.shape, self.kx_t.shape
        self._lattice = np.zeros((max_frames, lat_y, lat_x), dtype=complex)
        self._half = np.empty((max_frames, ny, lat_x), dtype=complex)
        self._field = np.empty((max_frames, ny, nx), dtype=complex)

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        """Fields (n, ny, nx) of n <= max_frames frames of subsource amplitudes (n, M).

        The fields are a view of a buffer that the next call overwrites:
        a frame loop reuses its buffers instead of allocating, and so
        page-faulting, megabytes per batch.
        """
        amps = np.asarray(amplitudes)
        n = amps.shape[0]
        lattice = self._lattice[:n]
        lattice[:, self._iy, self._ix] = amps
        np.matmul(self.ky, lattice, out=self._half[:n])
        return np.matmul(self._half[:n], self.kx_t, out=self._field[:n])


def _check_positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValidationError(f"positions must have shape (M, 2) with M >= 1, got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValidationError("positions must be finite")
    return pos


def _require_coverage(grid: Grid2D, pts: np.ndarray, what: str) -> None:
    (xmin, xmax), (ymin, ymax) = grid.span()
    px = pts[..., 0]
    py = pts[..., 1]
    if px.min() < xmin or px.max() > xmax or py.min() < ymin or py.max() > ymax:
        raise ConfigurationError(
            f"screen grid does not cover {what}: grid spans x [{xmin:.6g}, {xmax:.6g}], "
            f"y [{ymin:.6g}, {ymax:.6g}] but needs x [{px.min():.6g}, {px.max():.6g}], "
            f"y [{py.min():.6g}, {py.max():.6g}]"
        )


def _edge_window(grid: Grid2D) -> np.ndarray:
    """Separable cosine-squared taper over the outer EDGE_TAPER_FRACTION."""

    def axis_window(coords: np.ndarray, center: float) -> np.ndarray:
        half = max(abs(coords[0] - center), abs(coords[-1] - center))
        if half == 0.0:
            return np.ones_like(coords)
        flat = (1.0 - EDGE_TAPER_FRACTION) * half
        r = np.abs(coords - center)
        w = np.ones_like(coords)
        outer = r > flat
        t = (r[outer] - flat) / (half - flat)
        w[outer] = np.cos(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2
        return w

    wx = axis_window(grid.x(), grid.center[0])
    wy = axis_window(grid.y(), grid.center[1])
    return wy[:, None] * wx[None, :]


def _two_leg_checks(screen_grid: Grid2D, positions: np.ndarray, dst_grid: Grid2D,
                    cfg: OpticalConfig, fraction: float) -> None:
    l1 = fraction * cfg.path_length
    l2 = (1.0 - fraction) * cfg.path_length
    src_r = float(np.max(np.hypot(positions[:, 0], positions[:, 1])))
    dpts = dst_grid.points()
    dst_r = float(np.max(np.hypot(dpts[..., 0], dpts[..., 1])))
    fresnel = math.sqrt(cfg.wavelength * l1 * l2 / cfg.path_length)
    footprint = (1.0 - fraction) * src_r + fraction * dst_r + FRESNEL_ZONE_MARGIN * fresnel
    (xmin, xmax), (ymin, ymax) = screen_grid.span()
    cx, cy = screen_grid.center
    usable = (1.0 - EDGE_TAPER_FRACTION) * min(xmax - cx, cx - xmin, ymax - cy, cy - ymin)
    if usable < footprint:
        raise ConfigurationError(
            f"screen grid half-extent {usable:.6g} m (after edge taper) is smaller than the "
            f"beam footprint {footprint:.6g} m at fraction {fraction}; enlarge the screen grid"
        )
    # The quadrature must sample the combined quadratic phase at better
    # than half a cycle per pixel across the screen.
    k = cfg.wavenumber
    grad = k * (footprint + src_r) / l1 + k * (footprint + dst_r) / l2
    max_pitch = math.pi / grad
    if screen_grid.pitch > max_pitch:
        raise ConfigurationError(
            f"screen grid pitch {screen_grid.pitch:.6g} m undersamples the two-leg quadrature; "
            f"required pitch <= {max_pitch:.6g} m"
        )


def propagate_subsources(amplitudes, positions, screen: "PhaseScreen | None",
                         model: "TurbulenceModel | None", dst_grid: Grid2D,
                         cfg: OpticalConfig) -> ComplexField:
    """Propagate subsource amplitudes to a destination grid.

    With no screen the result is the direct Fresnel sum over subsources.
    With a screen, ``model.screen_position_fraction`` selects where the
    phase is applied: 0 samples the screen at the subsource positions,
    1 multiplies the summed field by the screen at the pixel positions,
    and intermediate values run a two-leg Fresnel sum with the screen
    applied on its own grid at distance fraction * L.
    """
    pos = _check_positions(positions)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (pos.shape[0],):
        raise ValidationError(
            f"amplitudes shape {amps.shape} does not match {pos.shape[0]} subsource positions"
        )
    if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
        raise ValidationError("amplitudes must be finite")

    if screen is None:
        values = (fresnel_kernel(pos, dst_grid, cfg) @ amps).reshape(dst_grid.ny, dst_grid.nx)
        return ComplexField(grid=dst_grid, values=values)

    if model is None:
        raise ConfigurationError("a screen was given without a turbulence model")
    fraction = model.screen_position_fraction

    if fraction == 0.0:
        _require_coverage(screen.grid, pos, "the subsource positions")
        phi = screen.sample_at(pos)
        eff = amps * np.exp(1j * phi)
        values = (fresnel_kernel(pos, dst_grid, cfg) @ eff).reshape(dst_grid.ny, dst_grid.nx)
        return ComplexField(grid=dst_grid, values=values)

    if fraction == 1.0:
        dst_pts = dst_grid.points()
        _require_coverage(screen.grid, dst_pts, "the destination grid")
        vac = (fresnel_kernel(pos, dst_grid, cfg) @ amps).reshape(dst_grid.ny, dst_grid.nx)
        phi = screen.sample_at(dst_pts.reshape(-1, 2)).reshape(dst_grid.ny, dst_grid.nx)
        return ComplexField(grid=dst_grid, values=vac * np.exp(1j * phi))

    # Intermediate plane: source -> screen plane (fraction * L), apply the
    # screen on its own grid, then screen plane -> destination.
    _two_leg_checks(screen.grid, pos, dst_grid, cfg, fraction)
    l1 = fraction * cfg.path_length
    l2 = (1.0 - fraction) * cfg.path_length
    mid = (fresnel_kernel(pos, screen.grid, cfg, distance=l1) @ amps).reshape(
        screen.grid.ny, screen.grid.nx
    )
    mid = mid * np.exp(1j * screen.values) * _edge_window(screen.grid)
    mid_pts = screen.grid.points().reshape(-1, 2)
    k2 = fresnel_kernel(mid_pts, dst_grid, cfg, distance=l2)
    values = (k2 @ (mid.reshape(-1) * screen.grid.pitch**2)).reshape(dst_grid.ny, dst_grid.nx)
    return ComplexField(grid=dst_grid, values=values)
