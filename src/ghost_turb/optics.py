"""Paraxial propagation from point subsources to detector-plane grids.

The propagation kernel is the free-space quadratic-phase (Fresnel) kernel
for a path of length L.  Turbulence never enters here: a source-plane
screen is a phase on the subsource amplitudes, and a detector-plane
screen is a unit-modulus factor per pixel that no intensity can see.
Sources on a square lattice are propagated many frames at a time
through the exact separable form of the kernel (LatticePropagator), in
real arithmetic on planar fields: the real and imaginary parts are two
float planes of one buffer, and each complex factor K is kept as its
real block matrix [[Re K, -Im K], [Im K, Re K]].  The lattice is the
subsources' own: SubsourceSet stores them as its nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, ValidationError

if TYPE_CHECKING:
    from .source import SubsourceSet

# Largest phase, in radians, the Fresnel kernel may drop: the quartic
# term k d^4 / (8 L^3) of the path length sqrt(L^2 + d^2) over a
# transverse source-to-pixel offset d.
PARAXIAL_PHASE_LIMIT = 0.1


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
    def centered(cls, nx: int, ny: int, pitch: float) -> "Grid2D":
        """Grid around the origin, with the origin at a pixel center.

        Even pixel counts get a half-pixel center offset so that (0, 0)
        is sampled exactly instead of falling on a four-pixel corner.
        """
        cx = 0.5 * pitch if nx % 2 == 0 else 0.0
        cy = 0.5 * pitch if ny % 2 == 0 else 0.0
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


def intensity_moments(fields: np.ndarray) -> np.ndarray:
    """[I; I^2] of planar fields (2, ...), in place.

    I = re^2 + im^2 overwrites the real plane and I^2 the imaginary
    plane of the same buffer, which is returned.
    """
    re, im = fields
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    re += im
    np.multiply(re, re, out=im)
    return fields


def check_paraxial(positions, grids, wavenumber: float, path_length: float) -> None:
    """Raise ConfigurationError unless every subsource-to-pixel path is paraxial.

    The farthest pixel of a grid from a subsource is one of the grid's
    corners, so the largest offset d costs O(M) per grid.
    """
    corners = np.array([(x, y) for grid in grids for x in grid.span()[0]
                        for y in grid.span()[1]])
    d2 = float(np.max(np.sum((positions[:, None, :] - corners[None, :, :]) ** 2, axis=-1)))
    phase = wavenumber * d2 * d2 / (8.0 * path_length**3)
    if phase > PARAXIAL_PHASE_LIMIT:
        raise ConfigurationError(
            f"geometry is not paraxial: the Fresnel kernel drops a phase k d^4 / (8 L^3) "
            f"= {phase:.3g} rad (limit {PARAXIAL_PHASE_LIMIT} rad) at the largest "
            f"source-to-pixel offset d = {math.sqrt(d2):.6g} m over path_length "
            f"{path_length:.6g} m")


def path_prefactor(cfg: OpticalConfig) -> complex:
    """Constant factor -i exp(i k L) / (wavelength L) of the Fresnel kernel.

    kL is about 1e7 rad, where one ulp is about 2e-9 rad, so it enters as
    this one constant rather than as a term of every element's phase.
    """
    return complex((-1j / (cfg.wavelength * cfg.path_length))
                   * np.exp(1j * cfg.wavenumber * cfg.path_length))


class LatticePropagator:
    """Fresnel propagation from subsources on a square lattice to a grid.

    On lattice nodes (i * pitch, j * pitch) the kernel's quadratic phase
    separates by axis, G(p, m) = c Ky[y_p, j_m] Kx[x_p, i_m] with
    c = path_prefactor(cfg), so a frame's field is c Ky A Kx^T for its
    amplitudes A placed on the lattice.  This is the Fresnel kernel
    itself, factored exactly, not an approximation of it.  The nodes
    are the subsources' own, from SubsourceSet.lattice().

    The factors c Ky and Kx are kept as real block matrices
    [[Re K, -Im K], [Im K, Re K]], which act on planar (re, im) blocks.
    Frames are the fastest axis of every buffer: a batch's lattice is
    (Ly, 2, Lx, n), the x contraction gives (2, Ly, nx, n), and the
    large y contraction is one real GEMM over all n frames that gives
    the planar fields (2, ny, nx, n).  Buffers for max_frames frames
    are allocated once; a call takes at most that many, in a prefix of
    each flat buffer, so a short batch runs the same GEMMs on
    contiguous blocks.
    """

    def __init__(self, sources: SubsourceSet, grid: Grid2D, cfg: OpticalConfig,
                 max_frames: int):
        self._ix, self._iy, xs, ys = sources.lattice()
        if max_frames < 1:
            raise ValidationError(f"max_frames must be >= 1, got {max_frames}")
        q = cfg.wavenumber / (2.0 * cfg.path_length)
        ky = path_prefactor(cfg) * np.exp(1j * q * (grid.y()[:, None] - ys[None, :]) ** 2)
        kx = np.exp(1j * q * (grid.x()[:, None] - xs[None, :]) ** 2)
        self._dims = (grid.ny, grid.nx, ys.size, xs.size)
        self.ky = _real_block(ky)
        # Rows (re/im, x) of the x factor, broadcast over the lattice rows.
        self.kx = _real_block(kx).reshape(2, 1, grid.nx, 2 * xs.size)
        self.max_frames = max_frames
        self._lattice = np.empty(2 * ys.size * xs.size * max_frames)
        self._half = np.empty(2 * ys.size * grid.nx * max_frames)
        self._fields = np.empty(2 * grid.ny * grid.nx * max_frames)
        # Frame count the lattice prefix is laid out for: nodes without
        # a subsource stay zero until the count, and so the layout, changes.
        self._lattice_frames = 0

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        """Planar fields (2, ny, nx, n) of n <= max_frames frames of amplitudes (n, M).

        [0] is the real and [1] the imaginary plane; the frame is the last
        axis.  The fields are a view of a buffer that the next call
        overwrites: a frame loop reuses its buffers instead of
        allocating, and so page-faulting, megabytes per batch.
        """
        amps = np.asarray(amplitudes)
        n = amps.shape[0]
        if not 1 <= n <= self.max_frames:
            raise ValidationError(f"a call takes 1 to {self.max_frames} frames, got {n}")
        ny, nx, lat_y, lat_x = self._dims
        lattice = self._lattice[:2 * lat_y * lat_x * n].reshape(lat_y, 2, lat_x, n)
        if n != self._lattice_frames:
            lattice.fill(0.0)
            self._lattice_frames = n
        lattice[self._iy, 0, self._ix] = amps.real.T
        lattice[self._iy, 1, self._ix] = amps.imag.T
        half = self._half[:2 * lat_y * nx * n].reshape(2, lat_y, nx, n)
        np.matmul(self.kx, lattice.reshape(1, lat_y, 2 * lat_x, n), out=half)
        fields = self._fields[:2 * ny * nx * n].reshape(2 * ny, nx * n)
        np.matmul(self.ky, half.reshape(2 * lat_y, nx * n), out=fields)
        return fields.reshape(2, ny, nx, n)


def _real_block(k: np.ndarray) -> np.ndarray:
    """Real (2r, 2c) matrix [[Re k, -Im k], [Im k, Re k]] of a complex (r, c) k."""
    r, c = k.shape
    out = np.empty((2 * r, 2 * c))
    out[:r, :c] = out[r:, c:] = k.real
    np.negative(k.imag, out=out[:r, c:])
    out[r:, :c] = k.imag
    return out
