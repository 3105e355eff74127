"""Paraxial propagation from point subsources to detector-plane grids.

The propagation kernel is the free-space quadratic-phase (Fresnel) kernel
for a path of length L.  This module only propagates: a source-plane
screen is a phase on the subsource amplitudes, applied before they
reach it (see simulate), and a detector-plane screen is a unit-modulus
factor per pixel that no intensity can see.

Sources on a square lattice (SubsourceSet's nodes) are propagated a
fixed number of frames at a time, into buffers of that many frames,
through the exact separable form of the kernel, in real arithmetic on
planar (re, im) fields.  The detectors read only intensities, so a field
is computed up to a unit-modulus factor per pixel, which leaves every
intensity exact: the kernel's constant phase and
q (x_p^2 - 2 x_p x_c + y_p^2 - 2 y_p y_c), q = k / 2L, about the centre
(x_c, y_c) of the lattice's bounding box.  The node chirp
exp(iq |rho_m|^2) is left out too: per draw, a field is the exact field
of a_m exp(-iq |rho_m|^2), which has the law of a_m for the source's iid
circular Gaussian a_m, so every field is exact in law.  Mirror nodes
about the box centre are folded into sums and differences (LatticeFold)
that depend only on the lattice, so one fold feeds every grid
(LatticePropagator) that sees the same amplitudes.

The amplitudes enter as planar float32 (re, im) planes (2, n, M), the
layout of every other buffer here, so the fold's scatter reads them
through a transposed view, with no intermediate copy; complex
amplitudes are refused, not cast.  The fold's block, the
propagation factors, the fields and their intensity moments are
float32, which halves the memory traffic that bounds the frame loop;
each factor is formed in float64 and rounded once.  A
LatticePropagator scales its fields to unit mean intensity: its
intensities are I / mu, with mu = M P / (wavelength L)^2 the exact
mean intensity at every pixel (a source-plane screen is a unit-modulus
factor and cannot move it).  intensity_moments then returns
x = I / mu - 1, centred at no cost, and the sums of its moments are
float64 (see correlator).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError, require_positive

if TYPE_CHECKING:
    from .source import SubsourceSet


@dataclass(frozen=True)
class OpticalConfig:
    """Wavelength and source-to-detector path length, both in meters."""

    wavelength: float
    path_length: float

    def __post_init__(self):
        require_positive("wavelength", self.wavelength)
        require_positive("path_length", self.path_length)

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
        require_positive("grid pitch", self.pitch)
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
    """[x; x^2] of planar fields (2, ...) of unit mean intensity, in place.

    x = re^2 + im^2 - 1, the intensity less its mean, overwrites the
    real plane and x^2 the imaginary plane of the same buffer, which is
    returned.
    """
    re, im = fields
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    re += im
    re -= 1.0
    np.multiply(re, re, out=im)
    return fields


class LatticeFold:
    """Subsource amplitudes folded about the centre of their lattice's bounding box.

    Write a node as the box centre (x_c, y_c) plus its column's and row's
    offsets (u, v), as SubsourceSet.lattice gives them.  The
    Fresnel phase q |p - rho|^2, q = k / 2L, of pixel p = (x_p, y_p) is
    then q (x_p^2 - 2 x_p x_c + y_p^2 - 2 y_p y_c) + q |rho|^2
    - 2q (x_p u + y_p v).  The first term is one unit-modulus factor per
    pixel, which no intensity sees.  The node chirp q |rho|^2 does not
    depend on the grid, and is left out (see the module docstring).
    What is left is
    exp(-2iq x_p u) exp(-2iq y_p v), and cos is even in u, sin odd.  So
    the four mirror nodes (+-u, +-v) enter every grid only through the
    sums and differences of their amplitudes, and the fold depends only
    on the lattice.

    The bounding box is symmetric about its centre whatever its extents,
    so each node falls in one of four mirror quadrants, on a half axis of
    ceil(L / 2) offsets, without collisions.  offsets holds those half
    axes, the non-negative halves of the lattice's u and v; the centre
    enters only the dropped pixel factor, so the fold keeps none.  Every
    call takes exactly `frames` frames of planar amplitudes and writes
    the real and imaginary planes of all nodes into that (Hy, 8, Hx, n)
    block, rows (quadrant, re/im), with one scatter through a fixed
    (2, M) slot table; nodes without a subsource stay zero.  One product
    of the block with the constant sign matrix _FOLD_SIGNS gives the
    folded block.  In vacuum both detector
    planes read the same fold.  norm = 1 / sqrt(M P) scales a field of
    the fold's M subsources of power P to unit mean intensity.
    """

    def __init__(self, sources: SubsourceSet, frames: int):
        ix, iy, u, v = sources.lattice
        # Half-axis offsets, the non-negative halves of the lattice's u and v:
        # 0, 1, ... pitches for odd extents, 1/2, 3/2, ... for even.
        self.offsets = (u[u.size // 2:], v[v.size // 2:])
        self.frames = frames
        self.norm = 1.0 / math.sqrt(sources.count * sources.mean_power)
        self._shape = (2, frames, sources.count)
        hx, hy = (o.size for o in self.offsets)
        block = 8 * hy * hx * frames
        buffer = _buffer(2 * block)
        # The memory map starts zero-filled, and every call writes the same
        # slots, so the slots of nodes without a subsource stay zero.
        self._quadrants = buffer[:block].reshape(hy, 8, hx * frames)
        self._rows = self._quadrants.reshape(-1, frames)
        self._folded = buffer[block:2 * block].reshape(hy, 8, hx * frames)
        self._block = self._folded.reshape(4 * hy, 2 * hx, frames)
        # _rows is the quadrant block (Hy, 8, Hx, n) as (Hy 8 Hx, n): one row
        # per (half-axis v, y sign, x sign, re/im, half-axis u).  A node's
        # row is a part set by its lattice row plus a part set by its
        # column, each from t, twice that row's or column's offset from the
        # centre in pitches.
        row = np.array([hx * (8 * (abs(t) // 2) + 4 * (t < 0))
                        for t in range(1 - v.size, v.size, 2)])
        col = np.array([2 * hx * (t < 0) + abs(t) // 2 for t in range(1 - u.size, u.size, 2)])
        # Each node's real part, then its imaginary part Hx rows on.
        self._slots = np.add.outer((0, hx), row[iy] + col[ix])

    def __call__(self, planes) -> np.ndarray:
        """Folded block (4 Hy, 2 Hx, n) of planar amplitudes (2, n, M), n the fold's frames.

        planes[0] holds the real and planes[1] the imaginary parts, read
        as float32; the block holds a copy, so the caller may change them
        afterwards.  Rows of the block are (v, y factor, plane) and
        columns (x factor, u), with factor 0 the cosine and 1 the sine
        and plane 0 the real part; the frame is the last axis.  The block
        is a view of a buffer that the next call overwrites.  Complex
        input, whose imaginary part a float cast would drop, and any
        other shape, which the scatter would broadcast or cut, raise
        ValidationError.
        """
        planes = np.asarray(planes)
        if np.iscomplexobj(planes) or planes.shape != self._shape:
            raise ValidationError(f"amplitudes must be real planes of shape {self._shape}, "
                                  f"got {planes.dtype} {planes.shape}")
        self._rows[self._slots] = planes.transpose(0, 2, 1)
        np.matmul(_FOLD_SIGNS, self._quadrants, out=self._folded)
        return self._block


class LatticePropagator:
    """Unit-mean-intensity fields on one grid from the folded block of a LatticeFold.

    The field at pixel p is s sum_m a_m exp(-2iq (x_p u_m + y_p v_m)),
    s = fold.norm = 1 / sqrt(M P): the Fresnel field of
    a_m exp(-iq |rho_m|^2) without the unit-modulus pixel factor that
    LatticeFold sets aside, divided by c sqrt(M P), c the kernel's
    constant factor of modulus 1 / (wavelength L).  Its intensity is
    I / mu, mu = M P / (wavelength L)^2.  On the folded block F it is
    Ky F Kx^T with real float32 factors: Kx has columns cos,
    sin(2q x_p u_k) over the half axis, Ky columns s cos, s sin(2q y_p v_k).

    Frames are the fastest axis of every buffer: the x contraction gives
    (4 Hy, nx, n), and the y contraction is one real GEMM per plane over
    all n frames that gives the planar fields (2, ny, nx, n).  The
    buffers and their views are built once, for the fold's frame count.
    """

    def __init__(self, fold: LatticeFold, grid: Grid2D, cfg: OpticalConfig):
        two_q = cfg.wavenumber / cfg.path_length
        u, v = fold.offsets
        x_angle = two_q * np.multiply.outer(grid.x(), u)
        self.kx = np.concatenate([np.cos(x_angle), np.sin(x_angle)], axis=1, dtype=np.float32)
        y_angle = two_q * np.multiply.outer(grid.y(), v)
        ky = np.empty((grid.ny, v.size, 2))
        np.cos(y_angle, out=ky[..., 0])
        np.sin(y_angle, out=ky[..., 1])
        ky *= fold.norm
        self.ky = ky.reshape(grid.ny, 2 * v.size).astype(np.float32)
        rows, frames = 4 * v.size, fold.frames
        buffer = _buffer((rows + 2 * grid.ny) * grid.nx * frames)
        self._half = buffer[:rows * grid.nx * frames].reshape(rows, grid.nx, frames)
        # Rows (v, y factor) of each plane are one strided matrix.
        self._planes = self._half.reshape(rows // 2, 2, grid.nx * frames).transpose(1, 0, 2)
        self._fields = buffer[self._half.size:].reshape(2, grid.ny, grid.nx * frames)
        self._out = self._fields.reshape(2, grid.ny, grid.nx, frames)

    def __call__(self, folded: np.ndarray) -> np.ndarray:
        """Planar fields (2, ny, nx, n) of a folded block (4 Hy, 2 Hx, n).

        [0] is the real and [1] the imaginary plane; the frame is the last
        axis.  The fields are a view of a buffer that the next call
        overwrites: a frame loop reuses its buffers instead of
        allocating, and so page-faulting, megabytes per batch.
        """
        np.matmul(self.kx, folded, out=self._half)
        np.matmul(self.ky, self._planes, out=self._fields)
        return self._out


def _buffer(size: int) -> np.ndarray:
    """float32 buffer of size elements in a private anonymous memory map of its own.

    The frame loop's buffers are a run's largest allocations.  Once one
    run has freed its buffers, malloc serves the next run's from the
    heap, and a process that runs many pipelines grew its heap, and its
    peak RSS, by 2 MiB whenever a hole no longer fit them.  A map of its
    own is returned to the system when the buffer is freed.
    """
    return np.frombuffer(mmap.mmap(-1, 4 * size, flags=mmap.MAP_PRIVATE), dtype=np.float32)


def _fold_signs() -> np.ndarray:
    """The (8, 8) float32 +-1 matrix from quadrant amplitudes to the folded block.

    Columns are (y sign, x sign, re/im) of a node's quadrant, sign 1 for
    a negative offset; rows are (y factor, plane, x factor), factor 1
    the sine.  A factor pair (fy, fx) weights quadrant (sy, sx) by
    (-1)^(fy sy + fx sx), and its sines bring (-i)^(fy + fx): rotate[1]
    is multiplication by -i on (re, im).
    """
    mirror = np.array([[1.0, 1.0], [1.0, -1.0]])
    rotate = np.array([np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]])
    signs = np.einsum("ys,xt,ypa,xar->ypxstr", mirror, mirror, rotate, rotate)
    return signs.reshape(8, 8).astype(np.float32)


_FOLD_SIGNS = _fold_signs()
