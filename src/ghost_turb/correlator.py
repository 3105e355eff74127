"""Bucket/reference correlation and image metrics.

The ghost image is the per-pixel covariance between the bucket signal
(object-plane intensity integrated over a transmissive mask) and the
reference-plane intensity, accumulated over frames as running sums: the
frame count, two bucket sums and one array of map moments, so partial
results merge by adding them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NoDetectionError, ValidationError, require_positive
from .optics import Grid2D

# A peak must clear the image baseline by this many standard errors to
# count as a detection when an uncertainty map is available.
PEAK_SIGNIFICANCE = 5.0
# Fallback flatness threshold (relative to the image scale) when no
# uncertainty map is given, e.g. for noise-free analytic images.
FLATNESS_EPS = 1e-9
# Fewest frames that form a covariance image: with two, every stderr is
# zero and any peak passes the significance test.
MIN_FRAMES = 3


@dataclass(frozen=True, eq=False)
class ObjectMask:
    """Intensity transmissivity in [0, 1] on an object-plane grid."""

    grid: Grid2D
    transmissivity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transmissivity, dtype=float)
        if t.shape != (self.grid.ny, self.grid.nx):
            raise ValidationError(
                f"mask shape {t.shape} does not match grid {self.grid.ny} x {self.grid.nx}"
            )
        if not np.all(np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0:
            raise ValidationError("transmissivity values must be finite and in [0, 1]")
        if not np.any(t > 0.0):
            raise ValidationError(
                "mask transmits nothing: the bucket signal is identically zero, so no "
                "number of frames can form a ghost image")
        object.__setattr__(self, "transmissivity", t)

    @functools.cached_property
    def support(self) -> "ObjectMask":
        """This mask on the bounding box of its transmissive pixels.

        The bucket integral over the box equals the one over the whole
        grid: every pixel outside it has zero transmissivity.
        """
        rows, cols = np.nonzero(self.transmissivity > 0.0)
        y0, y1, x0, x1 = rows.min(), rows.max() + 1, cols.min(), cols.max() + 1
        xs, ys = self.grid.x(), self.grid.y()
        grid = Grid2D(nx=int(x1 - x0), ny=int(y1 - y0), pitch=self.grid.pitch,
                      center=(0.5 * float(xs[x0] + xs[x1 - 1]),
                              0.5 * float(ys[y0] + ys[y1 - 1])))
        return ObjectMask(grid=grid, transmissivity=self.transmissivity[y0:y1, x0:x1])


def point_mask(grid: Grid2D, position=(0.0, 0.0)) -> ObjectMask:
    """Single fully transmissive pixel nearest to the given position."""
    px, py = float(position[0]), float(position[1])
    xs = grid.x()
    ys = grid.y()
    (xmin, xmax), (ymin, ymax) = grid.span()
    half = grid.pitch / 2.0
    if not (xmin - half <= px <= xmax + half and ymin - half <= py <= ymax + half):
        raise ValidationError(f"point {position} lies outside the object grid")
    ix = int(np.argmin(np.abs(xs - px)))
    iy = int(np.argmin(np.abs(ys - py)))
    t = np.zeros((grid.ny, grid.nx))
    t[iy, ix] = 1.0
    return ObjectMask(grid=grid, transmissivity=t)


def double_slit_mask(grid: Grid2D, slit_width: float, separation: float,
                     height: float) -> ObjectMask:
    """Two vertical slits, center-to-center separation, centered on origin."""
    require_positive("slit_width", slit_width)
    require_positive("separation", separation)
    require_positive("height", height)
    return _bars(grid, (-separation / 2.0, separation / 2.0), slit_width, height)


def three_bar_mask(grid: Grid2D, bar_width: float, height: float) -> ObjectMask:
    """Three vertical bars of the given width, spaced one width apart."""
    require_positive("bar_width", bar_width)
    require_positive("height", height)
    return _bars(grid, (-2.0 * bar_width, 0.0, 2.0 * bar_width), bar_width, height)


def _bars(grid: Grid2D, centers, width: float, height: float) -> ObjectMask:
    """Vertical bars of the given width and height, centred at x = centers and y = 0."""
    in_x = np.zeros(grid.nx, dtype=bool)
    for c in centers:
        in_x |= np.abs(grid.x() - c) <= width / 2.0
    in_y = np.abs(grid.y()) <= height / 2.0
    return ObjectMask(grid=grid, transmissivity=(in_y[:, None] & in_x[None, :]).astype(float))


@dataclass(frozen=True, eq=False)
class GhostImageResult:
    """Finalized covariance image with its background and uncertainty."""

    grid: Grid2D
    ghost: np.ndarray
    background: np.ndarray
    stderr: np.ndarray
    frames: int


class GhostImageEstimate:
    """Running sums for the bucket/reference covariance image.

    Accumulation keeps raw first and second moments (through the fourth
    mixed moment needed for the covariance standard error), so two
    partial estimates merge by adding sums; merged and single-pass
    results agree to floating-point reassociation.  Besides the frame
    count n and the bucket sums s_b and s_b2, the map sums are one
    (2, ny, nx, 3) array, sums[k, ..., j] = sum over frames of
    I^(k+1) b^j: the layout of the product [I; I^2] @ [1, b, b^2].
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        self.n = 0
        self.s_b = 0.0
        self.s_b2 = 0.0
        self.sums = np.zeros((2, grid.ny, grid.nx, 3))

    def add(self, bucket, intensity) -> "GhostImageEstimate":
        """Fold in a batch of n frames.

        A batch is (n,) buckets and the (2, ny, nx, n) block [I; I^2] of
        its maps and their squares, frames last, as intensity_moments
        leaves it.  Its map sums are one matrix product of that block,
        as (2 ny nx, n), with [1, b, b^2] (n, 3).
        """
        b = np.asarray(bucket, dtype=float)
        block = np.asarray(intensity, dtype=float)
        if b.ndim != 1 or block.shape != (2, self.grid.ny, self.grid.nx) + b.shape:
            raise ValidationError(
                f"intensity shape {block.shape} does not match {b.size} bucket value(s) on "
                f"grid {self.grid.ny} x {self.grid.nx}"
            )
        powers = np.stack([np.ones_like(b), b, b * b], axis=1)
        sums = block.reshape(-1, b.size) @ powers
        # Column 0 adds every block value with weight 1, and a non-finite
        # bucket enters every row of columns 1 and 2, so any NaN or inf
        # input leaves a non-finite sum: checking the (2 ny nx, 3) sums
        # checks the inputs without another pass over the block.
        if not np.all(np.isfinite(sums)):
            raise ValidationError("bucket and intensity must be finite")
        self.n += b.size
        self.s_b += float(np.sum(b))
        self.s_b2 += float(np.sum(powers[:, 2]))
        self.sums += sums.reshape(self.sums.shape)
        return self

    def merge(self, other: "GhostImageEstimate") -> "GhostImageEstimate":
        if self.grid != other.grid:
            raise ValidationError("cannot merge estimates on different grids")
        self.n += other.n
        self.s_b += other.s_b
        self.s_b2 += other.s_b2
        self.sums += other.sums
        return self

    def finalize(self) -> GhostImageResult:
        """Biased (1/N) covariance image, flat background, stderr map."""
        if self.n < MIN_FRAMES:
            raise InsufficientDataError(
                f"need at least {MIN_FRAMES} frames to form a covariance, have {self.n}"
            )
        n = float(self.n)
        (s_i, s_bi, s_b2i), (s_i2, s_bi2, s_b2i2) = np.moveaxis(self.sums, -1, 1)
        mean_b = self.s_b / n
        mean_i = s_i / n
        ghost = s_bi / n - mean_b * mean_i
        background = mean_b * mean_i
        # Var of the covariance estimator from the centered fourth moment:
        # sum((B - mB)^2 (I - mI)^2) expanded over the raw sums.
        central4 = (s_b2i2
                    - 2.0 * mean_i * s_b2i
                    - 2.0 * mean_b * s_bi2
                    + mean_i**2 * self.s_b2
                    + mean_b**2 * s_i2
                    + 4.0 * mean_b * mean_i * s_bi
                    - 3.0 * n * mean_b**2 * mean_i**2)
        var_hat = np.maximum(central4 / n - ghost**2, 0.0)
        stderr = np.sqrt(var_hat / n)
        return GhostImageResult(grid=self.grid, ghost=ghost, background=background,
                                stderr=stderr, frames=self.n)


@dataclass(frozen=True)
class PsfMetrics:
    """Peak shape metrics of a (ghost) image."""

    fwhm_x: float
    fwhm_y: float
    second_moment_width: float
    peak_x: float
    peak_y: float
    peak_value: float
    baseline: float
    peak_stderr: float | None


def _border_median(image: np.ndarray) -> float:
    if image.shape[0] <= 2 or image.shape[1] <= 2:
        return _median(image)
    border = np.concatenate([image[0, :], image[-1, :], image[1:-1, 0], image[1:-1, -1]])
    return _median(border)


def _median(values: np.ndarray) -> float:
    """The value np.median gives for finite values, without the numpy.ma it imports."""
    ordered = np.sort(values, axis=None)
    n = ordered.size
    return float((ordered[(n - 1) // 2] + ordered[n // 2]) / 2)


def _fwhm(profile: np.ndarray, coords: np.ndarray, peak: int, half: float) -> float:
    """Distance between the half-maximum crossings on either side of profile[peak].

    On each side the crossing lies between the first sample below half
    and its neighbour toward the peak, by linear interpolation.
    """
    below = np.flatnonzero(profile < half)
    left, right = below[below < peak], below[below > peak]
    if left.size == 0 or right.size == 0:
        raise NoDetectionError(
            "half-maximum level is not reached inside the grid; the peak is unresolved"
        )
    crossings = []
    for nxt, idx in ((left[-1], left[-1] + 1), (right[0], right[0] - 1)):
        frac = (profile[idx] - half) / (profile[idx] - profile[nxt])
        crossings.append(coords[idx] + frac * (coords[nxt] - coords[idx]))
    return float(crossings[1] - crossings[0])


def psf_metrics(image: np.ndarray, grid: Grid2D,
                stderr: np.ndarray | None = None) -> PsfMetrics:
    """FWHM along both axes through the peak plus a second-moment width.

    The image baseline (median of the border pixels) is subtracted
    before measuring, which removes the flat pedestal the covariance
    image inherits from same-subsource pairs.  The peak must be unique
    and, when a stderr map is given, clear the baseline by
    PEAK_SIGNIFICANCE standard errors; otherwise NoDetectionError.
    FWHM crossings are located by linear interpolation between samples;
    the second-moment width is sqrt(sum(v r^2)/sum(v)) of the
    baseline-subtracted image clipped at zero.
    """
    img = np.asarray(image, dtype=float)
    if img.shape != (grid.ny, grid.nx):
        raise ValidationError(f"image shape {img.shape} does not match grid")
    if not np.all(np.isfinite(img)):
        raise ValidationError("image must be finite")
    baseline = _border_median(img)
    flat_idx = int(np.argmax(img))
    iy, ix = np.unravel_index(flat_idx, img.shape)
    peak_value = float(img[iy, ix])
    height = peak_value - baseline
    if np.count_nonzero(img == peak_value) > 1:
        raise NoDetectionError("image has no unique maximum")
    peak_stderr = None
    if stderr is not None:
        se = np.asarray(stderr, dtype=float)
        if se.shape != img.shape:
            raise ValidationError("stderr map shape does not match the image")
        peak_stderr = float(se[iy, ix])
        if height <= PEAK_SIGNIFICANCE * peak_stderr:
            raise NoDetectionError(
                f"peak height {height:.4g} does not clear {PEAK_SIGNIFICANCE} standard "
                f"errors ({PEAK_SIGNIFICANCE * peak_stderr:.4g}); image is washed out"
            )
    else:
        scale = float(np.max(np.abs(img)))
        if height <= FLATNESS_EPS * max(scale, 1.0e-300):
            raise NoDetectionError("image is flat; no peak to measure")

    half = baseline + height / 2.0
    xs = grid.x()
    ys = grid.y()
    fwhm_x = _fwhm(img[iy, :], xs, ix, half)
    fwhm_y = _fwhm(img[:, ix], ys, iy, half)

    v = np.clip(img - baseline, 0.0, None)
    total = float(v.sum())
    pts = grid.points()
    cx = float((v * pts[..., 0]).sum() / total)
    cy = float((v * pts[..., 1]).sum() / total)
    r2 = (pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2
    width = float(math.sqrt((v * r2).sum() / total))

    return PsfMetrics(
        fwhm_x=fwhm_x,
        fwhm_y=fwhm_y,
        second_moment_width=width,
        peak_x=float(xs[ix]),
        peak_y=float(ys[iy]),
        peak_value=peak_value,
        baseline=baseline,
        peak_stderr=peak_stderr,
    )
