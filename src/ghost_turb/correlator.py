"""Bucket/reference correlation and image metrics.

The ghost image is the per-pixel covariance between the bucket signal
(object-plane intensity integrated over a transmissive mask) and the
reference-plane intensity, accumulated over frames with running sums so
partial results merge exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NoDetectionError, ValidationError
from .optics import ComplexField, Grid2D

# A peak must clear the image baseline by this many standard errors to
# count as a detection when an uncertainty map is available.
PEAK_SIGNIFICANCE = 5.0
# Fallback flatness threshold (relative to the image scale) when no
# uncertainty map is given, e.g. for noise-free analytic images.
FLATNESS_EPS = 1e-9


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
        object.__setattr__(self, "transmissivity", t)


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
    if slit_width <= 0 or separation <= 0 or height <= 0:
        raise ValidationError("slit_width, separation and height must be > 0")
    xs = grid.x()
    ys = grid.y()
    in_y = np.abs(ys) <= height / 2.0
    in_x = (np.abs(xs - separation / 2.0) <= slit_width / 2.0) | (
        np.abs(xs + separation / 2.0) <= slit_width / 2.0
    )
    t = (in_y[:, None] & in_x[None, :]).astype(float)
    return ObjectMask(grid=grid, transmissivity=t)


def three_bar_mask(grid: Grid2D, bar_width: float, height: float) -> ObjectMask:
    """Three vertical bars of the given width, spaced one width apart."""
    if bar_width <= 0 or height <= 0:
        raise ValidationError("bar_width and height must be > 0")
    xs = grid.x()
    ys = grid.y()
    in_y = np.abs(ys) <= height / 2.0
    centers = (-2.0 * bar_width, 0.0, 2.0 * bar_width)
    in_x = np.zeros(grid.nx, dtype=bool)
    for c in centers:
        in_x |= np.abs(xs - c) <= bar_width / 2.0
    t = (in_y[:, None] & in_x[None, :]).astype(float)
    return ObjectMask(grid=grid, transmissivity=t)


def bucket_signal(field: ComplexField, mask: ObjectMask) -> float:
    """Masked object-plane intensity integral, sum(|u|^2 T) * pitch^2."""
    if not field.grid.same_layout(mask.grid):
        raise ValidationError("field and mask must share one grid layout")
    return float(bucket_signals(field.intensity(), mask))


def bucket_signals(intensity: np.ndarray, mask: ObjectMask) -> np.ndarray:
    """sum(I T) * pitch^2 of each (ny, nx) map in a (..., ny, nx) stack."""
    im = np.asarray(intensity, dtype=float)
    if im.shape[-2:] != mask.transmissivity.shape:
        raise ValidationError(f"intensity shape {im.shape} does not match the mask grid")
    return np.sum(im * mask.transmissivity, axis=(-2, -1)) * mask.grid.pitch**2


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
    results agree to floating-point reassociation.
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        self.n = 0
        self.s_b = 0.0
        self.s_b2 = 0.0
        shape = (grid.ny, grid.nx)
        self.s_i = np.zeros(shape)
        self.s_i2 = np.zeros(shape)
        self.s_bi = np.zeros(shape)
        self.s_b2i = np.zeros(shape)
        self.s_bi2 = np.zeros(shape)
        self.s_b2i2 = np.zeros(shape)

    def add(self, bucket, intensity) -> "GhostImageEstimate":
        """Fold in one frame, or a batch of n frames at once.

        One frame is a scalar bucket and an (ny, nx) intensity map; a
        batch is (n,) buckets and (n, ny, nx) maps.  A batch's six map
        sums come from two matrix products, I^T [1, b, b^2] and
        (I^2)^T [1, b, b^2].
        """
        b = np.asarray(bucket, dtype=float)
        im = np.asarray(intensity, dtype=float)
        shape = (self.grid.ny, self.grid.nx)
        if b.ndim > 1 or im.shape != b.shape + shape:
            raise ValidationError(
                f"intensity shape {im.shape} does not match {b.size} bucket value(s) on "
                f"grid {self.grid.ny} x {self.grid.nx}"
            )
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(im)):
            raise ValidationError("bucket and intensity must be finite")
        b = b.reshape(-1)
        im = im.reshape(b.size, -1)
        powers = np.stack([np.ones_like(b), b, b * b], axis=1)
        first = im.T @ powers
        second = (im * im).T @ powers
        self.n += b.size
        self.s_b += float(np.sum(b))
        self.s_b2 += float(np.sum(powers[:, 2]))
        self.s_i += first[:, 0].reshape(shape)
        self.s_bi += first[:, 1].reshape(shape)
        self.s_b2i += first[:, 2].reshape(shape)
        self.s_i2 += second[:, 0].reshape(shape)
        self.s_bi2 += second[:, 1].reshape(shape)
        self.s_b2i2 += second[:, 2].reshape(shape)
        return self

    def merge(self, other: "GhostImageEstimate") -> "GhostImageEstimate":
        if not self.grid.same_layout(other.grid):
            raise ValidationError("cannot merge estimates on different grids")
        self.n += other.n
        self.s_b += other.s_b
        self.s_b2 += other.s_b2
        self.s_i += other.s_i
        self.s_i2 += other.s_i2
        self.s_bi += other.s_bi
        self.s_b2i += other.s_b2i
        self.s_bi2 += other.s_bi2
        self.s_b2i2 += other.s_b2i2
        return self

    def finalize(self) -> GhostImageResult:
        """Biased (1/N) covariance image, flat background, stderr map."""
        if self.n < 2:
            raise InsufficientDataError(
                f"need at least 2 frames to form a covariance, have {self.n}"
            )
        n = float(self.n)
        mean_b = self.s_b / n
        mean_i = self.s_i / n
        ghost = self.s_bi / n - mean_b * mean_i
        background = mean_b * mean_i
        # Var of the covariance estimator from the centered fourth moment:
        # sum((B - mB)^2 (I - mI)^2) expanded over the raw sums.
        central4 = (self.s_b2i2
                    - 2.0 * mean_i * self.s_b2i
                    - 2.0 * mean_b * self.s_bi2
                    + mean_i**2 * self.s_b2
                    + mean_b**2 * self.s_i2
                    + 4.0 * mean_b * mean_i * self.s_bi
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
        return float(np.median(image))
    border = np.concatenate([image[0, :], image[-1, :], image[1:-1, 0], image[1:-1, -1]])
    return float(np.median(border))


def _half_crossing(profile: np.ndarray, coords: np.ndarray, peak_idx: int,
                   half: float, direction: int) -> float:
    idx = peak_idx
    while True:
        nxt = idx + direction
        if nxt < 0 or nxt >= profile.size:
            raise NoDetectionError(
                "half-maximum level is not reached inside the grid; the peak is unresolved"
            )
        if profile[nxt] < half:
            # Linear interpolation between the bracketing samples.
            frac = (profile[idx] - half) / (profile[idx] - profile[nxt])
            return float(coords[idx] + frac * (coords[nxt] - coords[idx]))
        idx = nxt


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
    row = img[iy, :]
    col = img[:, ix]
    xs = grid.x()
    ys = grid.y()
    x_left = _half_crossing(row, xs, ix, half, -1)
    x_right = _half_crossing(row, xs, ix, half, +1)
    y_left = _half_crossing(col, ys, iy, half, -1)
    y_right = _half_crossing(col, ys, iy, half, +1)

    v = np.clip(img - baseline, 0.0, None)
    total = float(v.sum())
    pts = grid.points()
    cx = float((v * pts[..., 0]).sum() / total)
    cy = float((v * pts[..., 1]).sum() / total)
    r2 = (pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2
    width = float(math.sqrt((v * r2).sum() / total))

    return PsfMetrics(
        fwhm_x=x_right - x_left,
        fwhm_y=y_right - y_left,
        second_moment_width=width,
        peak_x=float(xs[ix]),
        peak_y=float(ys[iy]),
        peak_value=peak_value,
        baseline=baseline,
        peak_stderr=peak_stderr,
    )
