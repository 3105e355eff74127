"""Bucket/reference correlation and image metrics.

The ghost image is the per-pixel covariance between the bucket signal
(object-plane intensity integrated over a transmissive mask) and the
reference-plane intensity, accumulated over frames as running sums: the
frame count, two bucket sums and one array of map moments, so partial
results merge by adding them.

The sums are of centred values, x = I / mu - 1 and y = b / nu - 1,
with mu and nu the exact means of a reference pixel's intensity and of
the bucket.  The simulator knows both in closed form, so centring costs
no pass over the data, and finalize maps the moments of x and y back.
Raw sums would cancel in finalize: the covariance and its stderr are
differences of sums whose terms are up to (mean / std)^2 and
(mean / std)^4 times larger than the result.  Centred values keep
their relative precision, so each batch's moment product runs in
float32, and only the products' rounding within one batch reaches the
float64 sums it is added to.
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

    Accumulation keeps raw first and second moments of the centred
    values x = I / intensity_mean - 1 and y = b / bucket_mean - 1
    (through the fourth mixed moment needed for the covariance standard
    error), so two partial estimates merge by adding sums; merged and
    single-pass results agree to floating-point reassociation.  Besides
    the frame count n and the bucket sums s_b and s_b2 of y and y^2, the
    map sums are one float64 (2, ny, nx, 3) array,
    sums[k, ..., j] = sum over frames of x^(k+1) y^j: the layout of the
    product [x; x^2] @ [1, y, y^2].
    """

    def __init__(self, grid: Grid2D, intensity_mean: float = 1.0, bucket_mean: float = 1.0):
        require_positive("intensity_mean", intensity_mean)
        require_positive("bucket_mean", bucket_mean)
        self.grid = grid
        self.means = (float(intensity_mean), float(bucket_mean))
        self.n = 0
        self.s_b = 0.0
        self.s_b2 = 0.0
        self.sums = np.zeros((2, grid.ny, grid.nx, 3))

    def add(self, bucket, moments) -> "GhostImageEstimate":
        """Fold in a batch of n frames.

        A batch is (n,) centred buckets y and the (2, ny, nx, n) block
        [x; x^2] of its centred maps and their squares, frames last, as
        intensity_moments leaves it; both are read as float32.  Its map
        sums are one float32 matrix product of that block, as
        (2 ny nx, n), with [1, y, y^2] (n, 3), added to the float64 sums.
        """
        y = np.asarray(bucket, dtype=np.float32)
        block = np.asarray(moments, dtype=np.float32)
        if y.ndim != 1 or block.shape != (2, self.grid.ny, self.grid.nx) + y.shape:
            raise ValidationError(
                f"intensity shape {block.shape} does not match {y.size} bucket value(s) on "
                f"grid {self.grid.ny} x {self.grid.nx}"
            )
        # Column 0 adds every block value with weight 1, and a non-finite
        # bucket enters every row of columns 1 and 2, so any NaN or inf
        # input leaves a non-finite sum: checking the (2 ny nx, 3) sums
        # checks the inputs without another pass over the block.  Such an
        # input, or an inf times a centred bucket of 0, would warn first.
        with np.errstate(invalid="ignore", over="ignore"):
            powers = np.stack([np.ones_like(y), y, y * y], axis=1)
            sums = block.reshape(-1, y.size) @ powers
        if not np.all(np.isfinite(sums)):
            raise ValidationError("bucket and intensity must be finite")
        self.n += y.size
        self.s_b += float(np.sum(y, dtype=float))
        self.s_b2 += float(np.sum(powers[:, 2], dtype=float))
        self.sums += sums.reshape(self.sums.shape)
        return self

    def merge(self, other: "GhostImageEstimate") -> "GhostImageEstimate":
        if self.grid != other.grid or self.means != other.means:
            raise ValidationError("cannot merge estimates on different grids or means")
        self.n += other.n
        self.s_b += other.s_b
        self.s_b2 += other.s_b2
        self.sums += other.sums
        return self

    def finalize(self) -> GhostImageResult:
        """Biased (1/N) covariance image, flat background, stderr map.

        Formed in x and y, then mapped back with mu nu, the product of
        the two means: the ghost image and its stderr scale by mu nu,
        and the background is mu nu (1 + mean y)(1 + mean x).
        """
        if self.n < MIN_FRAMES:
            raise InsufficientDataError(
                f"need at least {MIN_FRAMES} frames to form a covariance, have {self.n}"
            )
        n = float(self.n)
        (s_x, s_yx, s_y2x), (s_x2, s_yx2, s_y2x2) = np.moveaxis(self.sums, -1, 1)
        mean_y = self.s_b / n
        mean_x = s_x / n
        cov = s_yx / n - mean_y * mean_x
        # Var of the covariance estimator from the centered fourth moment:
        # sum((y - my)^2 (x - mx)^2) expanded over the raw sums.
        central4 = (s_y2x2
                    - 2.0 * mean_x * s_y2x
                    - 2.0 * mean_y * s_yx2
                    + mean_x**2 * self.s_b2
                    + mean_y**2 * s_x2
                    + 4.0 * mean_y * mean_x * s_yx
                    - 3.0 * n * mean_y**2 * mean_x**2)
        var_hat = np.maximum(central4 / n - cov**2, 0.0)
        scale = self.means[0] * self.means[1]
        return GhostImageResult(grid=self.grid, ghost=scale * cov,
                                background=scale * (1.0 + mean_y) * (1.0 + mean_x),
                                stderr=scale * np.sqrt(var_hat / n), frames=self.n)


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
