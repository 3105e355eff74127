import math

import numpy as np
import pytest

import oracles
from ghost_turb.source import BATCH_FRAMES
from ghost_turb.correlator import (GhostImageEstimate, ObjectMask, _median, double_slit_mask,
                                   point_mask, psf_metrics, three_bar_mask)
from ghost_turb.errors import (InsufficientDataError, NoDetectionError,
                               ValidationError)
from ghost_turb.optics import Grid2D
from oracles import add_frame, bucket_signals, covariance_image, float32_bound, intensity


def test_object_mask_validation():
    g = Grid2D.centered(4, 4, 1e-5)
    with pytest.raises(ValidationError, match="shape"):
        ObjectMask(grid=g, transmissivity=np.zeros((3, 4)))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        ObjectMask(grid=g, transmissivity=np.full((4, 4), 1.5))
    with pytest.raises(ValidationError):
        ObjectMask(grid=g, transmissivity=np.full((4, 4), math.nan))
    with pytest.raises(ValidationError, match="transmits nothing"):
        ObjectMask(grid=g, transmissivity=np.zeros((4, 4)))


def test_mask_support_is_the_transmissive_bounding_box():
    g = Grid2D.centered(9, 7, 12e-6)
    t = np.zeros((7, 9))
    t[2, 3] = 0.25
    t[4, 6] = 1.0
    support = ObjectMask(grid=g, transmissivity=t).support
    assert (support.grid.ny, support.grid.nx) == (3, 4)
    assert support.grid.pitch == g.pitch
    assert np.array_equal(support.transmissivity, t[2:5, 3:7])
    assert np.allclose(support.grid.x(), g.x()[3:7], rtol=0, atol=1e-20)
    assert np.allclose(support.grid.y(), g.y()[2:5], rtol=0, atol=1e-20)
    point = point_mask(g).support
    assert (point.grid.nx, point.grid.ny) == (1, 1)
    assert point.grid.x()[0] == 0.0 and point.grid.y()[0] == 0.0


def test_point_mask_picks_nearest_pixel():
    g = Grid2D.centered(9, 9, 12e-6)
    m = point_mask(g, (25e-6, -11e-6))
    assert m.transmissivity.sum() == 1.0
    iy, ix = np.unravel_index(np.argmax(m.transmissivity), (9, 9))
    assert g.x()[ix] == pytest.approx(24e-6)
    assert g.y()[iy] == pytest.approx(-12e-6)
    with pytest.raises(ValidationError, match="outside"):
        point_mask(g, (1.0, 0.0))


def test_double_slit_mask_geometry():
    g = Grid2D.centered(21, 21, 10e-6)
    m = double_slit_mask(g, slit_width=25e-6, separation=100e-6, height=150e-6)
    t = m.transmissivity
    xs = g.x()
    ys = g.y()
    open_cols = np.where(t[10, :] == 1.0)[0]
    # Slit centers at +-50 um, width 25 um: columns within 12.5 um.
    expected = np.where((np.abs(xs - 50e-6) <= 12.5e-6)
                        | (np.abs(xs + 50e-6) <= 12.5e-6))[0]
    assert np.array_equal(open_cols, expected)
    open_rows = np.where(t[:, open_cols[0]] == 1.0)[0]
    assert np.array_equal(open_rows, np.where(np.abs(ys) <= 75e-6)[0])
    with pytest.raises(ValidationError):
        double_slit_mask(g, slit_width=0.0, separation=1e-4, height=1e-4)


def test_three_bar_mask_geometry():
    g = Grid2D.centered(41, 11, 10e-6)
    m = three_bar_mask(g, bar_width=30e-6, height=80e-6)
    xs = g.x()
    mid = m.transmissivity[5, :]
    expected = np.zeros(41, dtype=bool)
    for c in (-60e-6, 0.0, 60e-6):
        expected |= np.abs(xs - c) <= 15e-6
    assert np.array_equal(mid == 1.0, expected)
    # One bar width of dead space between adjacent bars.
    gaps = np.where(~expected)[0]
    assert gaps.size > 0
    with pytest.raises(ValidationError):
        three_bar_mask(g, bar_width=-1.0, height=1e-4)


@pytest.mark.parametrize("name, build", [
    ("slit_width", lambda g: double_slit_mask(g, slit_width=-1.0, separation=1e-4, height=1e-4)),
    ("separation", lambda g: double_slit_mask(g, slit_width=1e-5, separation=-1.0, height=1e-4)),
    ("height", lambda g: double_slit_mask(g, slit_width=1e-5, separation=1e-4, height=-1.0)),
    ("bar_width", lambda g: three_bar_mask(g, bar_width=-1.0, height=1e-4)),
    ("height", lambda g: three_bar_mask(g, bar_width=1e-5, height=-1.0)),
], ids=["slit_width", "separation", "slit_height", "bar_width", "bar_height"])
def test_bar_mask_error_names_the_bad_dimension(name, build):
    with pytest.raises(ValidationError, match=f"^{name} must be finite and > 0, got -1.0$"):
        build(Grid2D.centered(21, 21, 10e-6))


def test_bucket_signal_manual(rng):
    g = Grid2D.centered(6, 6, 2e-5)
    vals = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    t = rng.uniform(0, 1, size=(6, 6))
    mask = ObjectMask(grid=g, transmissivity=t)
    expected = float(np.sum(np.abs(vals) ** 2 * t) * (2e-5) ** 2)
    assert float(bucket_signals(intensity(vals), mask)) == pytest.approx(expected, rel=1e-12)
    other = ObjectMask(grid=Grid2D.centered(7, 6, 2e-5), transmissivity=np.ones((6, 7)))
    with pytest.raises(ValidationError, match="mask grid"):
        bucket_signals(intensity(vals), other)


def test_bucket_signals_of_a_stack_match_each_frame(rng):
    g = Grid2D.centered(9, 7, 2e-5)
    mask = ObjectMask(grid=g, transmissivity=rng.uniform(0, 1, size=(7, 9)))
    vals = rng.normal(size=(5, 7, 9)) + 1j * rng.normal(size=(5, 7, 9))
    stack = bucket_signals(intensity(vals), mask)
    assert stack.shape == (5,)
    for i in range(5):
        assert stack[i] == bucket_signals(intensity(vals[i]), mask)
    with pytest.raises(ValidationError, match="mask grid"):
        bucket_signals(np.ones((5, 9, 7)), mask)


def _random_series(rng, n, shape):
    buckets = rng.gamma(2.0, 1.0, size=n)
    frames = rng.gamma(1.5, 1.0, size=(n,) + shape)
    return buckets, frames


def _assert_matches_two_pass(result, buckets, frames, terms):
    """A finalized estimate within float32_bound(terms) of the two-pass float64 oracle.

    The ghost image is compared on the scale of its largest magnitude,
    the stderr and the background pixel by pixel.
    """
    ghost, background, stderr = covariance_image(buckets, frames)
    bound = float32_bound(terms)
    assert np.max(np.abs(result.ghost - ghost)) <= bound * np.max(np.abs(ghost))
    assert np.all(np.abs(result.stderr - stderr) <= bound * stderr)
    assert np.all(np.abs(result.background - background) <= bound * background)
    assert result.frames == buckets.size


def test_estimate_matches_direct_moments(rng):
    # Centred by the gamma laws' exact means; each frame's products are
    # rounded to float32 once, and summed in float64.
    g = Grid2D.centered(5, 4, 1e-5)
    buckets, frames = _random_series(rng, 50, (4, 5))
    est = GhostImageEstimate(g, intensity_mean=1.5, bucket_mean=2.0)
    for b, im in zip(buckets, frames):
        add_frame(est, b, im)
    _assert_matches_two_pass(est.finalize(), buckets, frames, 4)


def test_estimate_needs_positive_means():
    g = Grid2D.centered(3, 3, 1e-5)
    for means in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValidationError, match="_mean must be finite and > 0"):
            GhostImageEstimate(g, *means)


@pytest.mark.parametrize("batch", [1, BATCH_FRAMES])
def test_centred_sums_do_not_cancel_at_a_large_offset(rng, batch):
    # Mean / std about 1e5, with a correlation of 0.6 between the bucket
    # and every pixel.  Raw sums of such a series cancel in finalize: the
    # stderr came out wrong by a factor of several hundred.  Centred by
    # their exact means, x and y are of order 1e-5 and keep float32's
    # precision, so only the rounding of each batch's float32 product
    # reaches the float64 sums.
    g = Grid2D.centered(4, 3, 1e-5)
    mu, nu = 3e7, 5e4
    n = 8 * BATCH_FRAMES
    common = rng.standard_normal(n)
    buckets = nu * (1.0 + 1e-5 * common)
    own = rng.standard_normal((n, 3, 4))
    frames = mu * (1.0 + 1e-5 * (0.6 * common[:, None, None] + 0.8 * own))
    est = GhostImageEstimate(g, intensity_mean=mu, bucket_mean=nu)
    for lo in range(0, n, batch):
        est.add(buckets[lo:lo + batch] / nu - 1.0, _moments(frames[lo:lo + batch] / mu - 1.0))
    result = est.finalize()
    _assert_matches_two_pass(result, buckets, frames, 4 * batch)
    # The correlation survives: the ghost image is 0.6 of sqrt(var b var I).
    assert np.allclose(result.ghost / (1e-10 * mu * nu), 0.6, atol=0.15)


def test_estimate_needs_three_frames():
    # At two frames the two centred products are equal, and the plug-in
    # stderr is zero up to rounding.
    g = Grid2D.centered(3, 3, 1e-5)
    est = GhostImageEstimate(g)
    for frame in range(2):
        add_frame(est, 1.0 + frame, np.full((3, 3), 2.0 - frame))
        with pytest.raises(InsufficientDataError, match="at least 3"):
            est.finalize()
    add_frame(est, 0.5, np.ones((3, 3)))
    assert est.finalize().frames == 3


def test_estimate_rejects_bad_frames():
    g = Grid2D.centered(3, 3, 1e-5)
    est = GhostImageEstimate(g)
    with pytest.raises(ValidationError, match="shape"):
        add_frame(est, 1.0, np.ones((2, 3)))
    with pytest.raises(ValidationError, match="finite"):
        add_frame(est, math.nan, np.ones((3, 3)))
    with pytest.raises(ValidationError, match="finite"):
        add_frame(est, 1.0, np.full((3, 3), math.inf))


def test_add_takes_only_a_batch():
    # A scalar bucket with one (ny, nx) map is not a batch: it is
    # refused, not folded in as one frame.
    g = Grid2D.centered(3, 3, 1e-5)
    est = GhostImageEstimate(g)
    with pytest.raises(ValidationError, match="shape"):
        est.add(1.0, np.ones((3, 3)))
    with pytest.raises(ValidationError, match="shape"):
        est.add(np.ones(1), np.ones((3, 3)))
    assert est.n == 0 and not np.any(est.sums)


def _moments(frames):
    """The (2, ny, nx, n) batch block [I; I^2] of (n, ny, nx) maps."""
    return np.moveaxis(np.stack([frames, frames * frames]), 1, -1)


def test_batched_add_equals_frame_by_frame(rng):
    g = Grid2D.centered(5, 4, 1e-5)
    buckets, frames = _random_series(rng, 40, (4, 5))
    single = GhostImageEstimate(g)
    for b, im in zip(buckets, frames):
        add_frame(single, b, im)
    batched = GhostImageEstimate(g).add(buckets[:32] - 1.0, _moments(frames[:32] - 1.0))
    batched.add(buckets[32:] - 1.0, _moments(frames[32:] - 1.0))
    assert batched.n == single.n == 40
    assert batched.sums.shape == (2, 4, 5, 3)
    # The same float32 values: each frame's products are rounded once
    # alone and once in a float32 sum of 32 frames.
    bound = float32_bound(4 * 32)
    for name in ("s_b", "s_b2", "sums"):
        ours, theirs = getattr(batched, name), getattr(single, name)
        assert np.max(np.abs(ours - theirs)) <= bound * np.max(np.abs(theirs))
    with pytest.raises(ValidationError, match="shape"):
        GhostImageEstimate(g).add(buckets[:3], _moments(frames[:2]))
    with pytest.raises(ValidationError, match="shape"):
        GhostImageEstimate(g).add(buckets[:3], frames[:3])


@pytest.mark.parametrize("where", ["bucket", "map", "square"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batch_with_one_bad_frame_is_rejected(rng, where, bad):
    g = Grid2D.centered(5, 4, 1e-5)
    buckets, frames = _random_series(rng, 32, (4, 5))
    block = _moments(frames)
    if where == "bucket":
        buckets[17] = bad
    elif where == "map":
        block[0, 2, 3, 17] = bad
    else:
        block[1, 0, 4, 17] = bad
    est = GhostImageEstimate(g)
    with pytest.raises(ValidationError, match="finite"):
        est.add(buckets, block)
    assert est.n == 0 and not np.any(est.sums)


def test_merge_equals_single_pass(rng):
    g = Grid2D.centered(4, 4, 1e-5)
    buckets, frames = _random_series(rng, 60, (4, 4))
    whole = GhostImageEstimate(g)
    for b, im in zip(buckets, frames):
        add_frame(whole, b, im)
    left = GhostImageEstimate(g)
    right = GhostImageEstimate(g)
    for b, im in zip(buckets[:25], frames[:25]):
        add_frame(left, b, im)
    for b, im in zip(buckets[25:], frames[25:]):
        add_frame(right, b, im)
    left.merge(right)
    a = whole.finalize()
    b = left.finalize()
    assert np.allclose(a.ghost, b.ghost, rtol=1e-12, atol=1e-15)
    assert np.allclose(a.stderr, b.stderr, rtol=1e-9, atol=1e-15)


def test_merge_is_associative(rng):
    g = Grid2D.centered(4, 4, 1e-5)
    buckets, frames = _random_series(rng, 45, (4, 4))
    parts = []
    for lo, hi in ((0, 15), (15, 30), (30, 45)):
        est = GhostImageEstimate(g)
        for b, im in zip(buckets[lo:hi], frames[lo:hi]):
            add_frame(est, b, im)
        parts.append(est)

    def fresh(i):
        est = GhostImageEstimate(g)
        est.merge(parts[i])
        return est

    left = fresh(0).merge(fresh(1)).merge(fresh(2)).finalize()
    right_inner = fresh(1).merge(fresh(2))
    right = fresh(0).merge(right_inner).finalize()
    assert np.allclose(left.ghost, right.ghost, rtol=1e-10, atol=1e-15)
    assert np.allclose(left.stderr, right.stderr, rtol=1e-10, atol=1e-15)


def test_merge_rejects_layout_mismatch():
    a = GhostImageEstimate(Grid2D.centered(4, 4, 1e-5))
    b = GhostImageEstimate(Grid2D.centered(4, 4, 2e-5))
    with pytest.raises(ValidationError, match="grids"):
        a.merge(b)
    # Sums centred by other means are sums of other values.
    for means in ((2.0, 1.0), (1.0, 2.0)):
        with pytest.raises(ValidationError, match="means"):
            a.merge(GhostImageEstimate(a.grid, *means))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 4), (252,), (65, 65)])
def test_median_is_numpys_median(rng, shape):
    values = rng.normal(size=shape) * 1e6
    assert _median(values) == float(np.median(values))


def test_psf_metrics_on_gaussian():
    g = Grid2D.centered(65, 65, 6e-6)
    sigma = 40e-6
    img = oracles.gaussian_image(g, sigma=sigma, amplitude=3.0, pedestal=0.5)
    m = psf_metrics(img, g)
    expected_fwhm = sigma * 2.0 * math.sqrt(2.0 * math.log(2.0))
    assert m.fwhm_x == pytest.approx(expected_fwhm, rel=0.02)
    assert m.fwhm_y == pytest.approx(expected_fwhm, rel=0.02)
    assert m.second_moment_width == pytest.approx(sigma * math.sqrt(2.0), rel=0.02)
    # The border median carries a ~e^-11 Gaussian tail above the pedestal.
    assert m.baseline == pytest.approx(0.5, abs=1e-4)
    assert m.peak_value == pytest.approx(3.5, rel=1e-6)
    assert m.peak_x == 0.0 and m.peak_y == 0.0
    assert m.peak_stderr is None


def test_psf_metrics_off_center_peak():
    g = Grid2D.centered(65, 65, 6e-6)
    img = oracles.gaussian_image(g, sigma=30e-6, amplitude=1.0, pedestal=0.0,
                                 center=(36e-6, -48e-6))
    m = psf_metrics(img, g)
    assert m.peak_x == pytest.approx(36e-6)
    assert m.peak_y == pytest.approx(-48e-6)


def test_psf_metrics_width_is_between_the_two_interpolated_crossings():
    # The row falls to half maximum 4/7 of a pixel out on the left and
    # 2/3 on the right; the column symmetrically, 1/3 of a pixel out each side.
    g = Grid2D.centered(9, 9, 6e-6)
    img = np.zeros((9, 9))
    img[4, :] = [0.0, 0.0, 0.2, 0.9, 1.0, 0.7, 0.4, 0.0, 0.0]
    img[:, 4] = [0.0, 0.0, 0.0, 0.75, 1.0, 0.75, 0.0, 0.0, 0.0]
    m = psf_metrics(img, g)
    xs, ys = g.x(), g.y()
    left = xs[3] + (0.9 - 0.5) / (0.9 - 0.2) * (xs[2] - xs[3])
    right = xs[5] + (0.7 - 0.5) / (0.7 - 0.4) * (xs[6] - xs[5])
    assert m.fwhm_x == right - left
    bottom = ys[3] + (0.75 - 0.5) / (0.75 - 0.0) * (ys[2] - ys[3])
    top = ys[5] + (0.75 - 0.5) / (0.75 - 0.0) * (ys[6] - ys[5])
    assert m.fwhm_y == top - bottom


def test_psf_metrics_flat_image_has_no_peak():
    g = Grid2D.centered(16, 16, 1e-5)
    with pytest.raises(NoDetectionError):
        psf_metrics(np.ones((16, 16)), g)


def test_psf_metrics_significance_gate():
    g = Grid2D.centered(33, 33, 6e-6)
    img = oracles.gaussian_image(g, sigma=30e-6, amplitude=1.0, pedestal=0.0)
    quiet = np.full((33, 33), 1e-3)
    m = psf_metrics(img, g, stderr=quiet)
    assert m.peak_stderr == pytest.approx(1e-3)
    loud = np.full((33, 33), 0.5)
    with pytest.raises(NoDetectionError, match="standard"):
        psf_metrics(img, g, stderr=loud)
    with pytest.raises(ValidationError, match="stderr"):
        psf_metrics(img, g, stderr=np.ones((3, 3)))


def test_psf_metrics_unresolved_peak():
    # A peak sitting on the grid edge walks out of the image before the
    # profile falls to half maximum.
    g = Grid2D.centered(9, 9, 6e-6)
    img = oracles.gaussian_image(g, sigma=12e-6, amplitude=1.0, pedestal=0.0,
                                 center=(float(g.x()[-1]), 0.0))
    with pytest.raises(NoDetectionError, match="unresolved"):
        psf_metrics(img, g)


def test_psf_metrics_input_validation():
    g = Grid2D.centered(8, 8, 1e-5)
    with pytest.raises(ValidationError):
        psf_metrics(np.ones((4, 4)), g)
    bad = np.ones((8, 8))
    bad[0, 0] = math.nan
    with pytest.raises(ValidationError):
        psf_metrics(bad, g)
