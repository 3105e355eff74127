import math

import numpy as np
import pytest

import oracles
from ghost_turb.correlator import (GhostImageEstimate, ObjectMask, bucket_signal,
                                   bucket_signals, double_slit_mask, point_mask, psf_metrics,
                                   three_bar_mask)
from ghost_turb.errors import (InsufficientDataError, NoDetectionError,
                               ValidationError)
from ghost_turb.optics import ComplexField, Grid2D, intensity


def test_object_mask_validation():
    g = Grid2D.centered(4, 4, 1e-5)
    with pytest.raises(ValidationError, match="shape"):
        ObjectMask(grid=g, transmissivity=np.zeros((3, 4)))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        ObjectMask(grid=g, transmissivity=np.full((4, 4), 1.5))
    with pytest.raises(ValidationError):
        ObjectMask(grid=g, transmissivity=np.full((4, 4), math.nan))


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


def test_bucket_signal_manual(rng):
    g = Grid2D.centered(6, 6, 2e-5)
    vals = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    field = ComplexField(grid=g, values=vals)
    t = rng.uniform(0, 1, size=(6, 6))
    mask = ObjectMask(grid=g, transmissivity=t)
    expected = float(np.sum(np.abs(vals) ** 2 * t) * (2e-5) ** 2)
    assert bucket_signal(field, mask) == pytest.approx(expected, rel=1e-12)
    other = ObjectMask(grid=Grid2D.centered(6, 6, 3e-5), transmissivity=t)
    with pytest.raises(ValidationError, match="grid"):
        bucket_signal(field, other)


def test_bucket_signals_of_a_stack_match_each_frame(rng):
    g = Grid2D.centered(9, 7, 2e-5)
    mask = ObjectMask(grid=g, transmissivity=rng.uniform(0, 1, size=(7, 9)))
    vals = rng.normal(size=(5, 7, 9)) + 1j * rng.normal(size=(5, 7, 9))
    stack = bucket_signals(intensity(vals), mask)
    assert stack.shape == (5,)
    for i in range(5):
        assert stack[i] == bucket_signal(ComplexField(grid=g, values=vals[i]), mask)
    with pytest.raises(ValidationError, match="mask grid"):
        bucket_signals(np.ones((5, 9, 7)), mask)


def _random_series(rng, n, shape):
    buckets = rng.gamma(2.0, 1.0, size=n)
    frames = rng.gamma(1.5, 1.0, size=(n,) + shape)
    return buckets, frames


def test_estimate_matches_direct_moments(rng):
    g = Grid2D.centered(5, 4, 1e-5)
    buckets, frames = _random_series(rng, 50, (4, 5))
    est = GhostImageEstimate(g)
    for b, im in zip(buckets, frames):
        est.add(b, im)
    res = est.finalize()
    mb = buckets.mean()
    mi = frames.mean(axis=0)
    ghost = (buckets[:, None, None] * frames).mean(axis=0) - mb * mi
    assert np.allclose(res.ghost, ghost, rtol=1e-12, atol=1e-14)
    assert np.allclose(res.background, mb * mi, rtol=1e-12)
    central4 = ((buckets[:, None, None] - mb) ** 2 * (frames - mi) ** 2).mean(axis=0)
    stderr = np.sqrt(np.maximum(central4 - ghost**2, 0.0) / 50.0)
    assert np.allclose(res.stderr, stderr, rtol=1e-9, atol=1e-13)
    assert res.frames == 50


def test_estimate_needs_two_frames():
    g = Grid2D.centered(3, 3, 1e-5)
    est = GhostImageEstimate(g)
    est.add(1.0, np.ones((3, 3)))
    with pytest.raises(InsufficientDataError, match="at least 2"):
        est.finalize()


def test_estimate_rejects_bad_frames():
    g = Grid2D.centered(3, 3, 1e-5)
    est = GhostImageEstimate(g)
    with pytest.raises(ValidationError, match="shape"):
        est.add(1.0, np.ones((2, 3)))
    with pytest.raises(ValidationError, match="finite"):
        est.add(math.nan, np.ones((3, 3)))
    with pytest.raises(ValidationError, match="finite"):
        est.add(1.0, np.full((3, 3), math.inf))


def test_batched_add_equals_frame_by_frame(rng):
    g = Grid2D.centered(5, 4, 1e-5)
    buckets, frames = _random_series(rng, 40, (4, 5))
    single = GhostImageEstimate(g)
    for b, im in zip(buckets, frames):
        single.add(b, im)
    batched = GhostImageEstimate(g).add(buckets[:32], frames[:32]).add(buckets[32:], frames[32:])
    assert batched.n == single.n == 40
    for name in ("s_b", "s_b2", "s_i", "s_i2", "s_bi", "s_b2i", "s_bi2", "s_b2i2"):
        assert np.allclose(getattr(batched, name), getattr(single, name), rtol=1e-13, atol=0)
    with pytest.raises(ValidationError, match="shape"):
        GhostImageEstimate(g).add(buckets[:3], frames[:2])


def test_merge_equals_single_pass(rng):
    g = Grid2D.centered(4, 4, 1e-5)
    buckets, frames = _random_series(rng, 60, (4, 4))
    whole = GhostImageEstimate(g)
    for b, im in zip(buckets, frames):
        whole.add(b, im)
    left = GhostImageEstimate(g)
    right = GhostImageEstimate(g)
    for b, im in zip(buckets[:25], frames[:25]):
        left.add(b, im)
    for b, im in zip(buckets[25:], frames[25:]):
        right.add(b, im)
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
            est.add(b, im)
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
