import math
import tracemalloc

import numpy as np
import pytest

import oracles
from ghost_turb.analytic import (corrected_mds_lhs, immunity_criterion, mds_demo_rows,
                                 pair_coherence_factor, predicted_ghost_image)
from ghost_turb.config import config_to_setup, load_config
from ghost_turb.correlator import ObjectMask, point_mask, psf_metrics, three_bar_mask
from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.optics import Grid2D, OpticalConfig
from ghost_turb.simulate import RunSetup
from ghost_turb.source import SubsourceSet, make_source_grid
from ghost_turb.turbulence import TurbulenceModel
from oracles import glauber_pair_term

CFG = OpticalConfig(wavelength=780e-9, path_length=1.4)
RHO0 = 0.0497
MODEL = TurbulenceModel(rho0=RHO0)


def _setup(ref_grid, mask, sources, rho0=RHO0):
    """The closed form's inputs: a run of the module's optics at rho0."""
    return RunSetup(cfg=CFG, sources=sources, model=TurbulenceModel(rho0=rho0), mask=mask,
                    ref_grid=ref_grid, frames=3, seed=0)


def test_bracket_is_two_at_coincident_subsources(rng):
    rb = rng.uniform(-1e-3, 1e-3, size=(8, 2))
    rp = rng.uniform(-1e-3, 1e-3, size=(8, 2))
    rm = rng.uniform(-5e-3, 5e-3, size=(8, 2))
    val = pair_coherence_factor(rb, rp, rm, rm, CFG, MODEL)
    assert np.allclose(val, 2.0, rtol=0, atol=1e-12)


def test_bracket_at_one_coherence_length():
    # Coincident detectors kill the geometric phase; subsources one
    # coherence length apart leave 1 + exp(-1).
    rb = np.array([3e-4, -2e-4])
    rm = np.array([0.0, 0.0])
    rmp = np.array([RHO0, 0.0])
    val = pair_coherence_factor(rb, rb, rm, rmp, CFG, MODEL)
    assert float(val) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-12)


def test_bracket_bounds_battery(rng):
    n = 5000
    rb = rng.uniform(-2e-3, 2e-3, size=(n, 2))
    rp = rng.uniform(-2e-3, 2e-3, size=(n, 2))
    rm = rng.uniform(-6e-3, 6e-3, size=(n, 2))
    rmp = rng.uniform(-6e-3, 6e-3, size=(n, 2))
    val = pair_coherence_factor(rb, rp, rm, rmp, CFG, MODEL)
    assert val.shape == (n,)
    assert np.all(val >= 0.0) and np.all(val <= 2.0)


def test_bracket_without_turbulence_keeps_full_fringe(rng):
    vacuum = TurbulenceModel(rho0=math.inf)
    rb = rng.uniform(-1e-3, 1e-3, size=(6, 2))
    rp = rng.uniform(-1e-3, 1e-3, size=(6, 2))
    rm = rng.uniform(-5e-3, 5e-3, size=(6, 2))
    rmp = rng.uniform(-5e-3, 5e-3, size=(6, 2))
    k = CFG.wavenumber
    geo = k / CFG.path_length * np.sum((rb - rp) * (rm - rmp), axis=-1)
    assert np.allclose(pair_coherence_factor(rb, rp, rm, rmp, CFG, vacuum),
                       1.0 + np.cos(geo), rtol=1e-12)


def test_bracket_manual_value():
    rb = np.array([1e-3, 0.0])
    rp = np.array([-1e-3, 0.0])
    rm = np.array([2e-3, 1e-3])
    rmp = np.array([-1e-3, -1e-3])
    k = CFG.wavenumber
    geo = k / 1.4 * ((rb - rp) @ (rm - rmp))
    gauss = math.exp(-float(np.sum((rm - rmp) ** 2)) / RHO0**2)
    expected = 1.0 + math.cos(geo) * gauss
    assert float(pair_coherence_factor(rb, rp, rm, rmp, CFG, MODEL)) == pytest.approx(
        expected, rel=1e-12)


def test_bracket_broadcasting_and_validation():
    rb = np.zeros((4, 1, 2))
    rp = np.zeros((1, 3, 2))
    rm = np.array([1e-3, 0.0])
    rmp = np.array([0.0, 0.0])
    assert pair_coherence_factor(rb, rp, rm, rmp, CFG, MODEL).shape == (4, 3)
    with pytest.raises(ValidationError):
        pair_coherence_factor(np.zeros(3), rp, rm, rmp, CFG, MODEL)


def test_glauber_prefactor():
    rb = np.array([0.0, 0.0])
    rm = np.array([0.0, 0.0])
    beta = math.pi * (0.5e-3) ** 2 / (780e-9 * 1.4)
    expected = 2.0 * beta**4 * 2.0 * 3.0 * 2.0
    term = glauber_pair_term(rb, rb, rm, rm, CFG, MODEL, 0.5e-3, power_m=2.0, power_mp=3.0)
    assert float(term) == pytest.approx(expected, rel=1e-12)
    bracket = pair_coherence_factor(rb, rb, rm, rm, CFG, MODEL)
    assert float(term / bracket) == pytest.approx(2.0 * beta**4 * 2.0 * 3.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("which", ["prefactor_radius", "power_m", "power_mp"])
def test_glauber_pair_term_rejects_scales_that_are_not_finite_and_positive(which, bad):
    scales = {"prefactor_radius": 0.5e-3, "power_m": 1.0, "power_mp": 1.0, which: bad}
    origin = np.zeros(2)
    with pytest.raises(ValidationError, match=f"{which} must be finite and > 0"):
        glauber_pair_term(origin, origin, origin, origin, CFG, MODEL, **scales)


def _point_bucket(rho_b, pitch=12e-6):
    """One fully transmissive pixel centred at rho_b."""
    grid = Grid2D(1, 1, pitch, center=(float(rho_b[0]), float(rho_b[1])))
    return ObjectMask(grid=grid, transmissivity=np.ones((1, 1)))


def test_predicted_ghost_image_matches_pair_sum_oracle():
    sources = make_source_grid(3e-3, 1e-3)
    grid = Grid2D.centered(16, 16, 12e-6)
    rb = np.array([36e-6, -24e-6])
    img = predicted_ghost_image(_setup(grid, _point_bucket(rb), sources))
    ref = oracles.pair_sum_reference(grid, rb, sources.positions, CFG.wavelength,
                                     CFG.path_length, RHO0)
    assert img.shape == (16, 16)
    assert np.allclose(img, ref, rtol=1e-10)


def test_predicted_ghost_image_peak_and_pedestal():
    sources = make_source_grid(11e-3, 1e-3)
    grid = Grid2D.centered(33, 33, 12e-6)
    rb = np.array([60e-6, -36e-6])
    img = predicted_ghost_image(_setup(grid, _point_bucket(rb), sources))
    pts = grid.points().reshape(-1, 2)
    peak_idx = np.argmax(img)
    assert np.allclose(pts[peak_idx], rb)
    # At the bucket position every cosine is 1, so the peak is the total
    # pair weight: M diagonal terms plus the Gaussian-damped cross terms.
    pos = sources.positions
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    total_weight = float(np.sum(np.exp(-d2 / RHO0**2)))
    assert img.flat[peak_idx] == pytest.approx(total_weight, rel=1e-9)
    # The pair-weight matrix is positive semidefinite, so the image never
    # goes negative anywhere on the grid.
    assert np.all(img >= -1e-9 * total_weight)


def _gray_mask(grid):
    t = np.zeros((grid.ny, grid.nx))
    t[1, 1:4] = 0.25
    t[3, 2] = 0.5
    t[4, 0:5:2] = 1.0
    return ObjectMask(grid=grid, transmissivity=t)


@pytest.mark.parametrize("make_mask", [
    lambda grid: three_bar_mask(grid, bar_width=12e-6, height=36e-6),
    _gray_mask,
], ids=["three_bar", "gray"])
@pytest.mark.parametrize("rho0", [RHO0, 2e-3, math.inf], ids=["nominal", "2mm", "vacuum"])
def test_masked_prediction_is_transmissivity_weighted_pair_sum(make_mask, rho0):
    sources = make_source_grid(3e-3, 1e-3)
    ref_grid = Grid2D.centered(12, 12, 12e-6)
    mask = make_mask(Grid2D.centered(5, 5, 12e-6))
    points = mask.grid.points()
    expected = np.zeros((ref_grid.ny, ref_grid.nx))
    lit = list(zip(*np.nonzero(mask.transmissivity)))
    assert len(lit) > 1
    for iy, ix in lit:
        expected += mask.transmissivity[iy, ix] * oracles.pair_sum_reference(
            ref_grid, points[iy, ix], sources.positions, CFG.wavelength,
            CFG.path_length, rho0)
    img = predicted_ghost_image(_setup(ref_grid, mask, sources, rho0))
    assert np.allclose(img, expected, rtol=1e-10, atol=0)


def _open_mask(grid):
    return ObjectMask(grid=grid, transmissivity=np.ones((grid.ny, grid.nx)))


def _cut_disc():
    """The default 197-node disc less its rows above y = 5 pitches.

    Neither x<->y nor y -> -y symmetric, so a transposed axis or a
    flipped lag shows against the oracle.
    """
    disc = make_source_grid(11e-3, 11e-3 / 16.0)
    return SubsourceSet(nodes=disc.nodes[disc.nodes[:, 1] <= 5], pitch=disc.pitch,
                        mean_power=1.0)


@pytest.mark.parametrize("make_mask", [
    lambda grid: point_mask(grid, (24e-6, -12e-6)),
    lambda grid: three_bar_mask(grid, bar_width=12e-6, height=36e-6),
    _gray_mask,
    _open_mask,
], ids=["point", "three_bar", "gray", "open"])
@pytest.mark.parametrize("rho0", [RHO0, 2e-3, math.inf], ids=["nominal", "2mm", "vacuum"])
def test_difference_spectrum_matches_dense_pair_product(make_mask, rho0):
    # The dense O(P M^2) product over subsource pairs, on a lopsided
    # lattice, a non-square off-centre reference grid and a non-square
    # object grid; equal to 1e-12 of the image's peak.
    ref_grid = Grid2D(nx=31, ny=24, pitch=12e-6, center=(30e-6, -18e-6))
    mask = make_mask(Grid2D(nx=7, ny=5, pitch=12e-6, center=(6e-6, 0.0)))
    setup = _setup(ref_grid, mask, _cut_disc(), rho0)
    want = oracles.dense_ghost_image(setup)
    img = predicted_ghost_image(setup)
    assert img.shape == (24, 31)
    assert np.max(np.abs(img - want)) <= 1e-12 * np.max(np.abs(want))


def test_open_mask_image_is_symmetric_at_the_default_geometry():
    setup = config_to_setup(load_config(None, {"cn2": "1.5e-12", "mask": "open"}))
    img = predicted_ghost_image(setup)
    assert img.shape == (64, 64)
    assert np.max(np.abs(img - img.T)) <= 1e-12 * np.max(np.abs(img))


def _peak_normalized(img):
    """img less its border-median baseline, as psf_metrics removes it, over its peak."""
    base = np.median(np.concatenate([img[0], img[-1], img[1:-1, 0], img[1:-1, -1]]))
    return (img - base) / (img.max() - base)


@pytest.mark.parametrize("rho0", [math.inf, 5e-3, 2e-3], ids=["vacuum", "5mm", "2mm"])
def test_lattice_image_converges_to_the_continuous_disc(rho0):
    # The lattice stands in for the paper's continuous 11 mm disc.  The
    # largest difference of the peak-normalized images falls with each
    # halving of the pitch, from D/16 (the default) to D/128 (M = 12,853),
    # where it is below 1e-3 (measured 5.6e-4, 1.9e-4 and 7.6e-5).
    ref_grid = Grid2D.centered(64, 64, 12e-6)
    mask = point_mask(Grid2D.centered(9, 9, 12e-6))
    want = _peak_normalized(oracles.continuum_ghost_image(ref_grid, (0.0, 0.0), 11e-3, CFG,
                                                          rho0))
    diffs = [np.max(np.abs(want - _peak_normalized(predicted_ghost_image(
                 _setup(ref_grid, mask, make_source_grid(11e-3, 11e-3 / n), rho0)))))
             for n in (16, 32, 64, 128)]
    assert all(coarse > fine for coarse, fine in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-3


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_predicted_ghost_image_traced_peak_stays_small():
    # The difference spectrum holds 33 x 33 lags, not the 4096 x 197
    # exponentials and 197^2 pair matrices of the dense product (38 MiB).
    setup = config_to_setup(load_config(None, {"cn2": "1.5e-12", "mask": "open"}))
    assert _traced_peak_mib(lambda: predicted_ghost_image(setup)) < 2.0


def test_mds_demo_rows_traced_peak_stays_small():
    # Both cases in blocks of 4 x 4,096 draws, not one (4, 1e6) array (93 MiB).
    assert _traced_peak_mib(mds_demo_rows) < 1.0


# Unit magnitudes and zero phases, ordered (1a, 1b, 2a, 2b).
UNIT_MAG = np.ones(4)
ZERO = np.zeros(4)


def test_mds_hand_values():
    assert float(corrected_mds_lhs(UNIT_MAG, ZERO, ZERO)) == pytest.approx(4.0, rel=1e-15)
    # A mode-dependent pi shift on one detector path flips the sign of
    # one term: |e^{i pi} + 1|^2 = 0.
    flipped = [0.0, 0.0, math.pi, 0.0]
    assert float(corrected_mds_lhs(UNIT_MAG, ZERO, flipped)) == pytest.approx(0.0, abs=1e-25)
    # A mode-independent shift on detector 2 leaves the value at 4.
    common = [0.0, 0.0, 1.3, 1.3]
    assert float(corrected_mds_lhs(UNIT_MAG, ZERO, common)) == pytest.approx(4.0, rel=1e-12)


def test_mds_one_cosine_matches_the_two_exponential_sum(rng):
    n = 10_000
    mags = rng.uniform(0.0, 2.0, (4, n))
    geos = rng.uniform(-4 * math.pi, 4 * math.pi, (4, n))
    turbs = rng.uniform(-4 * math.pi, 4 * math.pi, (4, n))
    ours = corrected_mds_lhs(mags, geos, turbs)
    reference = oracles.two_exponential_mds_lhs(mags, geos, turbs)
    scale = (mags[2] * mags[1] + mags[3] * mags[0]) ** 2
    assert np.all(np.abs(ours - reference) <= 1e-12 * scale)


def test_mds_mode_independent_phase_cancels(rng):
    n = 4000
    mags = rng.uniform(0.1, 2.0, (4, n))
    geos = rng.uniform(0, 2 * math.pi, (4, n))
    t1 = rng.uniform(0, 2 * math.pi, n)
    t2 = rng.uniform(0, 2 * math.pi, n)
    corrected = corrected_mds_lhs(mags, geos, [t1, t1, t2, t2])
    clean = corrected_mds_lhs(mags, geos, ZERO)
    assert corrected.shape == clean.shape == (n,)
    assert np.allclose(corrected, clean, rtol=1e-11)
    # The turbulence part of Delta is (t2 + t1) - (t2 + t1): zero in floating point too.
    assert np.array_equal(corrected, clean)


def test_mds_mode_dependent_phase_average(rng):
    n = 200_000
    turb = rng.uniform(0, 2 * math.pi, (4, n))
    vals = corrected_mds_lhs(UNIT_MAG, ZERO, turb)
    clean = corrected_mds_lhs(UNIT_MAG, ZERO, np.zeros((4, n)))
    assert np.all(clean == 4.0)
    # Independent phases average the cross term away: mean 2, SE ~ sqrt(2/n).
    assert float(np.mean(vals)) == pytest.approx(2.0, abs=5 * math.sqrt(2.0 / n))


def test_two_photon_phases_rejects_negative_magnitudes():
    with pytest.raises(ValidationError, match="non-negative"):
        corrected_mds_lhs([-0.5, 1.0, 1.0, 1.0], ZERO, ZERO)
    mags = np.ones((4, 3))
    mags[3, 1] = -1e-300
    with pytest.raises(ValidationError, match="non-negative"):
        corrected_mds_lhs(mags, ZERO, ZERO)


@pytest.mark.parametrize("which", ["mag", "geo", "turb"])
@pytest.mark.parametrize("shape", [(), (3,), (5, 2)])
def test_mds_rejects_a_leading_axis_other_than_4(which, shape):
    args = {"mag": UNIT_MAG, "geo": ZERO, "turb": ZERO}
    args[which] = np.ones(shape)
    with pytest.raises(ValidationError, match="leading axis of 4"):
        corrected_mds_lhs(**args)


# The span rule's bias table: reference grids (pixels, pitch in um) and
# the rho0 in mm, to 1 um, at which the rule's edge lies on each.
SPAN_GRIDS = [(48, 12, 2.587), (64, 8, 2.997), (64, 12, 1.855), (128, 6, 1.855),
              (80, 12, 1.455), (64, 16, 1.359), (100, 12, 1.150)]


@pytest.mark.law
@pytest.mark.parametrize("mask", ["point", "open"])
@pytest.mark.parametrize("pixels, pitch_um, edge_mm", SPAN_GRIDS,
                         ids=[f"{n}x{p}" for n, p, _ in SPAN_GRIDS])
def test_every_admitted_width_is_within_two_percent_of_the_wide_grid_width(mask, pixels,
                                                                          pitch_um, edge_mm):
    # The closed-form FWHM, mean of x and y, on the D/16 lattice against a
    # grid 3x as wide at the same pitch with a D/64 lattice, wide enough
    # not to matter.  No admitted rho0 may be biased beyond 2%, a fifth of
    # the default compare_tolerance, and the rule admits exactly the rho0
    # above its edge.
    grid = {"ref_pixels": str(pixels), "ref_pitch": repr(pitch_um * 1e-6), "mask": mask}
    tried = (edge_mm + 0.001, edge_mm - 0.001, 2.0, 1.5)
    admitted = []
    for rho0_mm in tried:
        overrides = {**grid, "rho0": repr(rho0_mm * 1e-3)}
        try:
            narrow = config_to_setup(load_config(None, overrides))
        except ConfigurationError as exc:
            assert "half-span must be at least" in str(exc)
            continue
        wide = config_to_setup(load_config(None, {**overrides, "ref_pixels": str(3 * pixels),
                                                  "source_pitch": repr(11e-3 / 64)}))
        got, want = (psf_metrics(predicted_ghost_image(s), s.ref_grid) for s in (narrow, wide))
        bias = (got.fwhm_x + got.fwhm_y) / (want.fwhm_x + want.fwhm_y) - 1.0
        assert abs(bias) <= 0.02, rho0_mm
        admitted.append(rho0_mm)
    assert admitted == [rho0_mm for rho0_mm in tried if rho0_mm > edge_mm]


def test_immunity_criterion_boundary():
    assert immunity_criterion(11e-3, 0.0497).immune
    assert immunity_criterion(11e-3, 0.0497).margin == pytest.approx(0.0497 / 11e-3)
    assert not immunity_criterion(11e-3, 11e-3).immune
    assert not immunity_criterion(11e-3, 2e-3).immune
    assert immunity_criterion(11e-3, math.inf).immune


def test_immunity_criterion_validation():
    with pytest.raises(ValidationError):
        immunity_criterion(0.0, 0.05)
    # An infinite source has no margin to any coherence length.
    with pytest.raises(ValidationError, match="source diameter must be finite and > 0, got inf"):
        immunity_criterion(math.inf, 1.0)
    with pytest.raises(ValidationError):
        immunity_criterion(11e-3, math.nan)
