import math

import numpy as np
import pytest

from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.optics import (ComplexField, Grid2D, LatticePropagator, OpticalConfig,
                               _edge_window, fresnel_kernel, greens_function,
                               propagate_subsources)
from ghost_turb.source import make_source_grid
from ghost_turb.turbulence import TurbulenceModel, generate_phase_screen

CFG = OpticalConfig(wavelength=780e-9, path_length=1.4)


def test_optical_config_validation():
    with pytest.raises(ValidationError):
        OpticalConfig(wavelength=0.0, path_length=1.0)
    with pytest.raises(ValidationError):
        OpticalConfig(wavelength=780e-9, path_length=math.inf)
    assert CFG.wavenumber == pytest.approx(2.0 * math.pi / 780e-9)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid2D(nx=0, ny=4, pitch=1e-6)
    with pytest.raises(ValidationError):
        Grid2D(nx=4, ny=4, pitch=-1e-6)
    with pytest.raises(ValidationError):
        Grid2D(nx=4, ny=4, pitch=1e-6, center=(math.nan, 0.0))


def test_grid_centered_puts_origin_on_a_pixel():
    odd = Grid2D.centered(9, 9, 1e-4)
    assert odd.center == (0.0, 0.0)
    assert np.min(np.abs(odd.x())) == 0.0
    even = Grid2D.centered(64, 64, 12e-6)
    assert even.center == (6e-6, 6e-6)
    assert np.min(np.abs(even.x())) == 0.0
    off = Grid2D.centered(64, 64, 12e-6, on_pixel=False)
    assert off.center == (0.0, 0.0)
    assert np.min(np.abs(off.x())) == pytest.approx(6e-6)


def test_grid_coordinates_and_span():
    g = Grid2D(nx=4, ny=3, pitch=2.0, center=(1.0, -1.0))
    assert np.allclose(g.x(), [-2.0, 0.0, 2.0, 4.0])
    assert np.allclose(g.y(), [-3.0, -1.0, 1.0])
    pts = g.points()
    assert pts.shape == (3, 4, 2)
    assert pts[1, 2, 0] == 2.0 and pts[1, 2, 1] == -1.0
    assert g.span() == ((-2.0, 4.0), (-3.0, 1.0))


def test_grid_same_layout():
    a = Grid2D.centered(8, 8, 1e-5)
    assert a.same_layout(Grid2D.centered(8, 8, 1e-5))
    assert not a.same_layout(Grid2D.centered(8, 8, 2e-5))
    assert not a.same_layout(Grid2D.centered(8, 9, 1e-5))


def test_complex_field_validation():
    g = Grid2D.centered(3, 3, 1e-5)
    with pytest.raises(ValidationError, match="complex"):
        ComplexField(grid=g, values=np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="shape"):
        ComplexField(grid=g, values=np.zeros((3, 4), dtype=complex))
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = complex(math.nan, 0.0)
    with pytest.raises(ValidationError, match="finite"):
        ComplexField(grid=g, values=bad)
    vals = np.full((3, 3), 1.0 + 2.0j)
    assert np.allclose(ComplexField(grid=g, values=vals).intensity(), 5.0)


def test_greens_function_modulus_and_phase(rng):
    dst = rng.uniform(-1e-3, 1e-3, size=(20, 2))
    src = rng.uniform(-1e-3, 1e-3, size=(20, 2))
    g = greens_function(dst, src, CFG)
    assert np.allclose(np.abs(g), 1.0 / (CFG.wavelength * CFG.path_length))
    same = greens_function(np.zeros(2), np.zeros(2), CFG)
    expected = (-1j / (CFG.wavelength * CFG.path_length)) * np.exp(
        1j * CFG.wavenumber * CFG.path_length)
    assert complex(same) == pytest.approx(expected, rel=1e-12)


def test_greens_function_turbulence_phase_is_multiplicative(rng):
    dst = rng.uniform(-1e-3, 1e-3, size=(7, 2))
    src = np.zeros((7, 2))
    phi = rng.uniform(-math.pi, math.pi, size=7)
    with_phase = greens_function(dst, src, CFG, turbulence_phase=phi)
    without = greens_function(dst, src, CFG)
    # The ~1e7 rad path phase kL enters as one constant factor, not as a
    # term of each element's phase, so the factoring is exact to rounding.
    assert np.allclose(with_phase, without * np.exp(1j * phi), rtol=1e-12)


def test_greens_function_rejects_bad_axes():
    with pytest.raises(ValidationError):
        greens_function(np.zeros(3), np.zeros(2), CFG)


def test_fresnel_kernel_matches_greens(rng):
    grid = Grid2D.centered(5, 4, 3e-5)
    pos = rng.uniform(-2e-3, 2e-3, size=(6, 2))
    kernel = fresnel_kernel(pos, grid, CFG)
    assert kernel.shape == (20, 6)
    pts = grid.points().reshape(-1, 2)
    manual = greens_function(pts[3], pos[2], CFG)
    assert kernel[3, 2] == pytest.approx(complex(manual), rel=1e-12)


def test_fresnel_kernel_distance_override():
    grid = Grid2D.centered(3, 3, 1e-5)
    pos = np.array([[0.0, 0.0]])
    short = fresnel_kernel(pos, grid, CFG, distance=0.5)
    leg = OpticalConfig(wavelength=CFG.wavelength, path_length=0.5)
    manual = greens_function(grid.points().reshape(-1, 1, 2), pos[None, :, :], leg)
    assert np.allclose(short, manual, rtol=1e-12)
    with pytest.raises(ValidationError):
        fresnel_kernel(pos, grid, CFG, distance=0.0)


@pytest.mark.parametrize("diameter, pitch, ref_n", [
    (11e-3, 11e-3 / 16.0, 64),      # default geometry: 197 subsources, 64^2 reference
    (2e-3, 0.5e-3, 7),
])
def test_lattice_propagator_matches_dense_kernel(rng, diameter, pitch, ref_n):
    sources = make_source_grid(diameter, pitch)
    grid = Grid2D.centered(ref_n, ref_n, 12e-6)
    amps = rng.normal(size=(3, sources.count)) + 1j * rng.normal(size=(3, sources.count))
    dense = (fresnel_kernel(sources.positions, grid, CFG) @ amps.T).T.reshape(3, ref_n, ref_n)
    separable = LatticePropagator(sources.positions, sources.pitch, grid, CFG, 3)(amps)
    assert separable.shape == (3, ref_n, ref_n)
    assert np.max(np.abs(separable - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_lattice_propagator_rejects_off_lattice_positions():
    grid = Grid2D.centered(4, 4, 1e-5)
    pos = np.array([[0.0, 0.0], [1e-3, 0.0], [0.5e-3, 0.25e-3]])
    with pytest.raises(ConfigurationError, match="off the square lattice"):
        LatticePropagator(pos, 0.5e-3, grid, CFG, 1)
    # A decimal pitch that is not exact in binary still counts as on the lattice.
    LatticePropagator(np.array([[0.3e-3, -0.7e-3]]), 0.1e-3, grid, CFG, 1)
    # Two subsources on one node would overwrite each other on the lattice.
    pos = np.array([[0.0, 0.0], [1e-3, 0.0], [1e-3, 0.0]])
    with pytest.raises(ConfigurationError, match="share a node"):
        LatticePropagator(pos, 0.5e-3, grid, CFG, 1)


def test_propagate_direct_sum_and_linearity(rng):
    grid = Grid2D.centered(6, 6, 2e-5)
    pos = rng.uniform(-3e-3, 3e-3, size=(5, 2))
    a1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    a2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    f1 = propagate_subsources(a1, pos, None, None, grid, CFG)
    f2 = propagate_subsources(a2, pos, None, None, grid, CFG)
    f12 = propagate_subsources(a1 + a2, pos, None, None, grid, CFG)
    assert np.allclose(f12.values, f1.values + f2.values, rtol=1e-10, atol=1e-6)
    manual = (fresnel_kernel(pos, grid, CFG) @ a1).reshape(6, 6)
    assert np.array_equal(f1.values, manual)


def test_propagate_validates_inputs(rng):
    grid = Grid2D.centered(4, 4, 1e-5)
    pos = np.zeros((3, 2))
    with pytest.raises(ValidationError, match="amplitudes shape"):
        propagate_subsources(np.ones(2, dtype=complex), pos, None, None, grid, CFG)
    with pytest.raises(ValidationError, match="finite"):
        propagate_subsources(np.array([1.0, math.inf, 0.0], dtype=complex),
                             pos, None, None, grid, CFG)
    with pytest.raises(ValidationError, match="positions"):
        propagate_subsources(np.ones(1, dtype=complex), np.zeros((0, 2)),
                             None, None, grid, CFG)


def _source_screen(rho0=5e-3, half_extent=4e-3, pitch=2.5e-4, seed=5):
    n = 2 * int(round(half_extent / pitch)) + 1
    grid = Grid2D.centered(n, n, pitch)
    model = TurbulenceModel(rho0=rho0, screen_position_fraction=0.0)
    return generate_phase_screen(grid, model, seed=seed), model


def test_propagate_source_plane_screen_matches_manual(rng):
    screen, model = _source_screen()
    grid = Grid2D.centered(5, 5, 2e-5)
    pos = rng.uniform(-3e-3, 3e-3, size=(4, 2))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    out = propagate_subsources(amps, pos, screen, model, grid, CFG)
    eff = amps * np.exp(1j * screen.sample_at(pos))
    manual = (fresnel_kernel(pos, grid, CFG) @ eff).reshape(5, 5)
    assert np.array_equal(out.values, manual)


def test_propagate_source_plane_coverage_error():
    screen, model = _source_screen(half_extent=1e-3)
    grid = Grid2D.centered(3, 3, 1e-5)
    pos = np.array([[0.0, 0.0], [2e-3, 0.0]])
    with pytest.raises(ConfigurationError, match="does not cover"):
        propagate_subsources(np.ones(2, dtype=complex), pos, screen, model, grid, CFG)


def test_propagate_detector_plane_screen_preserves_intensity(rng):
    half = 4e-3
    screen, _ = _source_screen(half_extent=half)
    model = TurbulenceModel(rho0=5e-3, screen_position_fraction=1.0)
    grid = Grid2D.centered(6, 6, 2e-5)
    pos = rng.uniform(-2e-3, 2e-3, size=(5, 2))
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    turb = propagate_subsources(amps, pos, screen, model, grid, CFG)
    vac = propagate_subsources(amps, pos, None, None, grid, CFG)
    assert np.allclose(turb.intensity(), vac.intensity(), rtol=1e-12)
    phi = screen.sample_at(grid.points().reshape(-1, 2)).reshape(6, 6)
    assert np.array_equal(turb.values, vac.values * np.exp(1j * phi))


def test_propagate_detector_plane_coverage_error(rng):
    screen, _ = _source_screen(half_extent=1e-5)
    model = TurbulenceModel(rho0=5e-3, screen_position_fraction=1.0)
    grid = Grid2D.centered(8, 8, 2e-5)
    with pytest.raises(ConfigurationError, match="does not cover"):
        propagate_subsources(np.ones(1, dtype=complex), np.zeros((1, 2)),
                             screen, model, grid, CFG)


def test_propagate_screen_without_model_is_an_error():
    screen, _ = _source_screen()
    grid = Grid2D.centered(3, 3, 1e-5)
    with pytest.raises(ConfigurationError, match="without a turbulence model"):
        propagate_subsources(np.ones(1, dtype=complex), np.zeros((1, 2)),
                             screen, None, grid, CFG)


def test_edge_window_flat_center_zero_rim():
    g = Grid2D.centered(21, 21, 1e-4)
    w = _edge_window(g)
    assert w[10, 10] == 1.0
    assert w[10, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.all((w >= 0.0) & (w <= 1.0))


def _mid_screen_grid(pitch=5e-5, half=2.4e-3):
    n = 2 * int(round(half / pitch)) + 1
    return Grid2D.centered(n, n, pitch)


def test_two_leg_vacuum_limit_matches_direct():
    # A zero screen halfway along the path: the two-leg quadrature must
    # reproduce the one-step Fresnel sum in the destination's interior.
    grid = Grid2D.centered(9, 9, 3e-5)
    pos = np.array([[2e-4, -1e-4], [-1.5e-4, 5e-5]])
    amps = np.array([1.0 + 0.2j, -0.7 + 0.4j])
    model = TurbulenceModel(rho0=math.inf, screen_position_fraction=0.5)
    screen = generate_phase_screen(_mid_screen_grid(), model, seed=1)
    two_leg = propagate_subsources(amps, pos, screen, model, grid, CFG)
    direct = propagate_subsources(amps, pos, None, None, grid, CFG)
    rel = np.abs(two_leg.values - direct.values) / np.abs(direct.values).max()
    assert float(rel.max()) < 0.01


def test_two_leg_footprint_check():
    grid = Grid2D.centered(9, 9, 3e-5)
    pos = np.array([[2e-4, 0.0]])
    model = TurbulenceModel(rho0=math.inf, screen_position_fraction=0.5)
    small = generate_phase_screen(_mid_screen_grid(half=4e-4), model, seed=1)
    with pytest.raises(ConfigurationError, match="footprint"):
        propagate_subsources(np.ones(1, dtype=complex), pos, small, model, grid, CFG)


def test_two_leg_pitch_check():
    grid = Grid2D.centered(9, 9, 3e-5)
    pos = np.array([[2e-4, 0.0]])
    model = TurbulenceModel(rho0=math.inf, screen_position_fraction=0.5)
    coarse = generate_phase_screen(_mid_screen_grid(pitch=4e-4), model, seed=1)
    with pytest.raises(ConfigurationError, match="undersamples"):
        propagate_subsources(np.ones(1, dtype=complex), pos, coarse, model, grid, CFG)
