import math
import tracemalloc

import numpy as np
import pytest

import oracles
from ghost_turb.config import config_to_setup, load_config
from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.optics import (Grid2D, LatticeFold, LatticePropagator, OpticalConfig,
                               intensity_moments)
from ghost_turb.simulate import PARAXIAL_PHASE_LIMIT, FramePipeline, check_paraxial
from oracles import (dropped_phase, fresnel_kernel, greens_function, propagate_subsources,
                     unchirped)
from ghost_turb.source import SubsourceSet, make_source_grid

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
    assert a == Grid2D.centered(8, 8, 1e-5)
    assert a != Grid2D.centered(8, 8, 2e-5)
    assert a != Grid2D.centered(8, 9, 1e-5)
    assert a != Grid2D(8, 8, 1e-5)


def test_greens_function_modulus_and_phase(rng):
    dst = rng.uniform(-1e-3, 1e-3, size=(20, 2))
    src = rng.uniform(-1e-3, 1e-3, size=(20, 2))
    g = greens_function(dst, src, CFG)
    assert np.allclose(np.abs(g), 1.0 / (CFG.wavelength * CFG.path_length))
    same = greens_function(np.zeros(2), np.zeros(2), CFG)
    expected = (-1j / (CFG.wavelength * CFG.path_length)) * np.exp(
        1j * CFG.wavenumber * CFG.path_length)
    assert complex(same) == pytest.approx(expected, rel=1e-12)


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


def test_expanded_kernel_matches_direct_differences_at_the_default_geometry():
    # fresnel_kernel expands |p - rho|^2 into one matrix product;
    # greens_function takes the differences directly.
    sources = make_source_grid(11e-3, 11e-3 / 16.0)
    grid = Grid2D.centered(64, 64, 12e-6)
    kernel = fresnel_kernel(sources.positions, grid, CFG)
    direct = greens_function(grid.points().reshape(-1, 1, 2), sources.positions[None], CFG)
    assert kernel.shape == direct.shape == (64 * 64, 197)
    assert np.max(np.abs(kernel - direct)) <= 1e-12 * np.max(np.abs(direct))


def _assert_matches_dense_kernel(prop, fold, sources, grid, amps):
    # The propagator drops a unit-modulus phase per pixel and scales the
    # field to unit mean intensity; put back, the field is the dense
    # Fresnel field of amps exp(-iq |rho_m|^2) to float32 rounding, the
    # fold having left out the node chirp.
    n = amps.shape[0]
    planar = prop(fold(oracles.planes(amps)))
    assert planar.shape == (2, grid.ny, grid.nx, n)
    assert planar.dtype == np.float32
    scale = abs(oracles.path_prefactor(CFG)) / fold.norm
    assert fold.norm == 1.0 / math.sqrt(sources.count * sources.mean_power)
    field = (planar[0] + 1j * planar[1]) * (scale * dropped_phase(sources, grid, CFG))[..., None]
    amps = unchirped(amps, sources.positions, CFG)
    dense = (fresnel_kernel(sources.positions, grid, CFG) @ amps.T).reshape(grid.ny, grid.nx, n)
    bound = oracles.float32_bound(oracles.lattice_terms(sources))
    assert np.max(np.abs(field - dense)) <= bound * np.max(np.abs(dense))


def _amplitudes(rng, n, count):
    return rng.normal(size=(n, count)) + 1j * rng.normal(size=(n, count))


@pytest.mark.parametrize("diameter, pitch, ref_n", [
    (11e-3, 11e-3 / 16.0, 64),      # default geometry: 197 subsources, 64^2 reference
    (2e-3, 0.5e-3, 7),
])
def test_lattice_propagator_matches_dense_kernel(rng, diameter, pitch, ref_n):
    sources = make_source_grid(diameter, pitch)
    grid = Grid2D.centered(ref_n, ref_n, 12e-6)
    fold = LatticeFold(sources, 3)
    _assert_matches_dense_kernel(LatticePropagator(fold, grid, CFG), fold, sources, grid,
                                 _amplitudes(rng, 3, sources.count))


DISC = make_source_grid(11e-3, 11e-3 / 16.0)


@pytest.mark.parametrize("nodes, grid", [
    # Cut disc: 14 rows (even) and 17 columns (odd), asymmetric in y.
    (DISC.nodes[DISC.nodes[:, 1] <= 5], Grid2D.centered(64, 64, 12e-6)),
    # Both extents even: 16 x 16, off centre in both axes.
    (DISC.nodes[(DISC.nodes[:, 0] <= 7) & (DISC.nodes[:, 1] <= 7)],
     Grid2D.centered(16, 16, 12e-6)),
    (DISC.nodes, Grid2D(nx=7, ny=9, pitch=30e-6, center=(1e-4, -2e-4))),
    (DISC.nodes, Grid2D(nx=1, ny=1, pitch=12e-6, center=(30e-6, -18e-6))),
], ids=["cut_disc", "even_extents", "off_centre_grid", "one_pixel_box"])
def test_lattice_propagator_matches_dense_kernel_on_any_box_and_grid(rng, nodes, grid):
    # Tilted, the same lattices and grids are checked through the frame
    # pipeline (test_turbulent_engine_matches_manual_screen_loop).
    sources = SubsourceSet(nodes=nodes, pitch=DISC.pitch, mean_power=1.0)
    fold = LatticeFold(sources, 4)
    _assert_matches_dense_kernel(LatticePropagator(fold, grid, CFG), fold, sources, grid,
                                 _amplitudes(rng, 4, sources.count))


@pytest.mark.parametrize("nodes, half_rows", [
    (DISC.nodes, np.arange(9)),
    (DISC.nodes[DISC.nodes[:, 1] <= 5], np.arange(7) + 0.5),
    (DISC.nodes + (3, -20), np.arange(9)),
], ids=["disc", "cut_disc", "off_centre"])
def test_lattice_fold_folds_the_box_in_half_per_axis(nodes, half_rows):
    # The disc's 17 columns and rows fold to 9 offsets, 0 to 8 pitches, and
    # so do those of the disc moved off the origin; the cut disc's 14 rows
    # fold to 7 offsets, 1/2 to 13/2 pitches.  The fold's offsets are the
    # non-negative halves of the lattice's centred u and v, bit for bit.
    sources = SubsourceSet(nodes, DISC.pitch, 1.0)
    ix, iy, u, v = sources.lattice
    fold = LatticeFold(sources, 1)
    assert np.array_equal(fold.offsets[0], np.arange(9) * DISC.pitch)
    assert np.array_equal(fold.offsets[1], half_rows * DISC.pitch)
    for axis, offsets in zip((u, v), fold.offsets):
        assert np.all(axis + axis[::-1] == 0.0)
        assert np.array_equal(axis[axis.size // 2:], offsets)
    assert fold(np.ones((2, 1, sources.count))).shape == (4 * half_rows.size, 2 * 9, 1)


def test_lattice_fold_takes_only_its_frame_count(rng):
    # Every call fills the same buffers, whose slots without a subsource
    # stay zero; another frame count is refused, not broadcast or cut.
    sources = make_source_grid(2e-3, 0.5e-3)
    grid = Grid2D.centered(5, 4, 12e-6)
    fold = LatticeFold(sources, 8)
    prop = LatticePropagator(fold, grid, CFG)
    for _ in range(2):
        _assert_matches_dense_kernel(prop, fold, sources, grid, _amplitudes(rng, 8, sources.count))
    for n in (1, 7, 9):
        with pytest.raises(ValidationError, match="real planes of shape"):
            fold(np.ones((2, n, sources.count), dtype=np.float32))


def test_lattice_fold_refuses_complex_amplitudes_and_other_shapes(rng):
    # A float cast of complex amplitudes would drop their imaginary part,
    # and the scatter would broadcast one plane or frame, or cut a node.
    sources = make_source_grid(2e-3, 0.5e-3)
    fold = LatticeFold(sources, 8)
    amps = _amplitudes(rng, 8, sources.count)
    for bad in (amps, oracles.planes(amps).astype(np.complex64), np.ones((8, sources.count)),
                np.ones((1, 8, sources.count)), np.ones((2, 8, sources.count + 1)),
                np.ones((2, sources.count, 8)), np.ones((2, 2, 8, sources.count))):
        with pytest.raises(ValidationError, match="real planes of shape"):
            fold(bad)


def test_lattice_fold_reads_planes_as_float32_and_keeps_a_copy(rng):
    # float64 planes fold as their float32 cast.  The block holds a copy:
    # the frame pipeline rewrites its planes with the tilt after the
    # first fold, and that must not reach a block already returned.
    sources = make_source_grid(2e-3, 0.5e-3)
    fold = LatticeFold(sources, 8)
    wide = rng.normal(size=(2, 8, sources.count))
    folded = fold(wide).copy()
    assert np.array_equal(fold(wide.astype(np.float32)), folded)
    planes = oracles.planes(_amplitudes(rng, 8, sources.count))
    block = fold(planes)
    kept = block.copy()
    planes *= 2.0
    assert np.array_equal(block, kept)


def test_lattice_propagator_takes_only_its_fold_frame_count():
    sources = make_source_grid(2e-3, 0.5e-3)
    prop = LatticePropagator(LatticeFold(sources, 8), Grid2D.centered(5, 4, 12e-6), CFG)
    for n in (1, 7, 9):
        other = LatticeFold(sources, n)
        with pytest.raises(ValueError):
            prop(other(np.ones((2, n, sources.count), dtype=np.float32)))


@pytest.mark.parametrize("overrides", [{}, {"cn2": "1.5e-12"}], ids=["vacuum", "turbulent"])
def test_a_frame_batch_allocates_little(overrides):
    # Every buffer of a batch is the pipeline's own, the draw's and the
    # tilt's included; what a steady-state batch allocates is a few small
    # vectors.
    pipeline = FramePipeline(config_to_setup(load_config(None, overrides)))
    pipeline.batch(0)
    tracemalloc.start()
    try:
        pipeline.batch(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2**20


def test_intensity_moments_in_place(rng):
    # x = re^2 + im^2 - 1 and x^2, in float32 like the frame loop's fields.
    fields = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
    x = fields[0].astype(float) ** 2 + fields[1].astype(float) ** 2 - 1.0
    out = intensity_moments(fields)
    assert out is fields and out.dtype == np.float32
    # Three rounded sums of products, then one product.
    bound = oracles.float32_bound(4)
    for plane, expected in zip(fields, (x, x * x)):
        assert np.max(np.abs(plane - expected)) <= bound * np.max(np.abs(expected))


def test_propagate_direct_sum_and_linearity(rng):
    grid = Grid2D.centered(6, 6, 2e-5)
    pos = rng.uniform(-3e-3, 3e-3, size=(5, 2))
    a1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    a2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    f1 = propagate_subsources(a1, pos, grid, CFG)
    f2 = propagate_subsources(a2, pos, grid, CFG)
    f12 = propagate_subsources(a1 + a2, pos, grid, CFG)
    assert np.allclose(f12, f1 + f2, rtol=1e-10, atol=1e-6)
    manual = (fresnel_kernel(pos, grid, CFG) @ a1).reshape(6, 6)
    assert np.array_equal(f1, manual)


def test_propagate_validates_inputs(rng):
    grid = Grid2D.centered(4, 4, 1e-5)
    pos = np.zeros((3, 2))
    with pytest.raises(ValidationError, match="amplitudes shape"):
        propagate_subsources(np.ones(2, dtype=complex), pos, grid, CFG)
    with pytest.raises(ValidationError, match="finite"):
        propagate_subsources(np.array([1.0, math.inf, 0.0], dtype=complex), pos, grid, CFG)
    with pytest.raises(ValidationError, match="positions"):
        propagate_subsources(np.ones(1, dtype=complex), np.zeros((0, 2)), grid, CFG)


def test_propagate_detector_plane_screen_preserves_intensity(rng):
    # A detector-plane screen multiplies each pixel of the summed field by
    # exp(i phi): the intensity cannot change, which is why the frame
    # pipeline never draws one.
    grid = Grid2D.centered(6, 6, 2e-5)
    screen = rng.uniform(-math.pi, math.pi, size=(6, 6))
    pos = rng.uniform(-2e-3, 2e-3, size=(5, 2))
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    vac = propagate_subsources(amps, pos, grid, CFG)
    turb = vac * np.exp(1j * screen)
    assert not np.allclose(turb, vac)
    assert np.allclose(oracles.intensity(turb), oracles.intensity(vac), rtol=1e-12)


def test_paraxial_check_uses_the_largest_source_to_pixel_offset():
    # The dropped phase k d^4 / (8 L^3) at the largest offset over every
    # subsource-pixel pair, found by brute force, sets where it raises.
    sources = make_source_grid(11e-3, 11e-3 / 16.0)
    grids = (Grid2D(nx=9, ny=5, pitch=12e-6, center=(1e-3, -2e-4)),
             Grid2D.centered(64, 64, 12e-6))
    pixels = np.concatenate([g.points().reshape(-1, 2) for g in grids])
    d2 = np.max(np.sum((sources.positions[:, None, :] - pixels[None, :, :]) ** 2, axis=-1))
    k = CFG.wavenumber
    at_limit = (k * d2**2 / (8.0 * PARAXIAL_PHASE_LIMIT)) ** (1.0 / 3.0)
    check_paraxial(sources.positions, grids, k, 1.001 * at_limit)
    with pytest.raises(ConfigurationError, match="not paraxial"):
        check_paraxial(sources.positions, grids, k, 0.999 * at_limit)
    # The default path length leaves these grids far inside the limit.
    assert k * d2**2 / (8.0 * CFG.path_length**3) < 1e-3
    check_paraxial(sources.positions, grids, k, CFG.path_length)
