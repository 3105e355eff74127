import math
from dataclasses import replace

import numpy as np
import pytest

from ghost_turb.config import config_to_setup, load_config
from ghost_turb.correlator import GhostImageEstimate, bucket_signal, point_mask
from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.optics import ComplexField, Grid2D, OpticalConfig, propagate_subsources
from ghost_turb.simulate import (BATCH_FRAMES, PER_PATH_RHO0_FACTOR,
                                 RNG_DOMAIN_SCREEN_BUCKET,
                                 RNG_DOMAIN_SCREEN_REFERENCE, FramePipeline,
                                 RunSetup, _openblas, batch_ranges, midpath_screen_grid,
                                 one_blas_thread, per_path_screen_model, run_simulation,
                                 source_screen_grid)
from ghost_turb.source import SubsourceSet, batch_generator, make_source_grid, sample_frame
from ghost_turb.turbulence import ScreenSampler, TurbulenceModel

CFG = OpticalConfig(wavelength=780e-9, path_length=1.4)


def _setup(rho0=math.inf, fraction=0.0, frames=8, seed=99, workers=1,
           paths_independent=True, diameter=11e-3, pitch=2e-3, ref_n=16):
    sources = make_source_grid(diameter, pitch)
    model = TurbulenceModel(rho0=rho0, screen_position_fraction=fraction,
                            paths_independent=paths_independent)
    obj_grid = Grid2D.centered(5, 5, 12e-6)
    ref_grid = Grid2D.centered(ref_n, ref_n, 12e-6)
    return RunSetup(cfg=CFG, sources=sources, model=model,
                    mask=point_mask(obj_grid), ref_grid=ref_grid,
                    frames=frames, seed=seed, workers=workers)


def test_per_path_screen_model_scaling():
    turbulent = TurbulenceModel(rho0=0.0497, screen_position_fraction=0.0)
    per_path = per_path_screen_model(turbulent)
    assert per_path.rho0 == pytest.approx(math.sqrt(2.0) * 0.0497, rel=1e-15)
    assert PER_PATH_RHO0_FACTOR == pytest.approx(math.sqrt(2.0))
    assert per_path.screen_position_fraction == 0.0
    vacuum = TurbulenceModel(rho0=math.inf)
    assert per_path_screen_model(vacuum) is vacuum


def test_source_screen_grid_covers_sources():
    sources = make_source_grid(11e-3, 1e-3)
    model = TurbulenceModel(rho0=2e-3, screen_position_fraction=0.0)
    grid = source_screen_grid(sources, model)
    assert grid.pitch <= 2e-3 / 5.0
    (xmin, xmax), (ymin, ymax) = grid.span()
    pos = sources.positions
    assert xmin < pos[:, 0].min() and xmax > pos[:, 0].max()
    assert ymin < pos[:, 1].min() and ymax > pos[:, 1].max()
    # Coarse turbulence: the subsource pitch limits the screen pitch.
    mild = source_screen_grid(sources, TurbulenceModel(rho0=1.0,
                                                       screen_position_fraction=0.0))
    assert mild.pitch == pytest.approx(0.5e-3)


def test_batch_ranges_layout():
    assert batch_ranges(10) == [(0, 10)]
    assert batch_ranges(BATCH_FRAMES) == [(0, BATCH_FRAMES)]
    spans = batch_ranges(2 * BATCH_FRAMES + 3)
    assert spans == [(0, BATCH_FRAMES), (BATCH_FRAMES, 2 * BATCH_FRAMES),
                     (2 * BATCH_FRAMES, 2 * BATCH_FRAMES + 3)]


def test_run_setup_validation():
    with pytest.raises(ValidationError):
        _setup(frames=0)
    with pytest.raises(ValidationError):
        _setup(seed=-1)
    with pytest.raises(ValidationError):
        _setup(workers=0)


def _close(actual, expected, rel=1e-12):
    """Equal within rel of the largest magnitude of expected."""
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(np.asarray(actual) - expected))) <= rel * scale


def test_vacuum_engine_matches_direct_propagation():
    # The pipeline's separable lattice propagation and the dense kernel
    # of propagate_subsources are two exact factorisations of the same
    # Fresnel sum, so they agree to rounding.
    setup = _setup(frames=6)
    buckets, maps = FramePipeline(setup).frames(0, setup.frames)
    est = GhostImageEstimate(setup.ref_grid)
    for i in range(setup.frames):
        amps = sample_frame(setup.sources, setup.seed, i).amplitudes
        obj = propagate_subsources(amps, setup.sources.positions, None, None,
                                   setup.mask.grid, CFG)
        ref = propagate_subsources(amps, setup.sources.positions, None, None,
                                   setup.ref_grid, CFG)
        assert buckets[i] == pytest.approx(bucket_signal(obj, setup.mask), rel=1e-12)
        assert _close(maps[i], ref.intensity())
        est.add(bucket_signal(obj, setup.mask), ref.intensity())
    direct = est.finalize()
    out = run_simulation(setup)
    assert _close(out.result.ghost, direct.ghost)
    assert _close(out.result.stderr, direct.stderr)
    assert out.result.frames == 6


def test_turbulent_engine_matches_manual_screen_loop():
    rho0 = 5e-3
    setup = _setup(rho0=rho0, fraction=0.0, frames=5)
    buckets, maps = FramePipeline(setup).frames(0, setup.frames)
    screen_grid = source_screen_grid(setup.sources, setup.model)
    sampler = ScreenSampler(screen_grid, per_path_screen_model(setup.model))
    assert sampler.model.rho0 == pytest.approx(math.sqrt(2.0) * rho0)
    pos = setup.sources.positions
    # The subsources sit on screen nodes here, where bilinear sampling of
    # the synthesized screen is exact and matches the modal evaluation.
    draws_b = sampler.draw(batch_generator(setup.seed, 0, RNG_DOMAIN_SCREEN_BUCKET), 5)
    draws_r = sampler.draw(batch_generator(setup.seed, 0, RNG_DOMAIN_SCREEN_REFERENCE), 5)
    for i in range(setup.frames):
        amps = sample_frame(setup.sources, setup.seed, i).amplitudes
        screen_b = sampler.screen(draws_b[i], (setup.seed, 0, RNG_DOMAIN_SCREEN_BUCKET, i))
        screen_r = sampler.screen(draws_r[i], (setup.seed, 0, RNG_DOMAIN_SCREEN_REFERENCE, i))
        eff_b = amps * np.exp(1j * screen_b.sample_at(pos))
        eff_r = amps * np.exp(1j * screen_r.sample_at(pos))
        obj = propagate_subsources(eff_b, pos, None, None, setup.mask.grid, CFG)
        ref = propagate_subsources(eff_r, pos, None, None, setup.ref_grid, CFG)
        assert buckets[i] == pytest.approx(bucket_signal(obj, setup.mask), rel=1e-12)
        assert _close(maps[i], ref.intensity())


def test_frames_of_a_batch_do_not_depend_on_its_length():
    pipeline = FramePipeline(_setup(rho0=5e-3, frames=BATCH_FRAMES))
    buckets, maps = pipeline.frames(BATCH_FRAMES, 2 * BATCH_FRAMES)
    maps = maps.copy()
    head_buckets, head_maps = pipeline.frames(BATCH_FRAMES, BATCH_FRAMES + 4)
    assert head_buckets[3] == pytest.approx(buckets[3], rel=1e-12)
    assert _close(head_maps[3], maps[3])
    with pytest.raises(ValidationError, match="head of one batch"):
        pipeline.frames(1, 3)
    with pytest.raises(ValidationError, match="head of one batch"):
        pipeline.frames(0, BATCH_FRAMES + 1)


def test_shared_screen_when_paths_coupled():
    setup = _setup(rho0=5e-3, fraction=0.0, frames=2, paths_independent=False)
    draws_b, draws_r = FramePipeline(setup).path_draws(0, 2)
    assert draws_r is draws_b
    independent = FramePipeline(_setup(rho0=5e-3, fraction=0.0, frames=2))
    sb, sr = independent.path_draws(0, 2)
    assert not np.array_equal(sb, sr)


def test_off_lattice_sources_are_rejected():
    setup = _setup()
    shifted = SubsourceSet(positions=setup.sources.positions + 0.3 * setup.sources.pitch,
                           mean_power=1.0, pitch=setup.sources.pitch,
                           diameter=setup.sources.diameter)
    with pytest.raises(ConfigurationError, match="lattice"):
        FramePipeline(replace(setup, sources=shifted))


def test_worker_count_does_not_change_any_bit():
    base = _setup(rho0=5e-3, fraction=0.0, frames=2 * BATCH_FRAMES + 5, seed=7,
                  pitch=3e-3, ref_n=8)
    serial = run_simulation(base)
    for workers in (2, 3):
        par = run_simulation(_setup(rho0=5e-3, fraction=0.0,
                                    frames=2 * BATCH_FRAMES + 5, seed=7,
                                    pitch=3e-3, ref_n=8, workers=workers))
        assert np.array_equal(serial.result.ghost, par.result.ghost)
        assert np.array_equal(serial.result.background, par.result.background)
        assert np.array_equal(serial.result.stderr, par.result.stderr)


def test_worker_count_does_not_change_any_bit_at_full_geometry():
    frames = 2 * BATCH_FRAMES + 5
    setups = [config_to_setup(load_config(None, {"cn2": "1.5e-12", "frames": str(frames),
                                                 "workers": str(w)}))
              for w in (1, 2)]
    assert setups[0].sources.count == 197
    assert (setups[0].ref_grid.nx, setups[0].ref_grid.ny) == (64, 64)
    serial, par = (run_simulation(s) for s in setups)
    assert serial.blas_threads == par.blas_threads
    assert np.array_equal(serial.result.ghost, par.result.ghost)
    assert np.array_equal(serial.result.background, par.result.background)
    assert np.array_equal(serial.result.stderr, par.result.stderr)


def test_blas_runs_on_one_thread_and_is_restored():
    api = _openblas()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, put = api
    before = get()
    with one_blas_thread() as threads:
        assert threads == 1
        assert get() == 1
    assert get() == before


def test_detector_plane_screen_equals_vacuum_run():
    turb = run_simulation(_setup(rho0=2e-3, fraction=1.0, frames=40, seed=3))
    vac = run_simulation(_setup(rho0=math.inf, fraction=0.0, frames=40, seed=3))
    assert np.array_equal(turb.result.ghost, vac.result.ghost)
    assert np.array_equal(turb.result.stderr, vac.result.stderr)


def test_source_plane_screen_changes_the_result():
    turb = run_simulation(_setup(rho0=2e-3, fraction=0.0, frames=40, seed=3))
    vac = run_simulation(_setup(rho0=math.inf, fraction=0.0, frames=40, seed=3))
    assert not np.array_equal(turb.result.ghost, vac.result.ghost)


def test_midpath_grid_rejects_large_geometry():
    setup = _setup(rho0=5e-3, fraction=0.5, frames=2)
    with pytest.raises(ConfigurationError, match="end plane"):
        midpath_screen_grid(setup)


def test_midpath_run_small_geometry():
    sources = make_source_grid(1e-3, 0.25e-3)
    model = TurbulenceModel(rho0=5e-3, screen_position_fraction=0.5)
    obj_grid = Grid2D.centered(5, 5, 12e-6)
    ref_grid = Grid2D.centered(8, 8, 12e-6)
    setup = RunSetup(cfg=CFG, sources=sources, model=model,
                     mask=point_mask(obj_grid), ref_grid=ref_grid,
                     frames=3, seed=5)
    grid = midpath_screen_grid(setup)
    assert grid.nx <= 128 and grid.nx % 2 == 1
    out = run_simulation(setup)
    assert out.result.frames == 3
    assert np.all(np.isfinite(out.result.ghost))
    pipeline = FramePipeline(setup)
    buckets, _ = pipeline.frames(0, setup.frames)
    amps = sample_frame(sources, 5, 0).amplitudes
    draws_b, _ = pipeline.path_draws(0, 1)
    screen_b = pipeline.screen_sampler.screen(draws_b[0], (5, 0, RNG_DOMAIN_SCREEN_BUCKET, 0))
    obj = propagate_subsources(amps, sources.positions, screen_b,
                               per_path_screen_model(model), obj_grid, CFG)
    assert buckets[0] == bucket_signal(obj, setup.mask)
