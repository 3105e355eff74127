import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ghost_turb import simulate
from ghost_turb.analytic import predicted_ghost_image
from ghost_turb.config import build_config, config_to_setup, load_config
from ghost_turb.correlator import GhostImageEstimate, ObjectMask, point_mask, three_bar_mask
from ghost_turb.errors import ValidationError
from ghost_turb.optics import Grid2D, OpticalConfig
from oracles import (PER_PATH_RHO0_FACTOR, bucket_signals, covariance_image, float32_bound,
                     fresnel_kernel, intensity, lattice_terms, per_path_screen_model,
                     propagate_subsources, unchirped)
from ghost_turb.simulate import (BATCH_FRAMES, UNIT_BATCHES, FramePipeline, RunSetup, _openblas,
                                 exact_means, merge_units, one_blas_thread, run_simulation)
from ghost_turb.source import SubsourceSet, batch_generator, draw_polar, make_source_grid
from ghost_turb.turbulence import TurbulenceModel

CFG = OpticalConfig(wavelength=780e-9, path_length=1.4)
UNIT_FRAMES = UNIT_BATCHES * BATCH_FRAMES
# Two merge units and a short batch: a run that a pool of two or three
# workers shares, ending in a short unit and a short batch.
POOL_FRAMES = 2 * UNIT_FRAMES + 5


def _setup(rho0=math.inf, fraction=0.0, frames=8, seed=99, workers=1,
           paths_independent=True, diameter=11e-3, pitch=2e-3, ref_n=16, mask=None):
    sources = make_source_grid(diameter, pitch)
    model = TurbulenceModel(rho0=rho0, screen_position_fraction=fraction,
                            paths_independent=paths_independent)
    obj_grid = Grid2D.centered(5, 5, 12e-6)
    ref_grid = Grid2D.centered(ref_n, ref_n, 12e-6)
    return RunSetup(cfg=CFG, sources=sources, model=model,
                    mask=mask or point_mask(obj_grid), ref_grid=ref_grid,
                    frames=frames, seed=seed, workers=workers)


def test_per_path_screen_model_scaling():
    turbulent = TurbulenceModel(rho0=0.0497, screen_position_fraction=0.0)
    per_path = per_path_screen_model(turbulent)
    assert per_path.rho0 == pytest.approx(math.sqrt(2.0) * 0.0497, rel=1e-15)
    assert PER_PATH_RHO0_FACTOR == pytest.approx(math.sqrt(2.0))
    assert per_path.screen_position_fraction == 0.0
    vacuum = TurbulenceModel(rho0=math.inf)
    assert per_path_screen_model(vacuum) is vacuum


def test_merge_units_layout():
    # Units are ranges of batch indices; a short last batch is one index.
    assert merge_units(10) == [range(0, 1)]
    assert merge_units(UNIT_FRAMES) == [range(0, UNIT_BATCHES)]
    assert merge_units(POOL_FRAMES) == [range(0, UNIT_BATCHES),
                                        range(UNIT_BATCHES, 2 * UNIT_BATCHES),
                                        range(2 * UNIT_BATCHES, 2 * UNIT_BATCHES + 1)]


def test_run_setup_validation():
    with pytest.raises(ValidationError):
        _setup(frames=0)
    # Refused before any draw, not at finalize, by the rule that refuses
    # the same counts in a config, with the same class and text.
    for key, value, text in (("frames", 1, "imaging runs need frames >= 3, got 1"),
                             ("frames", 2, "imaging runs need frames >= 3, got 2"),
                             ("seed", -1, "seed must be >= 0, got -1"),
                             ("workers", 0, "workers must be >= 1, got 0")):
        with pytest.raises(ValidationError) as setup:
            _setup(**{key: value})
        with pytest.raises(ValidationError) as config:
            build_config({key: str(value)})
        assert str(setup.value) == str(config.value) == text


def _close(actual, expected, rel=1e-12):
    """Equal within rel of the largest magnitude of expected."""
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(np.asarray(actual) - expected))) <= rel * scale


def _bound(setup):
    """float32 bound of a run's maps, relative to the largest float64 value.

    Every map compared is at most fourth order in the fields (x^2, the
    ghost image, its stderr), and each field element is one contraction
    of lattice_terms along the lattice route.
    """
    return float32_bound(4 * lattice_terms(setup.sources))


def _dense_run(setup):
    """Buckets (n,) and reference maps (n, ny, nx) of a run, by the dense float64 kernel.

    Every batch is drawn whole, amplitudes then tilts, and the run keeps
    the head of each batch that it reaches.  The amplitudes are the
    drawn ones without the node chirp, as the lattice path propagates
    them; the reference path's carry the relative screen pos . g.
    """
    pos, ref = setup.sources.positions, setup.ref_grid
    obj_kernel = fresnel_kernel(pos, setup.mask.grid, setup.cfg)
    ref_kernel = fresnel_kernel(pos, ref, setup.cfg)
    buckets, maps = [], []
    for index, start in enumerate(range(0, setup.frames, BATCH_FRAMES)):
        drawn, tilts = _batch_draws(setup, index)
        head = slice(0, setup.frames - start)
        amps = unchirped(drawn[head], pos, setup.cfg)
        obj = intensity(amps @ obj_kernel.T).reshape(-1, setup.mask.grid.ny, setup.mask.grid.nx)
        buckets.append(bucket_signals(obj, setup.mask))
        screened = amps * np.exp(1j * (tilts[head] @ pos.T))
        maps.append(intensity(screened @ ref_kernel.T).reshape(-1, ref.ny, ref.nx))
    return np.concatenate(buckets), np.concatenate(maps)


def _assert_batch_matches(setup, batch, direct_buckets, direct_maps):
    """A batch's centred buckets and maps against the raw float64 ones of its first frames."""
    buckets, moments = batch
    assert buckets.dtype == moments.dtype == np.float32
    mu, nu = exact_means(setup)
    bound = _bound(setup)
    assert _close(buckets[:direct_buckets.size], direct_buckets / nu - 1.0, bound)
    for i, image in enumerate(direct_maps):
        x = image / mu - 1.0
        assert _close(moments[0, ..., i], x, bound)
        assert _close(moments[1, ..., i], x * x, bound)


def _assert_run_matches(setup, result):
    """A run's maps against the two-pass float64 covariance of the dense run's draws."""
    ghost, background, stderr = covariance_image(*_dense_run(setup))
    bound = _bound(setup)
    assert result.frames == setup.frames
    assert _close(result.ghost, ghost, bound)
    assert np.all(np.abs(result.stderr - stderr) <= bound * stderr)
    assert np.all(np.abs(result.background - background) <= bound * background)


def test_vacuum_engine_matches_direct_propagation():
    # The pipeline's separable lattice propagation and the dense kernel
    # are two exact factorisations of the same Fresnel sum, so they agree
    # to float32 rounding.
    setup = _setup(frames=6)
    batch = FramePipeline(setup).batch(0)
    assert batch[1].shape == (2, 16, 16, BATCH_FRAMES)
    _assert_batch_matches(setup, batch, *_dense_run(setup))
    _assert_run_matches(setup, run_simulation(setup).result)


def test_run_ending_in_a_short_batch_matches_a_manual_loop():
    # Two full batches and a short one: the short batch is computed
    # whole, and only its first frames are added.
    setup = _setup(frames=2 * BATCH_FRAMES + 5, seed=31, pitch=3e-3, ref_n=8)
    _assert_run_matches(setup, run_simulation(setup).result)
    direct_buckets, direct_maps = _dense_run(setup)
    pipeline = FramePipeline(setup)
    for index in range(3):
        head = slice(index * BATCH_FRAMES, (index + 1) * BATCH_FRAMES)
        _assert_batch_matches(setup, pipeline.batch(index), direct_buckets[head],
                              direct_maps[head])


@pytest.mark.parametrize("overrides", [{"rho0": "inf", "source_power": "2.5"},
                                       {"rho0": "0.002"}, {"cn2": "1.5e-12", "mask": "open"}],
                         ids=["vacuum", "2mm", "open"])
def test_run_matches_a_float64_evaluation_of_the_same_draws(overrides):
    # At the default geometry, the float32 frame loop with its float64
    # sums against the dense float64 kernel and a two-pass float64
    # covariance of the same draws: three whole batches and a short one.
    # The vacuum run's source power is not 1, so both exact means carry it.
    frames = str(3 * BATCH_FRAMES + 5)
    setup = config_to_setup(load_config(None, {**overrides, "frames": frames}))
    _assert_run_matches(setup, run_simulation(setup).result)


def test_fold_unit_adds_only_the_frames_of_the_run():
    # A 37-frame run is one unit of a whole batch and the first 5 frames
    # of the next, which is computed whole.
    setup = _setup(rho0=5e-3, frames=BATCH_FRAMES + 5)
    (unit,) = merge_units(setup.frames)
    pipeline = FramePipeline(setup)
    estimate = simulate.fold_unit(pipeline, unit)
    assert estimate.n == setup.frames
    expected = GhostImageEstimate(setup.ref_grid).add(*pipeline.batch(0))
    buckets, moments = pipeline.batch(1)
    expected.add(buckets[:5], moments[..., :5])
    assert estimate.s_b == expected.s_b
    assert np.array_equal(estimate.sums, expected.sums)


@pytest.mark.parametrize("name", ["point", "three_bar", "gray", "edge"])
def test_cropped_support_buckets_equal_full_grid_buckets(name):
    grid = Grid2D.centered(9, 9, 12e-6)
    if name == "point":
        mask = point_mask(grid)
    elif name == "three_bar":
        mask = three_bar_mask(grid, bar_width=24e-6, height=60e-6)
    elif name == "gray":
        t = np.zeros((9, 9))
        t[3, 2], t[4, 4], t[6, 5] = 0.25, 0.5, 1.0
        mask = ObjectMask(grid=grid, transmissivity=t)
    else:
        t = np.zeros((9, 9))
        t[0, 6:9] = 1.0
        t[1, 8] = 0.5
        mask = ObjectMask(grid=grid, transmissivity=t)
    setup = _setup(rho0=5e-3, frames=BATCH_FRAMES, mask=mask)
    pipeline = FramePipeline(setup)
    support = pipeline.bucket_mask
    assert support.grid.nx * support.grid.ny == {"point": 1, "three_bar": 45, "gray": 16,
                                                 "edge": 6}[name]
    buckets, _ = pipeline.batch(0)
    direct, _ = _dense_run(setup)
    nu = exact_means(setup)[1]
    assert _close(buckets, direct / nu - 1.0, _bound(setup))


def _polar_draws(setup, index=0):
    """A batch's float32 radii and float64 phases (B, M), and its relative screen's tilts (B, 2).

    All come from the batch's one generator: the polar draw, then
    tilt_std times the next 2 B normals, frame-major.
    """
    rng = batch_generator(setup.seed, index)
    radius = np.empty((BATCH_FRAMES, setup.sources.count), dtype=np.float32)
    phase = np.empty(radius.shape)
    draw_polar(setup.sources, rng, radius, phase)
    return radius, phase, setup.model.tilt_std * rng.standard_normal((BATCH_FRAMES, 2))


def _batch_draws(setup, index=0):
    """A batch's amplitudes r e^{i theta} (B, M) in complex128, and its tilts (B, 2)."""
    radius, phase, tilts = _polar_draws(setup, index)
    return radius * np.exp(1j * phase), tilts


DISC = make_source_grid(11e-3, 11e-3 / 16.0)


def _tilted_setup(case):
    """A turbulent setup on a lattice and grids of the named shape.

    The lattices are the cut disc (14 rows, even, by 17 columns, odd,
    asymmetric in y), a 16 x 16 corner of the disc (even extents, off
    centre in both axes) and the whole disc, once on an off-centre
    reference grid and once with an off-centre one-pixel bucket box, at
    rho0 = 2 mm: tilts of about 0.7 rad per millimetre per component.
    """
    if case == "default":
        return _setup(rho0=5e-3, frames=5)
    centred = Grid2D.centered(5, 5, 12e-6)
    nodes, ref_grid, obj_grid, point = {
        "cut_disc": (DISC.nodes[DISC.nodes[:, 1] <= 5], Grid2D.centered(64, 64, 12e-6),
                     centred, (0.0, 0.0)),
        "even_extents": (DISC.nodes[(DISC.nodes[:, 0] <= 7) & (DISC.nodes[:, 1] <= 7)],
                         Grid2D.centered(16, 16, 12e-6), centred, (0.0, 0.0)),
        "off_centre_grid": (DISC.nodes, Grid2D(nx=7, ny=9, pitch=30e-6, center=(1e-4, -2e-4)),
                            centred, (0.0, 0.0)),
        "one_pixel_box": (DISC.nodes, Grid2D.centered(16, 16, 12e-6),
                          Grid2D(nx=5, ny=5, pitch=12e-6, center=(6e-6, -6e-6)),
                          (30e-6, -18e-6)),
    }[case]
    return replace(_setup(rho0=2e-3, frames=5),
                   sources=SubsourceSet(nodes=nodes, pitch=DISC.pitch, mean_power=1.0),
                   ref_grid=ref_grid, mask=point_mask(obj_grid, point))


@pytest.mark.parametrize("case", ["default", "cut_disc", "even_extents", "off_centre_grid",
                                  "one_pixel_box"])
def test_turbulent_engine_matches_manual_screen_loop(case):
    # The bucket path propagates the drawn amplitudes as they are; the
    # reference path carries one relative screen at the configured rho0.
    setup = _tilted_setup(case)
    _assert_batch_matches(setup, FramePipeline(setup).batch(0), *_dense_run(setup))


def test_centred_block_has_mean_zero_at_every_pixel():
    # x = I / mu - 1 and y = b / nu - 1 are centred by the exact means,
    # not by estimates, so over a 4,096-frame vacuum run every pixel's
    # mean x, and the mean y, lie within 5 standard errors of 0.  The
    # source power is not 1: a mu without it would be off by 1.5.
    setup = config_to_setup(load_config(None, {"rho0": "inf", "source_power": "2.5",
                                               "frames": "4096"}))
    pipeline = FramePipeline(setup)
    sums = np.zeros((2, setup.ref_grid.ny, setup.ref_grid.nx))
    buckets = []
    for index in range(setup.frames // BATCH_FRAMES):
        y, moments = pipeline.batch(index)
        sums += moments.sum(axis=-1, dtype=float)
        buckets.append(y.astype(float))
    n = setup.frames
    mean = sums[0] / n
    assert np.all(np.abs(mean) <= 5.0 * np.sqrt((sums[1] / n - mean**2) / n))
    y = np.concatenate(buckets)
    assert abs(y.mean()) <= 5.0 * y.std() / math.sqrt(n)


def _record_pool_sizes(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # run_simulation imports the pool class when it forks, so patch its home.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pool_has_no_more_workers_than_units(monkeypatch):
    # The fork context starts every worker at the first submit, each
    # building a pipeline, so idle workers would cost a fork apiece.
    sizes = _record_pool_sizes(monkeypatch)
    setup = _setup(rho0=5e-3, frames=POOL_FRAMES, workers=4)
    pooled = run_simulation(setup)
    assert sizes == [3]
    serial = run_simulation(replace(setup, workers=1))
    assert np.array_equal(pooled.result.ghost, serial.result.ghost)
    assert np.array_equal(pooled.result.stderr, serial.result.stderr)


@pytest.mark.parametrize("frames", [2 * BATCH_FRAMES + 5, UNIT_FRAMES])
def test_run_of_one_unit_starts_no_pool(monkeypatch, frames):
    sizes = _record_pool_sizes(monkeypatch)
    out = run_simulation(_setup(rho0=5e-3, frames=frames, workers=4))
    assert sizes == []
    assert out.result.frames == frames


def test_turbulent_buckets_equal_vacuum_buckets():
    turb = FramePipeline(_setup(rho0=2e-3, frames=BATCH_FRAMES))
    vac = FramePipeline(_setup(frames=BATCH_FRAMES))
    turb_buckets, turb_maps = turb.batch(0)
    vac_buckets, vac_maps = vac.batch(0)
    assert np.array_equal(turb_buckets, vac_buckets)
    assert not np.array_equal(turb_maps, vac_maps)


def _record_folds(monkeypatch, pipeline):
    """Copies of the planes that pipeline.batch folds, in order."""
    folded, fold = [], pipeline.fold

    def recording(planes):
        folded.append(planes.copy())
        return fold(planes)

    monkeypatch.setattr(pipeline, "fold", recording)
    return folded


def test_tilt_is_added_to_the_float64_phase(monkeypatch):
    # A turbulent batch folds the vacuum batch's planes for the bucket,
    # bit for bit, then, for the reference, the planes of the vacuum phase
    # plus g . rho, summed in float64 and rounded once to float32.
    turb = FramePipeline(_setup(rho0=2e-3, frames=BATCH_FRAMES))
    vac = FramePipeline(_setup(frames=BATCH_FRAMES))
    turb_folds, vac_folds = (_record_folds(monkeypatch, p) for p in (turb, vac))
    turb.batch(0)
    vac.batch(0)
    assert len(turb_folds) == 2 and len(vac_folds) == 1
    assert np.array_equal(turb_folds[0], vac_folds[0])
    radius, phase, tilts = _polar_draws(turb.setup)
    ix, iy, u, v = turb.setup.sources.lattice
    tilted = (phase + tilts @ np.stack([u[ix], v[iy]])).astype(np.float32)
    assert np.array_equal(turb_folds[1], radius * np.stack([np.cos(tilted), np.sin(tilted)]))


def _default_turbulent_pipeline(overrides=None):
    return FramePipeline(config_to_setup(load_config(None, overrides or {"cn2": "1.5e-12"})))


@pytest.mark.parametrize("overrides", [{"rho0": "0.002"}, None], ids=["2mm", "nominal"])
def test_turbulent_reference_map_is_the_vacuum_map_moved_by_the_tilt(overrides):
    # A source-plane tilt exp(i g . rho_m) moves the reference intensity
    # rigidly, I_turb(rho_p) = I_vac(rho_p - g L / k): the Fresnel
    # kernel's quadratic terms drop out of |U|^2.  So each frame's map is
    # the dense vacuum field of the same amplitudes, on the reference
    # grid with its center moved by -g L / k.
    pipeline = _default_turbulent_pipeline(overrides)
    setup = pipeline.setup
    _, moments = pipeline.batch(0)
    drawn, tilts = _batch_draws(setup)
    amps = unchirped(drawn, setup.sources.positions, setup.cfg)
    shifts = tilts * setup.cfg.path_length / setup.cfg.wavenumber
    cx, cy = setup.ref_grid.center
    mu = exact_means(setup)[0]
    for i in range(BATCH_FRAMES):
        moved = replace(setup.ref_grid, center=(cx - shifts[i, 0], cy - shifts[i, 1]))
        vacuum = propagate_subsources(amps[i], setup.sources.positions, moved, setup.cfg)
        assert _close(moments[0, ..., i], intensity(vacuum) / mu - 1.0,
                      _bound(setup))


def _record_generators(monkeypatch):
    """The generators that FramePipeline.batch builds, in order, with their batch indices."""
    built = []

    def recording(seed, index):
        built.append((index, batch_generator(seed, index)))
        return built[-1][1]

    monkeypatch.setattr(simulate, "batch_generator", recording)
    return built


@pytest.mark.parametrize("rho0, fraction, independent, normals", [
    (5e-3, 0.0, True, 2 * BATCH_FRAMES), (math.inf, 0.0, True, 0),
    (5e-3, 0.0, False, 0), (5e-3, 1.0, True, 0),
], ids=["independent", "vacuum", "coupled", "detector"])
def test_screen_tilts_are_tilt_std_times_the_normals_after_the_amplitudes(
        monkeypatch, rho0, fraction, independent, normals):
    # A batch's generator draws its amplitudes, then, only with
    # independent source-plane screens, tilt_std times 2 B normals for
    # the relative screen (their values are checked against the manual
    # screen loop), and nothing else.
    built = _record_generators(monkeypatch)
    setup = _setup(rho0=rho0, fraction=fraction, paths_independent=independent,
                   frames=2 * BATCH_FRAMES)
    pipeline = FramePipeline(setup)
    assert pipeline.tilt_std == (math.sqrt(2.0) / 5e-3 if normals else 0.0)
    buckets, moments = pipeline.batch(1)
    ((index, used),) = built
    rng = batch_generator(setup.seed, 1)
    rng.random((2, BATCH_FRAMES, setup.sources.count))
    rng.standard_normal(normals)
    assert index == 1
    assert used.bit_generator.state == rng.bit_generator.state
    # The same batch draws the same bits; another batch does not.
    again = FramePipeline(setup).batch(1)
    assert np.array_equal(again[0], buckets)
    assert np.array_equal(again[1], moments)
    assert not np.array_equal(pipeline.batch(0)[0], buckets)


@pytest.mark.parametrize("rho0", [5e-3, math.inf], ids=["turbulent", "vacuum"])
def test_a_batch_builds_exactly_one_generator(monkeypatch, rho0):
    built = _record_generators(monkeypatch)
    run_simulation(_setup(rho0=rho0, frames=2 * BATCH_FRAMES + 5))
    assert [index for index, _ in built] == [0, 1, 2]


def test_relative_screen_weights_are_the_closed_form_weights():
    # A pair of subsources keeps exp(-D/2) of its interference, with D the
    # variance of the relative screen's phase difference g . d:
    # exp(-tilt_std^2 |d|^2 / 2).  That must be the closed form's pair
    # weight exp(-|rho_m - rho_m'|^2 / rho0^2).
    pipeline = _default_turbulent_pipeline()
    setup = pipeline.setup
    pos = setup.sources.positions
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    weights = np.exp(-0.5 * pipeline.tilt_std**2 * d2)
    assert np.max(np.abs(weights - setup.model.pair_weight(d2))) <= 1e-12
    # The same weights in predicted_ghost_image's product give its image.
    assert setup.model.image_rho0 == setup.model.rho0
    q = setup.cfg.wavenumber / setup.cfg.path_length
    t = setup.mask.transmissivity.ravel()
    e = np.exp(1j * q * (setup.mask.grid.points().reshape(-1, 2) @ pos.T))
    mutual = (t[:, None] * e).T @ e.conj()
    r = np.exp(1j * q * (setup.ref_grid.points().reshape(-1, 2) @ pos.T))
    image = np.einsum("pm,pm->p", r.conj() @ (weights * mutual), r).real
    want = predicted_ghost_image(setup)
    assert _close(image, want.ravel())


def test_pipeline_reads_the_box_of_the_setup_mask():
    # config_to_setup's aliasing check computes the transmissive box; the
    # pipeline uses that same object rather than computing it again.
    pipeline = _default_turbulent_pipeline({"mask": "open"})
    assert pipeline.bucket_mask is pipeline.setup.mask.support
    assert pipeline.bucket_mask.grid.nx * pipeline.bucket_mask.grid.ny == 81


def test_relative_screen_has_twice_the_per_path_covariance():
    pipeline = _default_turbulent_pipeline()
    per_path = per_path_screen_model(pipeline.setup.model)
    assert pipeline.tilt_std**2 == pytest.approx(2.0 * per_path.tilt_std**2, rel=1e-15)


def test_frames_of_a_batch_do_not_depend_on_its_length():
    # Batch 1 is the short last batch of a 37-frame run and a whole batch
    # of a 64-frame run: both compute it whole, to the same bits.
    short, whole = (FramePipeline(_setup(rho0=5e-3, frames=n)) for n in (37, 2 * BATCH_FRAMES))
    buckets, moments = short.batch(1)
    whole_buckets, whole_moments = whole.batch(1)
    assert np.array_equal(buckets, whole_buckets)
    assert np.array_equal(moments, whole_moments)


def test_shared_screen_when_paths_coupled():
    # A screen shared by both paths cannot change the law of the fields,
    # so none is drawn and the frames are the vacuum frames.
    coupled = FramePipeline(_setup(rho0=5e-3, frames=BATCH_FRAMES, paths_independent=False))
    assert coupled.tilt_std == 0.0
    buckets, moments = coupled.batch(0)
    moments = moments.copy()
    vacuum = FramePipeline(_setup(frames=BATCH_FRAMES))
    vac_buckets, vac_moments = vacuum.batch(0)
    assert np.array_equal(buckets, vac_buckets)
    assert np.array_equal(moments, vac_moments)


def test_worker_count_does_not_change_any_bit():
    base = _setup(rho0=5e-3, fraction=0.0, frames=POOL_FRAMES, seed=7, pitch=3e-3, ref_n=8)
    serial = run_simulation(base)
    for workers in (2, 3):
        par = run_simulation(replace(base, workers=workers))
        assert np.array_equal(serial.result.ghost, par.result.ghost)
        assert np.array_equal(serial.result.background, par.result.background)
        assert np.array_equal(serial.result.stderr, par.result.stderr)


def test_worker_count_does_not_change_any_bit_at_full_geometry():
    setups = [config_to_setup(load_config(None, {"cn2": "1.5e-12", "frames": str(POOL_FRAMES),
                                                 "workers": str(w)}))
              for w in (1, 2)]
    assert setups[0].sources.count == 197
    assert (setups[0].ref_grid.nx, setups[0].ref_grid.ny) == (64, 64)
    serial, par = (run_simulation(s) for s in setups)
    assert serial.blas_threads == par.blas_threads
    assert np.array_equal(serial.result.ghost, par.result.ghost)
    assert np.array_equal(serial.result.background, par.result.background)
    assert np.array_equal(serial.result.stderr, par.result.stderr)


def test_pool_run_computes_under_one_blas_thread(tmp_path, monkeypatch):
    # run_simulation pins BLAS once, around the pool: the workers inherit
    # the pinned count at the fork, and the parent merges under it.
    api = _openblas()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, put = api
    fold, merge = simulate.fold_unit, GhostImageEstimate.merge
    merged_under = []

    def recording_fold(pipeline, unit):
        (tmp_path / f"{os.getpid()}-{unit[0]}").write_text(str(get()))
        return fold(pipeline, unit)

    def recording_merge(self, other):
        merged_under.append(get())
        return merge(self, other)

    monkeypatch.setattr(simulate, "fold_unit", recording_fold)
    monkeypatch.setattr(GhostImageEstimate, "merge", recording_merge)
    before = get()
    put(2)
    try:
        run_simulation(_setup(rho0=5e-3, frames=POOL_FRAMES, workers=2))
        assert get() == 2
    finally:
        put(before)
    records = {path.name: path.read_text() for path in tmp_path.iterdir()}
    assert sorted(int(name.split("-")[1]) for name in records) == [0, UNIT_BATCHES,
                                                                   2 * UNIT_BATCHES]
    assert not any(name.startswith(f"{os.getpid()}-") for name in records)
    assert set(records.values()) == {"1"}
    assert merged_under == [1, 1, 1]


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


# How far the s = 3 maps may stray from the unscaled ones, relative.  The
# float32 propagation factors of both runs round to the same values, so
# their centred frames are equal bit for bit, and only the float64 means
# that map the sums back round differently: the largest deviations
# measured (seed 7, 512 frames, both masks, vacuum and 2 mm) are 3.2e-16
# of the ghost peak, 4.0e-16 of the local stderr and 4.5e-16 of the
# closed form's peak, so 1e-14 leaves a 22x margin.  At s = 2 every
# length scales by a power of two, and the maps are exact.
SCALE_BOUND = {2: 0.0, 3: 1e-14}


@pytest.mark.law
@pytest.mark.parametrize("scale", sorted(SCALE_BOUND), ids=lambda scale: f"s{scale}")
@pytest.mark.parametrize("mask", ["point", "open"])
@pytest.mark.parametrize("rho0", [math.inf, 2e-3], ids=["vacuum", "2mm"])
def test_image_depends_on_diameter_and_rho0_only_through_their_ratio(mask, rho0, scale):
    # Scaling D and rho0 by s and both grid pitches by 1/s (source_pitch
    # stays D / 16) keeps every phase of every frame: the maps scale by
    # 1/s^2, with the bucket's pixel area, and the closed form, which has
    # no pixel area, not at all.
    base = {"seed": "7", "frames": "512", "mask": mask, "rho0": repr(rho0)}
    rc = load_config(None, base)
    scaled = {**base, "source_diameter": repr(scale * rc.source_diameter),
              "rho0": repr(scale * rho0), "object_pitch": repr(rc.object_pitch / scale),
              "ref_pitch": repr(rc.ref_pitch / scale)}
    setups = [config_to_setup(load_config(None, overrides)) for overrides in (base, scaled)]
    unscaled, shrunk = (run_simulation(setup).result for setup in setups)
    bound, area = SCALE_BOUND[scale], scale**2
    peak = np.max(np.abs(unscaled.ghost))
    assert np.all(np.abs(area * shrunk.ghost - unscaled.ghost) <= bound * peak)
    assert np.all(np.abs(area * shrunk.stderr - unscaled.stderr) <= bound * unscaled.stderr)
    closed, closed_scaled = (predicted_ghost_image(setup) for setup in setups)
    assert np.all(np.abs(closed_scaled - closed) <= bound * np.max(np.abs(closed)))
