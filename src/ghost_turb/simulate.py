"""Batched ghost imaging runs.

Frames run in fixed batches of BATCH_FRAMES.  A batch draws its
subsource amplitudes and, when turbulence is on, each path's screen
mode coefficients as frame-major blocks, each from one generator keyed
(seed, batch_index, stream).  It evaluates the source-plane screens
exactly at the subsources through the screen mode table, propagates to
the object and reference planes with the separable lattice form of the
Fresnel kernel, and folds its frames into the bucket/reference moment
sums at once.  Batches are merged in order and BLAS runs on one thread
in every process, so results are identical for any worker count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import multiprocessing

import numpy as np

from .correlator import GhostImageEstimate, GhostImageResult, ObjectMask, bucket_signals
from .errors import ConfigurationError, ValidationError
from .optics import Grid2D, LatticePropagator, OpticalConfig, intensity, propagate_subsources
from .source import (BATCH_FRAMES, RNG_DOMAIN_SOURCE, SubsourceSet, batch_generator,
                     draw_amplitudes)
from .turbulence import ScreenSampler, TurbulenceModel

# Streams of the per-batch screen draws (the source module owns 1).
RNG_DOMAIN_SCREEN_BUCKET = 2
RNG_DOMAIN_SCREEN_REFERENCE = 3

# Each of the two path screens carries half of the pair phase-structure
# variance, so its own target coherence length is sqrt(2) times the
# configured two-path rho0; the product of the two path coherence
# factors then reproduces exp(-r^2 / rho0^2).
PER_PATH_RHO0_FACTOR = math.sqrt(2.0)

@dataclass(frozen=True, eq=False)
class RunSetup:
    """Fully resolved inputs of one simulation run."""

    cfg: OpticalConfig
    sources: SubsourceSet
    model: TurbulenceModel
    mask: ObjectMask
    ref_grid: Grid2D
    frames: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ValidationError(f"frames must be >= 1, got {self.frames}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True, eq=False)
class SimulationOutput:
    setup: RunSetup
    estimate: GhostImageEstimate
    result: GhostImageResult
    wall_time_s: float
    blas_threads: int | None = None   # OpenBLAS threads per batch; None if not pinned


def per_path_screen_model(model: TurbulenceModel) -> TurbulenceModel:
    """Screen-generation model for one of the two independent paths."""
    if not model.turbulent:
        return model
    return TurbulenceModel(rho0=PER_PATH_RHO0_FACTOR * model.rho0,
                           screen_position_fraction=model.screen_position_fraction,
                           paths_independent=model.paths_independent)


def source_screen_grid(sources: SubsourceSet, model: TurbulenceModel) -> Grid2D:
    """Source-plane screen grid covering every subsource with margin."""
    pos = sources.positions
    reach = float(np.max(np.abs(pos))) if pos.size else 0.0
    pitch = min(model.rho0 / 5.0, sources.pitch / 2.0)
    if not (math.isfinite(pitch) and pitch > 0):
        pitch = sources.pitch / 2.0
    half_px = int(math.ceil((reach + 2.0 * pitch) / pitch))
    n = 2 * half_px + 1
    return Grid2D(nx=n, ny=n, pitch=pitch, center=(0.0, 0.0))


def midpath_screen_grid(setup: RunSetup, max_pixels: int = 128) -> Grid2D:
    """Screen-plane grid for an intermediate screen position."""
    f = setup.model.screen_position_fraction
    cfg = setup.cfg
    pos = setup.sources.positions
    src_r = float(np.max(np.hypot(pos[:, 0], pos[:, 1])))
    candidates = []
    for g in (setup.mask.grid, setup.ref_grid):
        pts = g.points()
        candidates.append(float(np.max(np.hypot(pts[..., 0], pts[..., 1]))))
    dst_r = max(candidates)
    l1 = f * cfg.path_length
    l2 = (1.0 - f) * cfg.path_length
    fresnel = math.sqrt(cfg.wavelength * l1 * l2 / cfg.path_length)
    footprint = (1.0 - f) * src_r + f * dst_r + 3.0 * fresnel
    half = footprint / 0.8
    k = cfg.wavenumber
    grad = k * (footprint + src_r) / l1 + k * (footprint + dst_r) / l2
    pitch = 0.8 * math.pi / grad
    if setup.model.turbulent:
        pitch = min(pitch, setup.model.rho0 / 5.0)
    n = 2 * int(math.ceil(half / pitch)) + 1
    if n > max_pixels:
        raise ConfigurationError(
            f"intermediate screen needs a {n}^2 grid (> {max_pixels}^2); shrink the "
            "source or detector extents, or move the screen to an end plane"
        )
    return Grid2D(nx=n, ny=n, pitch=pitch, center=(0.0, 0.0))


class FramePipeline:
    """Propagation factors and screen modes for a run's frame loop.

    A batch is processed as matrices: its (n, M) amplitude block, one
    GEMM per path for the source-plane screen phases at the subsources,
    the separable lattice propagation to both detector planes, and one
    batched moment update.
    """

    def __init__(self, setup: RunSetup):
        self.setup = setup
        cfg = setup.cfg
        sources = setup.sources
        mask = setup.mask
        self.obj = LatticePropagator(sources.positions, sources.pitch, mask.grid, cfg,
                                     BATCH_FRAMES)
        self.ref = LatticePropagator(sources.positions, sources.pitch, setup.ref_grid, cfg,
                                     BATCH_FRAMES)
        self._obj_maps = np.empty((BATCH_FRAMES, mask.grid.ny, mask.grid.nx))
        self._ref_maps = np.empty((BATCH_FRAMES, setup.ref_grid.ny, setup.ref_grid.nx))
        self.screen_sampler = None
        self.mode_table = None
        self.mid_grid = None
        model = setup.model
        fraction = model.screen_position_fraction
        if model.turbulent and fraction == 0.0:
            grid = source_screen_grid(sources, model)
            self.screen_sampler = ScreenSampler(grid, per_path_screen_model(model))
            self.mode_table = self.screen_sampler.mode_table(sources.positions)
        elif model.turbulent and 0.0 < fraction < 1.0:
            self.mid_grid = midpath_screen_grid(setup)
            self.screen_sampler = ScreenSampler(self.mid_grid, per_path_screen_model(model))
        # A detector-plane screen (fraction 1) multiplies each pixel's
        # summed field by a unit-modulus factor, so no bucket or
        # reference intensity can depend on it; it is not drawn at all,
        # which keeps such a run equal to the vacuum run frame by frame.

    def path_draws(self, batch_index: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Screen draws (count, K, 2) of the bucket and reference paths.

        With coupled paths both are the same array.
        """
        seed = self.setup.seed
        draw = self.screen_sampler.draw
        bucket = draw(batch_generator(seed, batch_index, RNG_DOMAIN_SCREEN_BUCKET), count)
        if not self.setup.model.paths_independent:
            return bucket, bucket
        return bucket, draw(batch_generator(seed, batch_index, RNG_DOMAIN_SCREEN_REFERENCE),
                            count)

    def _fields(self, batch_index: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        setup = self.setup
        rng = batch_generator(setup.seed, batch_index, RNG_DOMAIN_SOURCE)
        amps = draw_amplitudes(setup.sources, rng, count)
        if self.screen_sampler is None:
            return self.obj(amps), self.ref(amps)
        draws_b, draws_r = self.path_draws(batch_index, count)
        if self.mid_grid is None:
            eff_b = amps * np.exp(1j * (draws_b.reshape(count, -1) @ self.mode_table))
            eff_r = eff_b if draws_r is draws_b else (
                amps * np.exp(1j * (draws_r.reshape(count, -1) @ self.mode_table)))
            return self.obj(eff_b), self.ref(eff_r)
        # Intermediate screen: a two-leg propagation per frame and path.
        model = per_path_screen_model(setup.model)
        pos = setup.sources.positions
        obj, ref = [], []
        screen = self.screen_sampler.screen
        for i in range(count):
            screen_b = screen(draws_b[i], (setup.seed, batch_index, RNG_DOMAIN_SCREEN_BUCKET, i))
            screen_r = screen_b if draws_r is draws_b else screen(
                draws_r[i], (setup.seed, batch_index, RNG_DOMAIN_SCREEN_REFERENCE, i))
            obj.append(propagate_subsources(amps[i], pos, screen_b, model,
                                            setup.mask.grid, setup.cfg).values)
            ref.append(propagate_subsources(amps[i], pos, screen_r, model,
                                            setup.ref_grid, setup.cfg).values)
        return np.stack(obj), np.stack(ref)

    def frames(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Buckets (n,) and reference intensity maps (n, ny, nx) of frames start..stop-1.

        start must begin a batch and stop may not pass its end.  The maps
        are a view of a buffer that the next call overwrites.
        """
        batch_index, offset = divmod(start, BATCH_FRAMES)
        if start < 0 or offset or not start < stop <= start + BATCH_FRAMES:
            raise ValidationError(f"frames [{start}, {stop}) are not the head of one batch")
        count = stop - start
        obj, ref = self._fields(batch_index, count)
        buckets = bucket_signals(intensity(obj, self._obj_maps[:count]), self.setup.mask)
        return buckets, intensity(ref, self._ref_maps[:count])

    def batch(self, start: int, stop: int) -> GhostImageEstimate:
        return GhostImageEstimate(self.setup.ref_grid).add(*self.frames(start, stop))


def batch_ranges(frames: int) -> list[tuple[int, int]]:
    return [(s, min(s + BATCH_FRAMES, frames)) for s in range(0, frames, BATCH_FRAMES)]


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    A product's bits depend on the BLAS thread count, so every process
    that computes batches uses one thread; that keeps results equal for
    any worker count.  Yields the thread count used, or None when
    numpy's OpenBLAS is not found and the count is left alone.
    """
    api = _openblas()
    if api is None:
        yield None
        return
    get, put = api
    previous = get()
    put(1)
    try:
        yield 1
    finally:
        put(previous)


_WORKER_PIPELINE: FramePipeline | None = None


def _init_worker(setup: RunSetup) -> None:
    global _WORKER_PIPELINE
    api = _openblas()
    if api is not None:
        _, set_threads = api
        set_threads(1)
    _WORKER_PIPELINE = FramePipeline(setup)


def _worker_batch(span: tuple[int, int]) -> GhostImageEstimate:
    assert _WORKER_PIPELINE is not None
    return _WORKER_PIPELINE.batch(span[0], span[1])


def run_simulation(setup: RunSetup) -> SimulationOutput:
    """Run all frames and return the finalized covariance image.

    Frames are split into fixed BATCH_FRAMES-sized batches and the
    partial estimates merged in batch order whether the batches run
    serially or on a process pool, so any worker count produces
    bit-identical results.
    """
    t0 = time.perf_counter()
    spans = batch_ranges(setup.frames)
    estimate = GhostImageEstimate(setup.ref_grid)
    if setup.workers == 1:
        with one_blas_thread() as blas_threads:
            pipeline = FramePipeline(setup)
            for span in spans:
                estimate.merge(pipeline.batch(*span))
    else:
        blas_threads = 1 if _openblas() is not None else None
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=setup.workers, mp_context=ctx,
                                 initializer=_init_worker, initargs=(setup,)) as pool:
            for part in pool.map(_worker_batch, spans):
                estimate.merge(part)
    result = estimate.finalize()
    return SimulationOutput(setup=setup, estimate=estimate, result=result,
                            wall_time_s=time.perf_counter() - t0, blas_threads=blas_threads)
