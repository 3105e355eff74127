"""Batched ghost imaging runs.

Frames run in whole batches of BATCH_FRAMES, and every buffer of the
frame loop holds one batch.  A batch draws from one generator, keyed
by the seed and the batch index: its subsource amplitudes in polar
form, a float32 radius and a float64 phase per subsource, as
frame-major blocks (source.draw_polar), then, only when independent
source-plane screens are on, one relative screen's two tilt normals per
frame.  So a frame's draws do not depend on the run's length, and a
turbulent batch's amplitudes are the vacuum batch's.  A run whose
length is not a multiple of BATCH_FRAMES computes its last batch whole
and adds only the frames before its end.  The batch writes float32 cos
and sin of its phases, rounded once to float32, into planar (re, im)
amplitude planes and multiplies both by the radii.  It propagates them
with the separable lattice form of the Fresnel kernel (the only
propagation path) in real arithmetic on planar fields with the frame
as the fastest axis: to the bounding box of the mask's transmissive
pixels for the bucket, and to the reference grid.  Mirror nodes are
folded into sums and differences that depend only on the lattice, so a
vacuum batch folds its amplitudes once for both planes; with
independent source-plane screens the batch adds the tilt to its
float64 phases after the first fold, writes the planes again and folds
them a second time for the reference path.

A batch propagates in float32 and hands on centred values; only the
estimate's sums are float64.  A source-plane screen is a unit-modulus
factor, so in every run a reference pixel's mean intensity is exactly
mu = M P / (wavelength L)^2, and the bucket's exactly
nu = pitch_o^2 sum(T) mu (exact_means).  The fields come out scaled to
unit mean intensity (see optics).  The reference intensities less their
mean, x = I / mu - 1, and their squares overwrite the two planes of the
field buffer.  The centred bucket y = b / nu - 1 is one product of the
box's x with T / sum(T).  The batch's moment sums are one float32
matrix product of the [x; x^2] block with [1, y, y^2].  Centring by the
exact means costs no pass over the data, and float32 needs it: raw
I^2 b^2 reaches 1e40 at the default geometry, past float32's largest
value, and raw sums cancel in finalize.

Every statistic a run estimates depends on the amplitudes only through
their law, and one law argument takes two phases out of the frame loop:
for iid circular Gaussian amplitudes a_m and unit-modulus factors
e^{i theta_m} independent of them, a_m e^{i theta_m} is again iid
circular Gaussian and independent of the theta_m.  The first phase is
the node chirp, theta_m = -q |rho_m|^2 with q = k / 2L.  The lattice
path leaves it out: per draw, its fields are, up to a unit-modulus phase
per pixel, the exact fields of a_m e^{-iq |rho_m|^2} (see optics), so
every intensity is exact in law.  The second is the bucket path's
screen phase, theta_m = phi_b.  The ghost image sees source-plane
turbulence only through the phase difference of the two paths: the pair
(a e^{i phi_b}, a e^{i phi_r}) has the law of
(a', a' e^{i (phi_r - phi_b)}) with a' = a e^{i phi_b}.  So the bucket
path takes the drawn amplitudes, and only the reference path gets one
relative screen phi_r - phi_b: twice the per-path structure function,
which is a screen at the configured pair rho0.

The relative screen's structure function is the square law
2 r^2 / rho0^2 exactly, so it is a random tilt g: two standard normals
per frame, times TurbulenceModel.tilt_std (FramePipeline.batch).  The
pipeline adds g . rho_m, rho_m taken from the centre of the lattice's
box, to each subsource's float64 phase before its one rounding, so the
tilt is exact at every subsource, and the reference frame is the
vacuum frame moved by g L / k.  Coupled paths
(phi_r = phi_b) and a detector-plane screen leave the law of every
intensity as in vacuum, so nothing is drawn for them and such a run
equals the vacuum run frame by frame.

A run's batches are grouped into merge units of UNIT_BATCHES.  One
function, fold_unit, adds a unit's batches in order to a fresh
estimate, and run_simulation merges the units' estimates in order,
whether it maps fold_unit over the units in this process or on a fork
pool.  BLAS runs on one thread in every process: run_simulation pins it
once, around the map, and forked workers inherit the pinned count.  The
pool's modules are imported only by a run that forks.

A run's widths hold only inside three validity rules, checked in this
order; each raises ConfigurationError.  The geometry must be paraxial:
at the largest subsource-to-pixel offset d the Fresnel kernel drops a
phase k d^4 / (8 L^3) of at most PARAXIAL_PHASE_LIMIT (check_paraxial,
which RunSetup applies).  The other two need the source diameter, which
a RunSetup does not carry, and config_to_setup applies them
(check_sampling).

The source lattice must not alias.  Its image repeats every period
wavelength L / source_pitch on each axis, and each replica reaches
1.22 wavelength L / source_diameter (the Airy first zero) plus
3 sigma_blur (the turbulent blur) from its centre.  A replica must
not reach any offset x_p - x_b between a reference pixel and a pixel
of the mask's transmissive box.

The reference grid must then hold the blurred peak: its half-span
must be at least hypot(r_airy, SPAN_BLUR_Z sigma_blur), the Airy
radius r_airy = 1.22 wavelength L / source_diameter widened by the
blur in quadrature; in vacuum, a grid as wide as the Airy core.  On
a narrower grid the border baseline of psf_metrics lies on the
peak's wings, and every width measured there is biased low.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlator import MIN_FRAMES, GhostImageEstimate, GhostImageResult, ObjectMask
from .errors import ConfigurationError, ValidationError
from .optics import Grid2D, LatticeFold, LatticePropagator, OpticalConfig, intensity_moments
from .source import BATCH_FRAMES, SubsourceSet, batch_generator, draw_polar
from .turbulence import TurbulenceModel

# Batches per merge unit: the work of one pool task, and of one merge.
UNIT_BATCHES = 16

# Largest phase, in radians, the Fresnel kernel may drop: the quartic
# term k d^4 / (8 L^3) of the path length sqrt(L^2 + d^2) over a
# transverse source-to-pixel offset d.
PARAXIAL_PHASE_LIMIT = 0.1

# Turbulent blur widths (sigma_blur) that the reference grid's half-span
# must reach, added in quadrature to the Airy radius.  The half-span
# hypot(r_airy, Z sigma_blur) is 2.75 hypot(1.056 sigma_a, sigma_blur),
# with sigma_a = 0.42 wavelength L / D the Airy core's Gaussian
# equivalent.  The closed-form FWHM against a grid 3x as wide is biased
# by at most -1.71% at this edge on seven grids from 48 x 12 um to
# 100 x 12 um, for the point and open masks, so every admitted width
# stays within 2%, a fifth of the default compare_tolerance.
SPAN_BLUR_Z = 2.75


def check_run(frames: int, seed: int, workers: int) -> None:
    """Raise ValidationError unless a run's frame, seed and worker counts are valid."""
    if frames < MIN_FRAMES:
        raise ValidationError(f"imaging runs need frames >= {MIN_FRAMES}, got {frames}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")


def check_paraxial(positions, grids, wavenumber: float, path_length: float) -> None:
    """Raise ConfigurationError unless every subsource-to-pixel path is paraxial.

    The farthest pixel of a grid from a subsource is one of the grid's
    corners, so the largest offset d costs O(M) per grid.
    """
    spans = [grid.span() for grid in grids]
    corners = np.array([(x, y) for xs, ys in spans for x in xs for y in ys])
    d2 = float(np.max(np.sum((positions[:, None, :] - corners[None, :, :]) ** 2, axis=-1)))
    phase = wavenumber * d2 * d2 / (8.0 * path_length**3)
    if phase > PARAXIAL_PHASE_LIMIT:
        raise ConfigurationError(
            f"geometry is not paraxial: the Fresnel kernel drops a phase k d^4 / (8 L^3) "
            f"= {phase:.3g} rad (limit {PARAXIAL_PHASE_LIMIT} rad) at the largest "
            f"source-to-pixel offset d = {math.sqrt(d2):.6g} m over path_length "
            f"{path_length:.6g} m")


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
        check_run(self.frames, self.seed, self.workers)
        # Checked here: raised in a pool initializer, it would break the pool.
        check_paraxial(self.sources.positions, (self.mask.grid, self.ref_grid),
                       self.cfg.wavenumber, self.cfg.path_length)


def check_sampling(setup: RunSetup, diameter: float) -> None:
    """Raise ConfigurationError if the source lattice aliases or the reference grid is too narrow.

    diameter is the source disc's; every other length comes from the
    setup.  The module docstring states both rules.
    """
    cfg, ref = setup.cfg, setup.ref_grid
    r_airy = 1.22 * cfg.wavelength * cfg.path_length / diameter
    sigma = setup.model.blur_sigma(cfg)
    period = cfg.wavelength * cfg.path_length / setup.sources.pitch
    reach = r_airy + 3.0 * sigma
    offset = max(max(pixels[1] - box[0], box[1] - pixels[0])
                 for pixels, box in zip(ref.span(), setup.mask.support.grid.span()))
    if period - reach <= offset:
        raise ConfigurationError(
            f"the source lattice aliases: its image repeats with period wavelength "
            f"path_length / source_pitch = {period * 1e6:.1f} um, a replica's reach "
            f"1.22 wavelength path_length / source_diameter + 3 sigma_blur is "
            f"{reach * 1e6:.1f} um, and period - reach must exceed the span "
            f"max |x_p - x_b| = {offset * 1e6:.1f} um between the reference pixels and "
            f"the mask's transmissive pixels; lower source_pitch or shrink the grids")
    span = ref.nx * ref.pitch
    need = math.hypot(r_airy, SPAN_BLUR_Z * sigma)
    if span / 2.0 < need:
        raise ConfigurationError(
            f"the reference grid spans {span * 1e6:.1f} um, less than the Airy core "
            f"2.44 wavelength path_length / source_diameter = {2.0 * r_airy * 1e6:.1f} um "
            f"widened in quadrature by {2.0 * SPAN_BLUR_Z:g} sigma_blur = "
            f"{2.0 * SPAN_BLUR_Z * sigma * 1e6:.1f} um, so the half-span must be at least "
            f"{need * 1e6:.1f} um; raise ref_pixels or ref_pitch")


@dataclass(frozen=True, eq=False)
class SimulationOutput:
    result: GhostImageResult
    wall_time_s: float
    blas_threads: int | None = None   # OpenBLAS threads per batch; None if not pinned


class FramePipeline:
    """Propagation factors and the screen tilt law of a run's frame loop.

    A batch of B = BATCH_FRAMES frames is processed as matrices: its
    (B, M) radius and phase blocks and the relative screen's (B, 2)
    tilts on the reference path, drawn into buffers the pipeline owns,
    then (2, B, M) float32 amplitude planes, the folded lattice
    propagation to both detector planes in float32 real arithmetic, and
    one float32 GEMM of the centred reference moments [x; x^2] for the
    running sums.
    The bucket path propagates only to the bounding box of the mask's
    transmissive pixels (one pixel for a point mask), and its centred
    bucket is the product of the box's x with T / sum(T).
    """

    def __init__(self, setup: RunSetup):
        self.setup = setup
        cfg = setup.cfg
        self.bucket_mask = setup.mask.support
        box_grid = self.bucket_mask.grid
        t = self.bucket_mask.transmissivity.ravel()
        self._weights = (t / np.sum(t)).astype(np.float32)
        self.fold = LatticeFold(setup.sources, BATCH_FRAMES)
        self.box = LatticePropagator(self.fold, box_grid, cfg)
        self.ref = LatticePropagator(self.fold, setup.ref_grid, cfg)
        # 0.0 unless independent source-plane screens change the law of
        # the intensities; their difference has the configured pair rho0.
        self.tilt_std = setup.model.tilt_std
        shape = (BATCH_FRAMES, setup.sources.count)
        self._radius = np.empty(shape, dtype=np.float32)
        self._phase = np.empty(shape)
        self._tilt_phase = np.empty(shape)
        self._planes = np.empty((2, *shape), dtype=np.float32)
        # Each node's offset (u[ix], v[iy]) from the centre of the lattice's
        # box, read from the lattice the fold reads.
        ix, iy, u, v = setup.sources.lattice
        self._offsets = np.stack([u[ix], v[iy]])

    def batch(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Centred buckets y (B,) and reference moments [x; x^2] (2, ny, nx, B) of one batch.

        y = b / nu - 1 and x = I / mu - 1, both float32, with (mu, nu)
        the run's exact_means.  B is BATCH_FRAMES, and batch index holds
        run frames index * B to (index + 1) * B - 1 whatever the run's
        length; frame i of the batch is the last index i.  The moments are a view of a buffer
        that the next call overwrites.

        The batch's one generator draws the amplitudes in polar form
        (source.draw_polar), then, when tilt_std is not 0, the relative
        screen's tilts g (B, 2) in rad/m: frame i's tilt is normals 2i and
        2i + 1 of those drawn after the amplitudes, times tilt_std.  The
        tilt adds g . (u[ix[m]], v[iy[m]]), node m's offset from the centre
        of the lattice's box, to its float64 phase; the frame's constant
        g . centre is left out, as no intensity sees it.
        """
        setup = self.setup
        rng = batch_generator(setup.seed, index)
        draw_polar(setup.sources, rng, self._radius, self._phase)
        folded = self._fold()
        box = intensity_moments(self.box(folded))[0]
        buckets = self._weights @ box.reshape(self._weights.size, -1)
        if self.tilt_std != 0.0:
            tilts = self.tilt_std * rng.standard_normal((BATCH_FRAMES, 2))
            np.matmul(tilts, self._offsets, out=self._tilt_phase)
            self._phase += self._tilt_phase
            folded = self._fold()
        return buckets, intensity_moments(self.ref(folded))

    def _fold(self) -> np.ndarray:
        """The fold of the amplitudes radius e^{i phase}, the phase rounded once to float32."""
        re, im = self._planes
        im[...] = self._phase
        np.cos(im, out=re)
        np.sin(im, out=im)
        self._planes *= self._radius
        return self.fold(self._planes)


def exact_means(setup: RunSetup) -> tuple[float, float]:
    """(mu, nu): the exact means of a reference pixel's intensity and of the bucket.

    Every subsource adds its power P through a kernel of modulus
    1 / (wavelength L), whatever unit-modulus screen it crosses, so
    mu = M P / (wavelength L)^2 at every pixel and nu = pitch_o^2 sum(T) mu.
    """
    cfg, sources, mask = setup.cfg, setup.sources, setup.mask
    mu = sources.count * sources.mean_power / (cfg.wavelength * cfg.path_length) ** 2
    return mu, mask.grid.pitch**2 * float(np.sum(mask.transmissivity)) * mu


def merge_units(frames: int) -> list[range]:
    """The batch indices of a run, UNIT_BATCHES to a merge unit; the last unit may be short."""
    batches = -(-frames // BATCH_FRAMES)
    return [range(i, min(i + UNIT_BATCHES, batches)) for i in range(0, batches, UNIT_BATCHES)]


def fold_unit(pipeline: FramePipeline, unit: range) -> GhostImageEstimate:
    """A fresh estimate of one merge unit's frames, its batches added in order.

    A run's last batch is computed whole, and only its frames before the
    run's end are added.
    """
    setup = pipeline.setup
    estimate = GhostImageEstimate(setup.ref_grid, *exact_means(setup))
    for index in unit:
        count = setup.frames - index * BATCH_FRAMES
        buckets, moments = pipeline.batch(index)
        estimate.add(buckets[:count], moments[..., :count])
    return estimate


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
    _WORKER_PIPELINE = FramePipeline(setup)


def _worker_unit(unit: range) -> GhostImageEstimate:
    assert _WORKER_PIPELINE is not None
    return fold_unit(_WORKER_PIPELINE, unit)


def run_simulation(setup: RunSetup) -> SimulationOutput:
    """Run all frames and return the finalized covariance image.

    fold_unit makes one estimate per merge unit, and they are merged in
    unit order.  The map runs in this process when there is one worker
    or one unit, and on a fork pool of one pipeline per worker
    otherwise; the sums are the same either way, so any worker count
    produces bit-identical results.  BLAS is pinned to one thread
    around the map; forked pool workers inherit the pinned count.
    """
    t0 = time.perf_counter()
    units = merge_units(setup.frames)
    workers = min(setup.workers, len(units))
    estimate = GhostImageEstimate(setup.ref_grid, *exact_means(setup))
    with one_blas_thread() as blas_threads, contextlib.ExitStack() as stack:
        if workers == 1:
            parts = map(functools.partial(fold_unit, FramePipeline(setup)), units)
        else:
            # Imported here: the pool's modules cost RSS in every process
            # that never forks.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # The fork context starts every worker at the first submit, so
            # there are no more workers than units.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(setup,)))
            parts = pool.map(_worker_unit, units)
        for part in parts:
            estimate.merge(part)
    result = estimate.finalize()
    return SimulationOutput(result=result,
                            wall_time_s=time.perf_counter() - t0, blas_threads=blas_threads)
