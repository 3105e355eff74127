"""Pseudothermal source: a lattice of independent point subsources.

SubsourceSet.lattice is the one home of the lattice's geometry, and
SubsourceSet.lags of its lag spectrum.

Each frame draws one circular complex Gaussian amplitude per subsource
(zero mean, variance mean_power P per subsource, independent between
subsources and frames).  Draws are keyed per batch: frames
[b * BATCH_FRAMES, (b + 1) * BATCH_FRAMES) draw everything they need
from one generator keyed (seed, b, RNG_DOMAIN_SOURCE), amplitudes first
and frame-major, so frame i's amplitudes are row i % BATCH_FRAMES of its
batch block whatever the run length, worker count or order of
evaluation.  A batch is always drawn whole.

The amplitudes are drawn in polar form, r e^{i theta}, with r^2 = P E,
E standard exponential, and theta uniform on [0, 2 pi) (Box and Muller,
Ann. Math. Statist. 29, 610 (1958)): the law of a circular Gaussian of
variance P.  draw_polar writes r and theta into buffers that the frame
pipeline owns, so a source-plane tilt is an addition to theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_positive

# Key tag separating a run's frame draws from other consumers of the
# same run seed.
RNG_DOMAIN_SOURCE = 1

# Frames per draw block: one generator per (seed, batch).  The frame
# pipeline also uses it as its GEMM block; simulate.UNIT_BATCHES batches
# make a merge unit.
BATCH_FRAMES = 32


def batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """Generator of all of one batch's draws."""
    if seed < 0 or batch_index < 0:
        raise ValidationError(f"seed and batch index must be >= 0, got {seed}, {batch_index}")
    return np.random.default_rng((int(seed), int(batch_index), RNG_DOMAIN_SOURCE))


@dataclass(frozen=True, eq=False)
class SubsourceSet:
    """Subsources on the nodes of a square lattice, plus per-subsource power.

    nodes (M, 2) holds the integer lattice coordinates (i, j) of each
    subsource, one per node; positions (M, 2) are (i * pitch, j * pitch)
    in meters, and lags the pair counts per lattice lag, both derived.
    """

    nodes: np.ndarray
    pitch: float
    mean_power: float
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 1:
            raise ValidationError(f"nodes must be (M, 2) with M >= 1, got {nodes.shape}")
        if not np.issubdtype(nodes.dtype, np.integer):
            raise ValidationError(f"nodes must be integer lattice coordinates, got {nodes.dtype}")
        # Sorted rows, not np.unique(axis=0): that imports numpy.ma (1.2 MiB
        # of RSS) and takes about 0.2 ms for the default 197 nodes.
        ordered = nodes[np.lexsort(nodes.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValidationError("two subsources share a lattice node")
        require_positive("pitch", self.pitch)
        require_positive("mean_power", self.mean_power)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "positions", nodes.astype(float) * self.pitch)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    @functools.cached_property
    def lattice(self) -> tuple[np.ndarray, ...]:
        """Node indices (ix, iy) and centred offsets (u, v) of the bounding box.

        The one home of the lattice's geometry.  u and v are the offsets
        (i - (n - 1) / 2) * pitch of the box's n columns, and rows, from
        the box's centre, so u + u[::-1] == 0 exactly.  Subsource m sits
        at the centre plus (u[ix[m]], v[iy[m]]).
        """
        lo = self.nodes.min(axis=0)
        ix, iy = (self.nodes - lo).T
        u, v = ((np.arange(n) - (n - 1) / 2.0) * self.pitch
                for n in self.nodes.max(axis=0) - lo + 1)
        return ix, iy, u, v

    @functools.cached_property
    def lags(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair counts N(d) over the lattice lags d, and the lags dx, dy in meters.

        counts (2 Ly - 1, 2 Lx - 1), for an Ly x Lx bounding box, counts the
        ordered pairs (m, m') with nodes[m] - nodes[m'] = d: the
        autocorrelation of the lattice occupancy.  Lags run from 1 - L to L - 1.
        """
        ix, iy, u, v = self.lattice
        occupancy = np.zeros((v.size, u.size))
        occupancy[iy, ix] = 1.0
        # Zero-padded to every lag, so the circular autocorrelation is the linear
        # one; rint recovers its integer values exactly from the FFT's rounding.
        shape = (2 * v.size - 1, 2 * u.size - 1)
        spectrum = np.fft.rfft2(occupancy, shape)
        counts = np.fft.fftshift(np.rint(np.fft.irfft2(spectrum * spectrum.conj(), shape)))
        dx = np.arange(1 - u.size, u.size) * self.pitch
        dy = np.arange(1 - v.size, v.size) * self.pitch
        return counts.astype(np.int64), dx, dy


def make_source_grid(diameter: float, pitch: float, mean_power: float = 1.0) -> SubsourceSet:
    """Square lattice of subsources inside a closed disc.

    Lattice nodes (i, j), at (i * pitch, j * pitch), are kept when they
    fall inside the disc of the given diameter centered on the origin,
    ordered by j, then i.  The lattice must yield at least two
    subsources.
    """
    require_positive("diameter", diameter)
    require_positive("pitch", pitch)
    n = int(math.floor(diameter / (2.0 * pitch))) + 1
    idx = np.arange(-n, n + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="xy")
    # Integer radius test with a tiny relative slack so points nominally
    # on the rim are kept regardless of decimal-to-binary rounding.
    r2 = (ii.astype(float) ** 2 + jj.astype(float) ** 2) * pitch * pitch
    keep = r2 <= (diameter / 2.0) ** 2 * (1.0 + 1e-12)
    # Row-major meshgrid order is already sorted by j, then i.
    nodes = np.column_stack([ii[keep], jj[keep]])
    if nodes.shape[0] < 2:
        raise ValidationError(
            f"pitch {pitch} is too coarse for a disc of diameter {diameter}: "
            f"only {nodes.shape[0]} lattice point(s) fall inside"
        )
    return SubsourceSet(nodes=nodes, pitch=float(pitch), mean_power=float(mean_power))


def draw_polar(sources: SubsourceSet, rng: np.random.Generator, radius: np.ndarray,
               phase: np.ndarray) -> None:
    """Draw a batch's amplitudes r e^{i theta} into radius (n, M) float32 and phase (n, M) float64.

    Both buffers are filled whole, frame-major, so n is theirs.  The
    generator draws n M uniforms u for the radii, then n M uniforms u'
    for the phases.  r = sqrt(-P log(1 - u)) is formed in float64, in
    the phase buffer, and rounded once into radius; 1 - u lies in
    (0, 1], so every radius is finite.  theta = 2 pi u' stays float64.
    """
    rng.random(out=phase)
    np.subtract(1.0, phase, out=phase)
    np.log(phase, out=phase)
    phase *= -sources.mean_power
    np.sqrt(phase, out=phase)
    radius[...] = phase
    rng.random(out=phase)
    phase *= 2.0 * math.pi
