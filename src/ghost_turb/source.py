"""Pseudothermal source: a lattice of independent point subsources.

Each frame draws one circular complex Gaussian amplitude per subsource
(zero mean, variance mean_power per subsource, independent between
subsources and frames).  Draws are keyed per batch: frames
[b * BATCH_FRAMES, (b + 1) * BATCH_FRAMES) come from one generator keyed
(seed, b, stream), drawn frame-major, so frame i's numbers are row
i % BATCH_FRAMES of its batch block whatever the run length, worker
count or order of evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Stream tag separating source-amplitude draws from other consumers of
# the same run seed.
RNG_DOMAIN_SOURCE = 1

# Frames per draw block: one generator per (seed, batch, stream).  The
# frame pipeline also uses it as its GEMM block and its merge unit.
BATCH_FRAMES = 32


def batch_generator(seed: int, batch_index: int, stream: int) -> np.random.Generator:
    """Generator of one batch's draws for one stream."""
    if seed < 0 or batch_index < 0:
        raise ValidationError(f"seed and batch index must be >= 0, got {seed}, {batch_index}")
    return np.random.default_rng((int(seed), int(batch_index), int(stream)))


@dataclass(frozen=True, eq=False)
class SubsourceSet:
    """Subsource positions (M, 2) in meters plus per-subsource power.

    diameter is the maximum pairwise distance actually realized by the
    positions, not the requested disc diameter.
    """

    positions: np.ndarray
    mean_power: float
    pitch: float
    diameter: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValidationError(f"positions must be (M, 2) with M >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValidationError("positions must be finite")
        if not (math.isfinite(self.mean_power) and self.mean_power > 0):
            raise ValidationError(f"mean_power must be finite and > 0, got {self.mean_power}")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def max_pairwise_distance(positions: np.ndarray) -> float:
    """Largest distance between any two points, 0.0 for a single point."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape[0] < 2:
        return 0.0
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def make_source_grid(diameter: float, pitch: float, mean_power: float = 1.0) -> SubsourceSet:
    """Square lattice of subsources inside a closed disc.

    Lattice points (i * pitch, j * pitch) with i, j integers are kept
    when they fall inside the disc of the given diameter centered on the
    origin.  The lattice must yield at least two subsources.
    """
    if not (math.isfinite(diameter) and diameter > 0):
        raise ValidationError(f"diameter must be finite and > 0, got {diameter}")
    if not (math.isfinite(pitch) and pitch > 0):
        raise ValidationError(f"pitch must be finite and > 0, got {pitch}")
    n = int(math.floor(diameter / (2.0 * pitch))) + 1
    idx = np.arange(-n, n + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="xy")
    # Integer radius test with a tiny relative slack so points nominally
    # on the rim are kept regardless of decimal-to-binary rounding.
    r2 = (ii.astype(float) ** 2 + jj.astype(float) ** 2) * pitch * pitch
    keep = r2 <= (diameter / 2.0) ** 2 * (1.0 + 1e-12)
    xs = ii[keep].astype(float) * pitch
    ys = jj[keep].astype(float) * pitch
    positions = np.column_stack([xs, ys])
    if positions.shape[0] < 2:
        raise ValidationError(
            f"pitch {pitch} is too coarse for a disc of diameter {diameter}: "
            f"only {positions.shape[0]} lattice point(s) fall inside"
        )
    order = np.lexsort((positions[:, 0], positions[:, 1]))
    positions = positions[order]
    return SubsourceSet(positions=positions, mean_power=float(mean_power),
                        pitch=float(pitch), diameter=max_pairwise_distance(positions))


def draw_amplitudes(sources: SubsourceSet, rng: np.random.Generator,
                    frames: int) -> np.ndarray:
    """Amplitudes (frames, M) of consecutive frames, drawn frame-major.

    Row r depends only on the generator state and r, not on `frames`.
    Each subsource's pair of standard normals is read in place as one
    complex number (real part first) and scaled once.
    """
    g = rng.standard_normal((frames, sources.count, 2))
    scale = math.sqrt(sources.mean_power / 2.0)
    return scale * g.view(complex)[..., 0]
