"""Closed-form coherence results for two-path pseudothermal imaging.

The central object is the ensemble-averaged two-photon (fourth-order
field) coherence between a bucket detector at rho_b behind one path and
a reference pixel at rho_p behind the other, for a pair of subsources at
rho_m and rho_mp.  With independently turbulent paths the average is

    2 (pi rho_s^2 / (lam L))^4 P_m P_mp
      * [1 + cos(k (rho_b - rho_p) . (rho_m - rho_mp) / L)
             * exp(-|rho_m - rho_mp|^2 / rho0^2)]

so every subsource pair separated by more than the coherence length
rho0 loses its interference term, while pairs inside rho0 keep it.  The
prefactor cancels in every normalized output, so the law this module
owns is the bracket.  Its pair weight exp(-|d|^2 / rho0^2) is the
turbulence law's: pair_coherence_factor and predicted_ghost_image both
take it from TurbulenceModel.pair_weight.

Behind an object mask of transmissivity T_b the ghost image is
sum_b T_b sum_{m,m'} exp(-|rho_m - rho_m'|^2 / rho0^2)
cos(q (rho_b - rho_p) . (rho_m - rho_m')) with q = k / L.  Every term
depends on its pair only through the difference rho_m - rho_m', and on
the source lattice there are few of those (33 x 33 at the default
geometry, against 197^2 pairs).  predicted_ghost_image therefore sums
over the lattice difference spectrum SubsourceSet.lags: the number of
pairs per difference vector, times the pair weight, times the mask's mutual
intensity at that vector, brought to the reference grid by two small
separable Fourier factors.  It reads every input from the run's
RunSetup: the optics, the subsources, the mask, the reference grid and
the rho0 the image sees.

The paper's phase-correction argument is the two-detector, two-mode sum
of corrected_mds_lhs, evaluated on (4, ...) arrays of magnitudes,
propagation phases and turbulence phases ordered (1a, 1b, 2a, 2b).  It
is one cosine, A^2 + B^2 + 2 A B cos(Delta), with A = m_2a m_1b,
B = m_2b m_1a and Delta = (phi_2a + phi_1b) - (phi_2b + phi_1a), each
phi a propagation phase plus a turbulence phase.  A turbulence phase
that does not depend on the mode enters Delta once with each sign and
cancels there; mode-dependent ones do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError, require_length, require_positive
from .optics import OpticalConfig
from .turbulence import TurbulenceModel

if TYPE_CHECKING:
    from .simulate import RunSetup

# Draws of mds_demo_rows per block, in both of its cases: 4 x 4,096
# phases (128 KiB) stay in cache, where all 1e6 at once take about 90 MiB.
MDS_CHUNK_DRAWS = 2**12


def pair_coherence_factor(rho_b, rho_p, rho_m, rho_mp, cfg: OpticalConfig,
                          model: TurbulenceModel) -> np.ndarray:
    """Bracket factor in [0, 2]: 1 + cos(geometric) * exp(-r^2/rho0^2).

    rho0 is model.image_rho0, the coherence length the image sees.
    Broadcasts over leading axes of the four (..., 2) coordinates.
    """
    rb = np.asarray(rho_b, dtype=float)
    rp = np.asarray(rho_p, dtype=float)
    rm = np.asarray(rho_m, dtype=float)
    rmp = np.asarray(rho_mp, dtype=float)
    for name, arr in (("rho_b", rb), ("rho_p", rp), ("rho_m", rm), ("rho_mp", rmp)):
        if arr.shape[-1] != 2:
            raise ValidationError(f"{name} must have a trailing axis of size 2 (x, y)")
    d_det = rb - rp
    d_src = rm - rmp
    geometric = cfg.wavenumber * np.sum(d_det * d_src, axis=-1) / cfg.path_length
    return 1.0 + np.cos(geometric) * model.pair_weight(np.sum(d_src**2, axis=-1))


def predicted_ghost_image(setup: RunSetup) -> np.ndarray:
    """Ghost image the closed form predicts for a run, on its reference grid.

    Per unit squared subsource power, constant background omitted, with
    q = k / L and rho0 = setup.model.image_rho0:

        image(rho_p) = sum_b T_b sum_{m,m'} w(d) cos(q (rho_b - rho_p) . d),

    d = rho_m - rho_m'.  A pair enters only through its difference d, a
    lattice vector (dx, dy), so the sum runs over the lattice difference
    spectrum instead of over pairs:

        image = Re(E_y (N * w * C_hat) E_x^T),

    where N(d) is the number of subsource pairs with difference d
    (setup.sources.lags), w(d) = exp(-|d|^2 / rho0^2) the pair weight
    (TurbulenceModel.pair_weight; ones in vacuum), C_hat = F_y^T T F_x the
    mask's mutual intensity sum_b T_b exp(i q rho_b . d), and
    E[p, d] = exp(-i q rho_p d), F[b, d] = exp(i q rho_b d) the Fourier
    factors of one axis on the reference and object grids.

    A point bucket is a one-pixel mask.  The d = 0 term gives a flat
    pedestal M sum_b T_b, the one the simulated frame covariance carries.
    RunSetup has already checked that the geometry is paraxial.
    """
    mask, ref = setup.mask, setup.ref_grid
    counts, dx, dy = setup.sources.lags
    weights = counts * setup.model.pair_weight(dy[:, None] ** 2 + dx[None, :] ** 2)
    q = setup.cfg.wavenumber / setup.cfg.path_length
    mutual = (_fourier(q, mask.grid.y(), dy).T @ mask.transmissivity
              @ _fourier(q, mask.grid.x(), dx))
    image = _fourier(-q, ref.y(), dy) @ (weights * mutual) @ _fourier(-q, ref.x(), dx).T
    return image.real


def _fourier(q: float, coords: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """exp(i q x d) over coordinates x (rows) and lattice lags d (columns)."""
    return np.exp(1j * q * np.multiply.outer(coords, lags))


def corrected_mds_lhs(mag, geo, turb) -> np.ndarray:
    """Two-mode interference intensity with per-mode turbulence phases.

    Detectors 1 and 2 each receive both source modes a and b.  mag, geo
    and turb are array_likes with a leading axis of 4 ordered
    (1a, 1b, 2a, 2b): the propagator magnitudes, their propagation
    phases, and the turbulence phases picked up on that detector path
    for that mode.  The trailing axes broadcast, so random draws are
    evaluated in one vectorized call.  With phi = geo + turb, the value

        |m2a m1b e^{i(phi2a + phi1b)} + m2b m1a e^{i(phi2b + phi1a)}|^2

    is computed as A^2 + B^2 + 2 A B cos(Delta), with A = m2a m1b,
    B = m2b m1a and Delta = (phi2a + phi1b) - (phi2b + phi1a).

    When the turbulence phase on each detector path is the same for both
    modes, t1 on detector 1 and t2 on detector 2, Delta holds t2 + t1
    in its first sum and again in its second, so they cancel and the
    result equals the turbulence-free value, the one with turb = 0;
    mode-dependent phases break the cancellation.  Delta is evaluated as
    the propagation-phase part plus the turbulence-phase part, so that
    cancellation is exact in floating point too.
    """
    mag, geo, turb = (np.asarray(a, dtype=float) for a in (mag, geo, turb))
    for name, arr in (("mag", mag), ("geo", geo), ("turb", turb)):
        if arr.ndim == 0 or arr.shape[0] != 4:
            raise ValidationError(
                f"{name} needs a leading axis of 4 (1a, 1b, 2a, 2b), got shape {arr.shape}")
    if np.any(mag < 0):
        raise ValidationError("magnitudes must be non-negative")
    delta = (((geo[2] + geo[1]) - (geo[3] + geo[0]))
             + ((turb[2] + turb[1]) - (turb[3] + turb[0])))
    a = mag[2] * mag[1]
    b = mag[3] * mag[0]
    return a * a + b * b + 2.0 * a * b * np.cos(delta)


def _blocks(draws: int):
    """Sizes of the MDS_CHUNK_DRAWS blocks that make up draws; the last may be short."""
    for start in range(0, draws, MDS_CHUNK_DRAWS):
        yield min(MDS_CHUNK_DRAWS, draws - start)


def mds_demo_rows(seed: int = 20260815, matched_draws: int = 10_000,
                  random_draws: int = 1_000_000) -> list[dict]:
    """Worst-case and mean behavior of the corrected two-photon sum.

    Row one: detector phase noise common to both interfering terms
    (mode-independent) cancels, so the corrected value tracks the
    noise-free one draw by draw.  Row two: mode-dependent phase noise
    destroys the interference, pulling the mean from 4 to 2 at unit
    magnitudes and zero geometric phases; it has no draw-by-draw clean
    value, so its max_rel_diff_vs_clean is None.  Both cases are drawn
    and reduced MDS_CHUNK_DRAWS at a time, the matched one first.
    """
    rng = np.random.default_rng(seed)
    worst = sum_corrected = sum_clean = 0.0
    for count in _blocks(matched_draws):
        mags = rng.uniform(0.1, 2.0, size=(4, count))
        geos = rng.uniform(0.0, 2.0 * math.pi, size=(4, count))
        # One phase per detector path, shared by both modes: (1a, 1b, 2a, 2b) = (t1, t1, t2, t2).
        common = rng.uniform(0.0, 2.0 * math.pi, size=(2, count))[[0, 0, 1, 1]]
        corrected = corrected_mds_lhs(mags, geos, common)
        clean = corrected_mds_lhs(mags, geos, np.zeros(4))
        worst = max(worst, float(np.max(np.abs(corrected - clean) / clean)))
        sum_corrected += float(np.sum(corrected))
        sum_clean += float(np.sum(clean))

    total = 0.0
    for count in _blocks(random_draws):
        turb = rng.uniform(0.0, 2.0 * math.pi, size=(4, count))
        total += float(np.sum(corrected_mds_lhs(np.ones(4), np.zeros(4), turb)))

    return [
        {"case": "mode_independent", "draws": matched_draws,
         "max_rel_diff_vs_clean": worst, "mean_lhs": sum_corrected / matched_draws,
         "clean_mean_lhs": sum_clean / matched_draws},
        {"case": "mode_dependent", "draws": random_draws,
         "max_rel_diff_vs_clean": None, "mean_lhs": total / random_draws,
         "clean_mean_lhs": 4.0},
    ]


@dataclass(frozen=True)
class ImmunityVerdict:
    immune: bool
    margin: float


def immunity_criterion(diameter: float, rho0: float) -> ImmunityVerdict:
    """Whether every subsource pair fits inside one coherence area.

    diameter is the source diameter in meters.  The verdict is immune
    only for diameter strictly below rho0; margin is rho0 / diameter.
    """
    diameter = float(diameter)
    require_positive("source diameter", diameter)
    require_length("rho0", rho0)
    margin = rho0 / diameter
    return ImmunityVerdict(immune=bool(diameter < rho0), margin=margin)
