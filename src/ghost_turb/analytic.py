"""Closed-form coherence results for two-path pseudothermal imaging.

The central object is the ensemble-averaged two-photon (fourth-order
field) coherence between a bucket detector at rho_b behind one path and
a reference pixel at rho_p behind the other, for a pair of subsources at
rho_m and rho_mp.  With independently turbulent paths the average is

    2 (pi rho_s^2 / (lam L))^4 P_m P_mp
      * [1 + cos(k (rho_b - rho_p) . (rho_m - rho_mp) / L)
             * exp(-|rho_m - rho_mp|^2 / rho0^2)]

so every subsource pair separated by more than the coherence length
rho0 loses its interference term, while pairs inside rho0 keep it.

Behind an object mask of transmissivity T_b the ghost image is
sum_b T_b sum_{m,m'} exp(-|rho_m - rho_m'|^2 / rho0^2)
cos(q (rho_b - rho_p) . (rho_m - rho_m')) with q = k / L; the mask folds
into the object's mutual-intensity matrix
C[m,m'] = sum_b T_b exp(i q rho_b . (rho_m - rho_m')), so the image is the
single product of predicted_ghost_image, which reads every input from
the run's RunSetup: the optics, the subsources, the mask, the reference
grid and the rho0 the image sees.

The paper's phase-correction argument is the two-detector, two-mode sum
of corrected_mds_lhs, evaluated on (4, ...) arrays of magnitudes,
propagation phases and turbulence phases ordered (1a, 1b, 2a, 2b):
turbulence phases that do not depend on the mode cancel in it, and
mode-dependent ones do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .optics import OpticalConfig
from .turbulence import TurbulenceModel

if TYPE_CHECKING:
    from .simulate import RunSetup


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
    r2 = np.sum(d_src**2, axis=-1)
    rho0 = model.image_rho0
    gauss = np.ones_like(r2) if math.isinf(rho0) else np.exp(-r2 / rho0**2)
    return 1.0 + np.cos(geometric) * gauss


def glauber_pair_term(rho_b, rho_p, rho_m, rho_mp, cfg: OpticalConfig,
                      model: TurbulenceModel, prefactor_radius: float,
                      power_m: float = 1.0, power_mp: float = 1.0) -> np.ndarray:
    """Ensemble-averaged two-photon coherence for one subsource pair.

    prefactor_radius is the effective subsource radius entering the
    overall amplitude scale; it is distinct from the turbulence
    coherence length rho0 and cancels in every normalized comparison.
    """
    for name, value in (("prefactor_radius", prefactor_radius), ("power_m", power_m),
                        ("power_mp", power_mp)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    lam_l = cfg.wavelength * cfg.path_length
    prefactor = 2.0 * (math.pi * prefactor_radius**2 / lam_l) ** 4 * (power_m * power_mp)
    return prefactor * pair_coherence_factor(rho_b, rho_p, rho_m, rho_mp, cfg, model)


def predicted_ghost_image(setup: RunSetup) -> np.ndarray:
    """Ghost image the closed form predicts for a run, on its reference grid.

    Per unit squared subsource power, constant background omitted, with
    q = k / L, rho0 = setup.model.image_rho0, pair weights
    w = exp(-|rho_m - rho_m'|^2 / rho0^2) (ones in vacuum),
    R[p,m] = exp(i q rho_p . rho_m) and the object's mutual intensity
    C[m,m'] = sum_b T_b exp(i q rho_b . (rho_m - rho_m')):

        image(rho_p) = sum_b T_b sum_{m,m'} w cos(q (rho_b - rho_p) . (rho_m - rho_m'))
                     = Re sum_{m,m'} conj(R[p,m]) (w * C)[m,m'] R[p,m'].

    A point bucket is a one-pixel mask.  The m = m' terms give a flat
    pedestal M sum_b T_b, the one the simulated frame covariance carries.
    RunSetup has already checked that the geometry is paraxial.
    """
    pos = setup.sources.positions
    mask, ref_grid = setup.mask, setup.ref_grid
    q = setup.cfg.wavenumber / setup.cfg.path_length
    t = mask.transmissivity.ravel()
    lit = np.flatnonzero(t)
    bucket = mask.grid.points().reshape(-1, 2)[lit]
    e = np.exp(1j * q * (bucket @ pos.T))
    mutual = (t[lit, None] * e).T @ e.conj()
    rho0 = setup.model.image_rho0
    if not math.isinf(rho0):
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        mutual *= np.exp(-d2 / rho0**2)
    r = np.exp(1j * q * (ref_grid.points().reshape(-1, 2) @ pos.T))
    image = np.einsum("pm,pm->p", r.conj() @ mutual, r).real
    return image.reshape(ref_grid.ny, ref_grid.nx)


def corrected_mds_lhs(mag, geo, turb) -> np.ndarray:
    """Two-mode interference intensity with per-mode turbulence phases.

    Detectors 1 and 2 each receive both source modes a and b.  mag, geo
    and turb are array_likes with a leading axis of 4 ordered
    (1a, 1b, 2a, 2b): the propagator magnitudes, their propagation
    phases, and the turbulence phases picked up on that detector path
    for that mode.  The trailing axes broadcast, so random draws are
    evaluated in one vectorized call.

    |m2a e^{i(geo2a+turb2a)} m1b e^{i(geo1b+turb1b)}
       + m2b e^{i(geo2b+turb2b)} m1a e^{i(geo1a+turb1a)}|^2

    When the turbulence phase on each detector path is the same for both
    modes it factors out of the sum and the result equals the
    turbulence-free value, the one with turb = 0; mode-dependent phases
    break the cancellation.
    """
    mag, geo, turb = (np.asarray(a, dtype=float) for a in (mag, geo, turb))
    for name, arr in (("mag", mag), ("geo", geo), ("turb", turb)):
        if arr.ndim == 0 or arr.shape[0] != 4:
            raise ValidationError(
                f"{name} needs a leading axis of 4 (1a, 1b, 2a, 2b), got shape {arr.shape}")
    if np.any(mag < 0):
        raise ValidationError("magnitudes must be non-negative")
    term1 = mag[2] * mag[1] * np.exp(1j * (geo[2] + turb[2] + geo[1] + turb[1]))
    term2 = mag[3] * mag[0] * np.exp(1j * (geo[3] + turb[3] + geo[0] + turb[0]))
    total = term1 + term2
    return total.real**2 + total.imag**2


def mds_demo_rows(seed: int = 20260815, matched_draws: int = 10_000,
                  random_draws: int = 1_000_000) -> list[dict]:
    """Worst-case and mean behavior of the corrected two-photon sum.

    Row one: detector phase noise common to both interfering terms
    (mode-independent) cancels, so the corrected value tracks the
    noise-free one draw by draw.  Row two: mode-dependent phase noise
    destroys the interference, pulling the mean from 4 to 2 at unit
    magnitudes and zero geometric phases.
    """
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.1, 2.0, size=(4, matched_draws))
    geos = rng.uniform(0.0, 2.0 * math.pi, size=(4, matched_draws))
    # One phase per detector path, shared by both modes: (1a, 1b, 2a, 2b) = (t1, t1, t2, t2).
    common = rng.uniform(0.0, 2.0 * math.pi, size=(2, matched_draws))[[0, 0, 1, 1]]
    corrected = corrected_mds_lhs(mags, geos, common)
    clean = corrected_mds_lhs(mags, geos, np.zeros(4))
    worst = float(np.max(np.abs(corrected - clean) / clean))

    turb = rng.uniform(0.0, 2.0 * math.pi, size=(4, random_draws))
    mean_scrambled = float(np.mean(corrected_mds_lhs(np.ones(4), np.zeros(4), turb)))

    return [
        {"case": "mode_independent", "draws": matched_draws,
         "max_rel_diff_vs_clean": worst, "mean_lhs": float(np.mean(corrected)),
         "clean_mean_lhs": float(np.mean(clean))},
        {"case": "mode_dependent", "draws": random_draws,
         "max_rel_diff_vs_clean": float("nan"), "mean_lhs": mean_scrambled,
         "clean_mean_lhs": 4.0},
    ]


@dataclass(frozen=True)
class ImmunityVerdict:
    immune: bool
    margin: float
    source_diameter: float
    rho0: float


def immunity_criterion(source, rho0: float) -> ImmunityVerdict:
    """Whether every subsource pair fits inside one coherence area.

    source is a SubsourceSet or a plain diameter in meters.  The verdict
    is immune only for diameter strictly below rho0; margin is
    rho0 / diameter.
    """
    diameter = float(getattr(source, "diameter", source))
    if math.isnan(diameter) or diameter <= 0:
        raise ValidationError(f"source diameter must be > 0, got {diameter}")
    if math.isnan(rho0) or rho0 <= 0:
        raise ValidationError(f"rho0 must be > 0 (math.inf for none), got {rho0}")
    margin = rho0 / diameter
    return ImmunityVerdict(immune=bool(diameter < rho0), margin=margin,
                           source_diameter=diameter, rho0=rho0)
