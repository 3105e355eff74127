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
single product of predicted_ghost_image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlator import ObjectMask
from .errors import ValidationError
from .optics import Grid2D, check_paraxial
from .source import SubsourceSet


@dataclass(frozen=True)
class CoherenceParams:
    """Inputs of the closed-form coherence expressions.

    prefactor_radius is the effective subsource radius entering the
    overall amplitude scale; it is distinct from the turbulence
    coherence length rho0 and cancels in every normalized comparison.
    """

    wavelength: float
    path_length: float
    rho0: float
    prefactor_radius: float
    power_m: float = 1.0
    power_mp: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValidationError(f"wavelength must be finite and > 0, got {self.wavelength}")
        if not (math.isfinite(self.path_length) and self.path_length > 0):
            raise ValidationError(f"path_length must be finite and > 0, got {self.path_length}")
        if math.isnan(self.rho0) or self.rho0 <= 0:
            raise ValidationError(f"rho0 must be > 0 (math.inf for none), got {self.rho0}")
        if not (math.isfinite(self.prefactor_radius) and self.prefactor_radius > 0):
            raise ValidationError(
                f"prefactor_radius must be finite and > 0, got {self.prefactor_radius}"
            )
        if self.power_m <= 0 or self.power_mp <= 0:
            raise ValidationError("subsource powers must be > 0")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def pair_coherence_factor(rho_b, rho_p, rho_m, rho_mp, params: CoherenceParams) -> np.ndarray:
    """Bracket factor in [0, 2]: 1 + cos(geometric) * exp(-r^2/rho0^2).

    Broadcasts over leading axes of the four (..., 2) coordinates.
    """
    rb = np.asarray(rho_b, dtype=float)
    rp = np.asarray(rho_p, dtype=float)
    rm = np.asarray(rho_m, dtype=float)
    rmp = np.asarray(rho_mp, dtype=float)
    for name, arr in (("rho_b", rb), ("rho_p", rp), ("rho_m", rm), ("rho_mp", rmp)):
        if arr.shape[-1] != 2:
            raise ValidationError(f"{name} must have a trailing axis of size 2 (x, y)")
    k = params.wavenumber
    d_det = rb - rp
    d_src = rm - rmp
    geometric = k * np.sum(d_det * d_src, axis=-1) / params.path_length
    r2 = np.sum(d_src**2, axis=-1)
    if math.isinf(params.rho0):
        gauss = np.ones_like(r2)
    else:
        gauss = np.exp(-r2 / params.rho0**2)
    return 1.0 + np.cos(geometric) * gauss


def glauber_pair_term(rho_b, rho_p, rho_m, rho_mp, params: CoherenceParams) -> np.ndarray:
    """Ensemble-averaged two-photon coherence for one subsource pair."""
    lam_l = params.wavelength * params.path_length
    prefactor = 2.0 * (math.pi * params.prefactor_radius**2 / lam_l) ** 4
    prefactor *= params.power_m * params.power_mp
    return prefactor * pair_coherence_factor(rho_b, rho_p, rho_m, rho_mp, params)


def predicted_ghost_image(ref_grid: Grid2D, mask: ObjectMask, sources: SubsourceSet,
                          params: CoherenceParams) -> np.ndarray:
    """Ghost image predicted on a reference grid for a bucket behind a mask.

    Per unit squared subsource power, constant background omitted, with
    q = k / L, pair weights w = exp(-|rho_m - rho_m'|^2 / rho0^2) (ones in
    vacuum), R[p,m] = exp(i q rho_p . rho_m) and the object's mutual
    intensity C[m,m'] = sum_b T_b exp(i q rho_b . (rho_m - rho_m')):

        image(rho_p) = sum_b T_b sum_{m,m'} w cos(q (rho_b - rho_p) . (rho_m - rho_m'))
                     = Re sum_{m,m'} conj(R[p,m]) (w * C)[m,m'] R[p,m'].

    A point bucket is a one-pixel mask.  The m = m' terms give a flat
    pedestal M sum_b T_b, the one the simulated frame covariance carries.
    Non-paraxial geometry raises ConfigurationError.
    """
    pos = sources.positions
    check_paraxial(pos, (mask.grid, ref_grid), params.wavenumber, params.path_length)
    q = params.wavenumber / params.path_length
    t = mask.transmissivity.ravel()
    lit = np.flatnonzero(t)
    bucket = mask.grid.points().reshape(-1, 2)[lit]
    e = np.exp(1j * q * (bucket @ pos.T))
    mutual = (t[lit, None] * e).T @ e.conj()
    if not math.isinf(params.rho0):
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        mutual *= np.exp(-d2 / params.rho0**2)
    r = np.exp(1j * q * (ref_grid.points().reshape(-1, 2) @ pos.T))
    image = np.einsum("pm,pm->p", r.conj() @ mutual, r).real
    return image.reshape(ref_grid.ny, ref_grid.nx)


@dataclass(frozen=True, eq=False)
class TwoPhotonPhases:
    """Magnitudes and phases of the two-detector, two-mode amplitude.

    Detector 1 and 2 each receive both source modes a and b.  mag*_ are
    the propagator magnitudes, geo*_ their propagation phases, turb*_
    the turbulence phases picked up on the corresponding detector path
    for the corresponding mode.  All twelve entries broadcast, so random
    draws can be evaluated in one vectorized call.
    """

    mag1_a: np.ndarray
    mag1_b: np.ndarray
    mag2_a: np.ndarray
    mag2_b: np.ndarray
    geo1_a: np.ndarray
    geo1_b: np.ndarray
    geo2_a: np.ndarray
    geo2_b: np.ndarray
    turb1_a: np.ndarray
    turb1_b: np.ndarray
    turb2_a: np.ndarray
    turb2_b: np.ndarray

    def __post_init__(self):
        for name in ("mag1_a", "mag1_b", "mag2_a", "mag2_b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr < 0):
                raise ValidationError(f"{name} must be non-negative")
            object.__setattr__(self, name, arr)
        for name in ("geo1_a", "geo1_b", "geo2_a", "geo2_b",
                     "turb1_a", "turb1_b", "turb2_a", "turb2_b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def corrected_mds_lhs(phases: TwoPhotonPhases) -> np.ndarray:
    """Two-mode interference intensity with per-mode turbulence phases.

    |m2a e^{i(geo2a+turb2a)} m1b e^{i(geo1b+turb1b)}
       + m2b e^{i(geo2b+turb2b)} m1a e^{i(geo1a+turb1a)}|^2

    When the turbulence phase on each detector path is the same for both
    modes it factors out of the sum and the result equals the
    turbulence-free value; mode-dependent phases break the cancellation.
    """
    p = phases
    term1 = (p.mag2_a * p.mag1_b
             * np.exp(1j * (p.geo2_a + p.turb2_a + p.geo1_b + p.turb1_b)))
    term2 = (p.mag2_b * p.mag1_a
             * np.exp(1j * (p.geo2_b + p.turb2_b + p.geo1_a + p.turb1_a)))
    total = term1 + term2
    return total.real**2 + total.imag**2


def turbulence_free_lhs(phases: TwoPhotonPhases) -> np.ndarray:
    """Same two-mode intensity with every turbulence phase set to zero."""
    p = phases
    zeros = np.zeros(np.broadcast_shapes(np.shape(p.turb1_a), np.shape(p.turb1_b),
                                         np.shape(p.turb2_a), np.shape(p.turb2_b)))
    clean = TwoPhotonPhases(
        mag1_a=p.mag1_a, mag1_b=p.mag1_b, mag2_a=p.mag2_a, mag2_b=p.mag2_b,
        geo1_a=p.geo1_a, geo1_b=p.geo1_b, geo2_a=p.geo2_a, geo2_b=p.geo2_b,
        turb1_a=zeros, turb1_b=zeros, turb2_a=zeros, turb2_b=zeros,
    )
    return corrected_mds_lhs(clean)


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
    common1, common2 = rng.uniform(0.0, 2.0 * math.pi, size=(2, matched_draws))
    matched = TwoPhotonPhases(
        mag1_a=mags[0], mag1_b=mags[1], mag2_a=mags[2], mag2_b=mags[3],
        geo1_a=geos[0], geo1_b=geos[1], geo2_a=geos[2], geo2_b=geos[3],
        turb1_a=common1, turb1_b=common1, turb2_a=common2, turb2_b=common2)
    corrected = corrected_mds_lhs(matched)
    clean = turbulence_free_lhs(matched)
    worst = float(np.max(np.abs(corrected - clean) / clean))

    ones = np.ones(random_draws)
    zeros = np.zeros(random_draws)
    turb = rng.uniform(0.0, 2.0 * math.pi, size=(4, random_draws))
    scrambled = TwoPhotonPhases(
        mag1_a=ones, mag1_b=ones, mag2_a=ones, mag2_b=ones,
        geo1_a=zeros, geo1_b=zeros, geo2_a=zeros, geo2_b=zeros,
        turb1_a=turb[0], turb1_b=turb[1], turb2_a=turb[2], turb2_b=turb[3])
    mean_scrambled = float(np.mean(corrected_mds_lhs(scrambled)))

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
