import math
import warnings

import numpy as np
import pytest

from ghost_turb.analytic import immunity_criterion
from ghost_turb.config import build_config
from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.turbulence import (CnSquaredProfile, TurbulenceModel, coherence_length,
                                   weighted_path_integral, weighted_path_integral_for)

import oracles

LAM = 780e-9
LENGTH = 1.4
CN2 = 1.5e-12


def test_uniform_profile_roundtrip():
    p = CnSquaredProfile.uniform(LENGTH, CN2)
    assert p.path_length == LENGTH
    assert p.segments == ((0.0, LENGTH, CN2),)


@pytest.mark.parametrize("segments, message", [
    (((0.0, 0.5, 1e-13), (0.6, 1.4, 1e-13)), "contiguous"),
    (((0.0, 0.5, -1e-13), (0.5, 1.4, 1e-13)), "negative"),
    (((0.0, 0.5, 1e-13), (0.5, 1.2, 1e-13)), "path_length"),
    (((0.5, 0.0, 1e-13),), "z_end"),
])
def test_profile_validation(segments, message):
    with pytest.raises(ValidationError, match=message):
        CnSquaredProfile(segments=segments, path_length=LENGTH)


def test_profile_needs_segments():
    with pytest.raises(ValidationError, match="at least one segment"):
        CnSquaredProfile(segments=(), path_length=LENGTH)


def test_from_lines_uniform_and_rows():
    p1 = CnSquaredProfile.from_lines(["# laser path", "uniform 1.4 1.5e-12", ""])
    assert p1 == CnSquaredProfile.uniform(1.4, 1.5e-12)
    assert CnSquaredProfile.from_lines(["0 1.4 1.5e-12"]) == p1
    p2 = CnSquaredProfile.from_lines([
        "0.0 0.7 1.0e-12  # near half",
        "0.7 1.4 2.0e-12",
    ])
    assert p2.path_length == 1.4
    assert p2.segments == ((0.0, 0.7, 1.0e-12), (0.7, 1.4, 2.0e-12))


@pytest.mark.parametrize("lines", [
    ["uniform 1.4"],
    ["uniform 1.4 1e-12", "0.0 1.4 1e-12"],
    ["0.0 0.7 1e-12 junk"],
    ["#only comments"],
])
def test_from_lines_rejects_malformed(lines):
    with pytest.raises(ConfigurationError):
        CnSquaredProfile.from_lines(lines)


@pytest.mark.parametrize("segments", [
    ((0.0, 1.4, 1.5e-12),),
    ((0.0, 0.4, 2e-12), (0.4, 1.4, 5e-13)),
    ((0.0, 0.2, 0.0), (0.2, 0.9, 3e-12), (0.9, 1.4, 1e-14)),
])
def test_weighted_integral_matches_quadrature(segments):
    p = CnSquaredProfile(segments=segments, path_length=1.4)
    ours = weighted_path_integral(p)
    ref = oracles.path_integral_quad(segments, 1.4)
    assert ours == pytest.approx(ref, rel=1e-9)


def test_staircase_converges_to_ramp_integral():
    # cn2(z) = cmax z / L sampled as a 2000-step staircase at midpoints
    cmax = 1.5e-12
    steps = 2000
    edges = np.linspace(0.0, LENGTH, steps + 1)
    segments = tuple(
        (float(edges[i]), float(edges[i + 1]),
         cmax * float(edges[i] + edges[i + 1]) / (2.0 * LENGTH))
        for i in range(steps))
    p = CnSquaredProfile(segments=segments, path_length=LENGTH)
    # ramp weighted by (1 - z/L)^(5/3) integrates to cmax * L * 9/88
    exact = oracles.ramp_integral_exact(cmax, LENGTH)
    assert weighted_path_integral(p) == pytest.approx(exact, rel=1e-5)


def test_coherence_length_nominal_regime():
    p = CnSquaredProfile.uniform(LENGTH, CN2)
    rho0 = coherence_length(p, LAM)
    assert 0.0494 <= rho0 <= 0.0500
    assert rho0 == pytest.approx(oracles.rho0_uniform_mp(LAM, LENGTH, CN2), rel=1e-10)


def test_coherence_length_wavelength_scaling():
    p = CnSquaredProfile.uniform(LENGTH, CN2)
    ratio = coherence_length(p, 2 * LAM) / coherence_length(p, LAM)
    assert ratio == pytest.approx(2.0 ** 1.2, rel=1e-12)
    # doubling the structure constant shrinks rho0 by 2^(-3/5)
    p2 = CnSquaredProfile.uniform(LENGTH, 2 * CN2)
    assert coherence_length(p2, LAM) / coherence_length(p, LAM) == pytest.approx(
        2.0 ** -0.6, rel=1e-12)


def test_coherence_length_monotone_in_cn2():
    p = CnSquaredProfile.uniform(LENGTH, CN2)
    values = [coherence_length(CnSquaredProfile.uniform(LENGTH, c), LAM)
              for c in (1e-14, 1e-13, 1e-12, 1e-11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zero_turbulence_gives_infinite_rho0():
    p = CnSquaredProfile.uniform(LENGTH, 0.0)
    assert coherence_length(p, LAM) == math.inf


@pytest.mark.parametrize("cn2", [1e-15, CN2, 3e-10])
def test_inverse_rho0_law_round_trips_through_coherence_length(cn2):
    p = CnSquaredProfile.uniform(LENGTH, cn2)
    rho0 = coherence_length(p, LAM)
    integral = weighted_path_integral_for(rho0, LAM)
    assert integral == pytest.approx(weighted_path_integral(p), rel=1e-12)
    back = CnSquaredProfile.uniform(LENGTH, integral / (3.0 * LENGTH / 8.0))
    assert coherence_length(back, LAM) == pytest.approx(rho0, rel=1e-12)


def test_inverse_rho0_law_of_no_turbulence_is_zero():
    assert weighted_path_integral_for(math.inf, LAM) == 0.0


@pytest.mark.parametrize("rho0, wavelength", [(0.0, LAM), (-1.0, LAM), (math.nan, LAM),
                                              (0.05, 0.0), (0.05, math.inf)])
def test_inverse_rho0_law_rejects_bad_inputs(rho0, wavelength):
    with pytest.raises(ValidationError):
        weighted_path_integral_for(rho0, wavelength)


# Every entry point of the coherence-length rule, errors.require_length.
RHO0_ENTRY_POINTS = {
    "TurbulenceModel": lambda rho0: TurbulenceModel(rho0=rho0),
    "weighted_path_integral_for": lambda rho0: weighted_path_integral_for(rho0, LAM),
    "immunity_criterion": lambda rho0: immunity_criterion(11e-3, rho0),
    "build_config_rho0": lambda rho0: build_config({"rho0": repr(rho0)}),
    "build_config_sweep": lambda rho0: build_config({"rho0_sweep_mm": f"2,{rho0!r}"}),
}


@pytest.mark.parametrize("rho0", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("entry", RHO0_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_coherence_length_with_one_text(entry, rho0):
    name = "rho0_sweep_mm" if entry == "build_config_sweep" else "rho0"
    cls, text = ValidationError, f"{name} must be > 0 (inf for no turbulence), got {rho0}"
    if entry.startswith("build_config") and math.isnan(rho0):
        # A config value is a finite number before it is a length.
        cls, text = ConfigurationError, f"{name}: expected a finite number, got 'nan'"
    with pytest.raises(ValueError) as caught:
        RHO0_ENTRY_POINTS[entry](rho0)
    assert type(caught.value) is cls
    assert str(caught.value) == text


def test_coherence_length_rejects_bad_wavelength():
    p = CnSquaredProfile.uniform(LENGTH, CN2)
    with pytest.raises(ValidationError):
        coherence_length(p, 0.0)


def test_turbulence_model_validation():
    with pytest.raises(ValidationError):
        TurbulenceModel(rho0=-1.0)
    for fraction in (1.5, 0.5, -0.1, math.nan):
        with pytest.raises(ValidationError, match="source plane"):
            TurbulenceModel(rho0=1.0, screen_position_fraction=fraction)


def test_image_rho0_is_rho0_only_for_independent_source_plane_screens():
    assert TurbulenceModel(rho0=0.01).image_rho0 == 0.01
    assert TurbulenceModel(rho0=0.01, paths_independent=False).image_rho0 == math.inf
    assert TurbulenceModel(rho0=0.01, screen_position_fraction=1.0).image_rho0 == math.inf
    assert TurbulenceModel(rho0=math.inf).image_rho0 == math.inf


def test_tilt_std_is_sqrt2_over_image_rho0():
    # The relative screen's tilt has variance 2 / rho0^2 per component;
    # an image that sees no turbulence gets no tilt.
    assert TurbulenceModel(rho0=5e-3).tilt_std == math.sqrt(2.0) / 5e-3
    assert TurbulenceModel(rho0=math.inf).tilt_std == 0.0
    assert TurbulenceModel(rho0=5e-3, paths_independent=False).tilt_std == 0.0
    assert TurbulenceModel(rho0=5e-3, screen_position_fraction=1.0).tilt_std == 0.0


def test_pair_weight_is_the_square_law_and_exactly_one_without_turbulence():
    r2 = np.array([[0.0, 1e-6], [4e-6, 1.21e-4]])
    rho0 = 5e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in (TurbulenceModel(rho0=math.inf),
                      TurbulenceModel(rho0=rho0, paths_independent=False),
                      TurbulenceModel(rho0=rho0, screen_position_fraction=1.0)):
            assert np.array_equal(model.pair_weight(r2), np.ones_like(r2))
        assert np.array_equal(TurbulenceModel(rho0=rho0).pair_weight(r2),
                              np.exp(-r2 / rho0**2))


def test_screen_structure_function_tracks_square_law():
    # Ensemble structure function over seeded screens equals
    # 2 r^2 / rho0^2 at every separation up to the 11 mm source
    # diameter, in every direction, for strong and nominal turbulence.
    # A screen is the tilt tilt_std times two standard normals; each
    # gives one squared phase increment per separation.  The standard
    # error is over screens.
    screens = 4000
    for rho0 in (2e-3, 49.73e-3):
        tilt_std = TurbulenceModel(rho0=rho0).tilt_std
        tilts = np.concatenate([tilt_std * np.random.default_rng((11, i)).standard_normal((1, 2))
                                for i in range(screens)])
        for r in (0.25e-3, 1e-3, 2e-3, 5.5e-3, 11e-3):
            for angle in (0.0, 0.7, 1.9, 3.0):
                half = 0.5 * r * np.array([math.cos(angle), math.sin(angle)])
                diff = tilts @ np.stack([half, -half]).T
                increments = (diff[:, 0] - diff[:, 1]) ** 2
                est = float(np.mean(increments))
                se = float(np.std(increments, ddof=1) / math.sqrt(screens))
                assert est == pytest.approx(2.0 * r**2 / rho0**2, abs=4.0 * se)
