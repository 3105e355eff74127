import math

import numpy as np
import pytest

from ghost_turb.errors import (ConfigurationError, InsufficientDataError,
                               ValidationError)
from ghost_turb.optics import Grid2D
from ghost_turb.turbulence import (CnSquaredProfile, ScreenSampler, TurbulenceModel,
                                   coherence_length, default_covariance_scale,
                                   generate_phase_screen, structure_function_estimate,
                                   weighted_path_integral)

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


def test_from_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("0.0 0.7 1.5e-12\n0.7 1.4 0.5e-12\n")
    p = CnSquaredProfile.from_file(path)
    assert p.segments[1] == (0.7, 1.4, 0.5e-12)


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
    assert TurbulenceModel(rho0=math.inf).turbulent is False
    assert TurbulenceModel(rho0=0.01).turbulent is True


def grid_for_screens(n=33, pitch=2.5e-4):
    return Grid2D.centered(n, n, pitch)


def test_default_covariance_scale():
    g = grid_for_screens(n=33, pitch=2.5e-4)
    assert default_covariance_scale(g) == pytest.approx(4.0 * 32 * 2.5e-4)
    tiny = Grid2D.centered(2, 2, 1e-3)
    assert default_covariance_scale(tiny) == pytest.approx(8e-3)


def test_screen_zero_for_infinite_rho0():
    g = grid_for_screens()
    s = generate_phase_screen(g, TurbulenceModel(rho0=math.inf), seed=4)
    assert np.all(s.values == 0.0)
    assert s.sigma2 == 0.0


def test_screen_regeneration_is_bit_identical():
    g = grid_for_screens()
    model = TurbulenceModel(rho0=5e-3)
    a = generate_phase_screen(g, model, seed=(9, 3, 2))
    b = generate_phase_screen(g, model, seed=(9, 3, 2))
    c = generate_phase_screen(g, model, seed=(9, 3, 3))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_screen_pitch_precondition():
    g = Grid2D.centered(17, 17, 2e-3)
    with pytest.raises(ValidationError, match="rho0/4"):
        generate_phase_screen(g, TurbulenceModel(rho0=5e-3), seed=1)


def test_sampler_rejects_bad_seed():
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    with pytest.raises(ValidationError):
        sampler.sample(-3)
    with pytest.raises(ValidationError):
        sampler.sample((1, -2))


def test_mode_covariance_matches_target_gaussian():
    # The truncated mode table must carry the intended covariance
    # sigma2 * exp(-r^2/ell^2) with little truncation error.
    g = grid_for_screens()
    model = TurbulenceModel(rho0=5e-3)
    sampler = ScreenSampler(g, model)
    rs = np.array([0.0, 0.5e-3, 1e-3, 2e-3, 4e-3, 8e-3])
    seps = np.stack([rs, np.zeros_like(rs)], axis=-1)
    got = sampler.mode_covariance(seps)
    want = sampler.sigma2 * np.exp(-(rs / sampler.ell) ** 2)
    assert got == pytest.approx(want, rel=2e-4)


def test_screen_structure_function_tracks_square_law():
    # Ensemble structure function ~= 2 r^2 / rho0^2 in the quadratic
    # regime, validated against the mode-exact value and the square law.
    g = grid_for_screens(n=33, pitch=2.5e-4)
    model = TurbulenceModel(rho0=4e-3)
    sampler = ScreenSampler(g, model)
    screens = [sampler.sample((11, i)) for i in range(400)]
    for offset in ((1, 0), (0, 2), (3, 3)):
        est, se = structure_function_estimate(screens, offset)
        r = g.pitch * math.hypot(*offset)
        sep = np.array([offset[0] * g.pitch, offset[1] * g.pitch])
        exact = 2.0 * (sampler.mode_covariance(np.zeros(2))
                       - sampler.mode_covariance(sep))
        assert est == pytest.approx(float(exact), abs=4.0 * se)
        assert float(exact) == pytest.approx(2.0 * r**2 / model.rho0**2, rel=0.01)


def test_structure_function_estimate_edges():
    g = grid_for_screens(n=9)
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    screens = [sampler.sample((5, i)) for i in range(3)]
    assert structure_function_estimate(screens, (0, 0)) == (0.0, 0.0)
    # negative offsets agree with their mirror image
    plus, _ = structure_function_estimate(screens, (2, 1))
    minus, _ = structure_function_estimate(screens, (-2, -1))
    assert plus == pytest.approx(minus, rel=1e-12)
    with pytest.raises(InsufficientDataError):
        structure_function_estimate(screens[:1], (1, 0))
    with pytest.raises(ValidationError):
        structure_function_estimate(screens, (9, 0))
    with pytest.raises(InsufficientDataError):
        structure_function_estimate([], (1, 0))


def test_structure_function_accepts_stack():
    stack = np.zeros((3, 5, 5))
    stack[1] = 1.0
    mean, se = structure_function_estimate(stack, (1, 0))
    assert mean == 0.0 and se == 0.0


def test_sample_at_matches_grid_nodes():
    g = grid_for_screens()
    screen = generate_phase_screen(g, TurbulenceModel(rho0=5e-3), seed=2)
    pts = g.points()
    got = screen.sample_at(pts)
    assert np.allclose(got, screen.values, rtol=0.0, atol=1e-12)


def test_sample_at_outside_grid_raises():
    g = grid_for_screens()
    screen = generate_phase_screen(g, TurbulenceModel(rho0=5e-3), seed=2)
    with pytest.raises(ValidationError, match="outside"):
        screen.sample_at(np.array([g.x()[-1] + g.pitch, 0.0]))


def test_sample_at_interpolates_between_nodes(rng):
    g = grid_for_screens()
    screen = generate_phase_screen(g, TurbulenceModel(rho0=5e-3), seed=3)
    x = g.x()
    y = g.y()
    mid = screen.sample_at(np.array([(x[4] + x[5]) / 2.0, y[7]]))
    manual = 0.5 * (screen.values[7, 4] + screen.values[7, 5])
    assert float(mid) == pytest.approx(manual, rel=1e-12)


def test_sample_keeps_its_draw_order():
    # sample(seed) draws K standard normals from default_rng(seed): the
    # cosine coefficient of k = 0, the cosine coefficients of the half
    # plane (flat mode index j > K // 2, ky-major), then their sine
    # coefficients; a half-plane mode carries sqrt(2) times its weight.
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    amp = sampler._amp.reshape(-1)
    center = amp.size // 2
    normals = np.random.default_rng((9, 3, 2)).standard_normal(amp.size)
    coeff = np.zeros(amp.size, dtype=complex)
    coeff[center] = normals[0] * amp[center]
    for r, j in enumerate(range(center + 1, amp.size)):
        cos, sin = normals[1 + r], normals[center + 1 + r]
        coeff[j] = math.sqrt(2.0) * amp[j] * (cos - 1j * sin)
    expected = (sampler._ey @ coeff.reshape(sampler._amp.shape) @ sampler._ex.T).real
    assert np.array_equal(sampler.sample((9, 3, 2)).values, expected)
    block = sampler.draw(np.random.default_rng((9, 3, 2)), 4)
    assert block.shape == (4, amp.size)
    assert np.array_equal(sampler.screen(block[0], (9, 3, 2)).values, expected)


def test_mode_table_matches_screen_at_nodes():
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    pts = g.points().reshape(-1, 2)[::7]
    table = sampler.mode_table(pts)
    draws = sampler.draw(np.random.default_rng(17), 3)
    phases = draws.reshape(3, -1) @ table
    for i in range(3):
        screen = sampler.screen(draws[i], (17, i))
        assert np.max(np.abs(phases[i] - screen.sample_at(pts))) <= 1e-12
    assert np.max(np.abs(phases)) > 0.1
