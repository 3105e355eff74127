import math

import numpy as np
import pytest

from ghost_turb.errors import ConfigurationError, ValidationError
from ghost_turb.optics import Grid2D
from ghost_turb.turbulence import (CnSquaredProfile, ScreenSampler, TurbulenceModel,
                                   coherence_length, default_covariance_scale,
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


def phases(sampler, seed, count, points):
    """Screen phases (count, P) at points: draw() rows through the mode table."""
    return sampler.draw(np.random.default_rng(seed), count) @ sampler.mode_table(points)


def test_screen_zero_for_infinite_rho0():
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=math.inf))
    assert sampler.sigma2 == 0.0
    assert np.all(sampler.mode_covariance(np.ones((3, 2))) == 0.0)
    with pytest.raises(ValidationError, match="turbulence-free"):
        sampler.draw(np.random.default_rng(4), 1)
    with pytest.raises(ValidationError, match="turbulence-free"):
        sampler.mode_table(np.zeros((1, 2)))


def test_screen_regeneration_is_bit_identical():
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    pts = g.points().reshape(-1, 2)
    a = phases(sampler, (9, 3, 2), 1, pts)
    b = phases(ScreenSampler(g, TurbulenceModel(rho0=5e-3)), (9, 3, 2), 1, pts)
    c = phases(sampler, (9, 3, 3), 1, pts)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    # Each screen contributes the mean squared phase increment over every
    # node pair of the grid at one offset; the standard error is over
    # screens, which keeps it honest despite correlated pairs in a screen.
    g = grid_for_screens(n=33, pitch=2.5e-4)
    model = TurbulenceModel(rho0=4e-3)
    sampler = ScreenSampler(g, model)
    draws = np.concatenate([sampler.draw(np.random.default_rng((11, i)), 1)
                            for i in range(400)])
    nodes = (draws @ sampler.mode_table(g.points())).reshape(-1, g.ny, g.nx)
    for dx, dy in ((1, 0), (0, 2), (3, 3)):
        diff = nodes[:, dy:, dx:] - nodes[:, :g.ny - dy, :g.nx - dx]
        per_screen = np.mean(diff**2, axis=(1, 2))
        est = float(np.mean(per_screen))
        se = float(np.std(per_screen, ddof=1) / math.sqrt(per_screen.size))
        r = g.pitch * math.hypot(dx, dy)
        sep = np.array([dx * g.pitch, dy * g.pitch])
        exact = 2.0 * (sampler.mode_covariance(np.zeros(2))
                       - sampler.mode_covariance(sep))
        assert est == pytest.approx(float(exact), abs=4.0 * se)
        assert float(exact) == pytest.approx(2.0 * r**2 / model.rho0**2, rel=0.01)


def _full_plane_phases(sampler, normals, points):
    """Phases of one screen as a Hermitian sum over the full mode plane.

    Coefficient c_k = amp_k (g_cos - i g_sin) / sqrt(2) on a half-plane
    mode and conj(c_k) on its mirror -k, amp_0 g_0 at k = 0, summed with
    no real part taken: an independent route to the mode table's phases.
    """
    amp = sampler._amp.reshape(-1)
    center = amp.size // 2
    half = np.arange(center + 1, amp.size)
    coeff = np.zeros(amp.size, dtype=complex)
    coeff[center] = normals[0] * amp[center]
    coeff[half] = amp[half] * (normals[1:half.size + 1] - 1j * normals[half.size + 1:])
    coeff[half] /= math.sqrt(2.0)
    coeff[amp.size - 1 - half] = np.conj(coeff[half])
    ky, kx = np.meshgrid(sampler._k1d, sampler._k1d, indexing="ij")
    arg = np.outer(points[:, 0], kx.reshape(-1)) + np.outer(points[:, 1], ky.reshape(-1))
    return np.exp(1j * arg) @ coeff


def test_sample_keeps_its_draw_order():
    # A screen draws K standard normals from its generator: the cosine
    # coefficient of k = 0, the cosine coefficients of the half plane
    # (flat mode index j > K // 2, ky-major), then their sine
    # coefficients; a half-plane mode carries sqrt(2) times its weight.
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    pts = g.points().reshape(-1, 2)
    amp = sampler._amp.reshape(-1)
    center = amp.size // 2
    normals = np.random.default_rng((9, 3, 2)).standard_normal(amp.size)
    expected = normals[0] * amp[center] * np.ones(pts.shape[0])
    ky, kx = np.meshgrid(sampler._k1d, sampler._k1d, indexing="ij")
    kx, ky = kx.reshape(-1), ky.reshape(-1)
    for r, j in enumerate(range(center + 1, amp.size)):
        cos, sin = normals[1 + r], normals[center + 1 + r]
        arg = kx[j] * pts[:, 0] + ky[j] * pts[:, 1]
        expected += math.sqrt(2.0) * amp[j] * (cos * np.cos(arg) + sin * np.sin(arg))
    got = phases(sampler, (9, 3, 2), 1, pts)[0]
    assert np.max(np.abs(got - expected)) <= 1e-12
    block = sampler.draw(np.random.default_rng((9, 3, 2)), 4)
    assert block.shape == (4, amp.size)
    assert np.array_equal(block[0], normals)


def test_mode_table_matches_screen_at_nodes():
    g = grid_for_screens()
    sampler = ScreenSampler(g, TurbulenceModel(rho0=5e-3))
    pts = g.points().reshape(-1, 2)[::7]
    draws = sampler.draw(np.random.default_rng(17), 3)
    got = draws @ sampler.mode_table(pts)
    for i in range(3):
        screen = _full_plane_phases(sampler, draws[i], pts)
        assert np.max(np.abs(screen.imag)) <= 1e-12
        assert np.max(np.abs(got[i] - screen.real)) <= 1e-12
    assert np.max(np.abs(got)) > 0.1
