"""End-to-end acceptance battery.

Eight numbered criteria covering the coherence-length computation, the
immunity rule, the closed-form pair term against Monte Carlo, simulated
point-spread widths with and without turbulence, the phase-correction
identity, schedule determinism, and the property suites.  Each test
prints one PASS/FAIL line with its measured numbers.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from ghost_turb.analytic import immunity_criterion, mds_demo_rows, pair_coherence_factor
from ghost_turb.correlator import GhostImageEstimate, point_mask, psf_metrics
from ghost_turb.io_formats import write_pgm16
from ghost_turb.optics import Grid2D, OpticalConfig
from ghost_turb.simulate import RunSetup, run_simulation
from ghost_turb.source import BATCH_FRAMES, batch_generator, draw_polar, make_source_grid
from ghost_turb.turbulence import (CnSquaredProfile, TurbulenceModel, coherence_length,
                                   weighted_path_integral)
from oracles import glauber_pair_term, per_path_screen_model

WAVELENGTH = 780e-9
PATH_LENGTH = 1.4
DIAMETER = 11e-3
CN2 = 1.5e-12
SEED = 12345
FRAMES = 10_000
REF_PIXELS = 64
REF_PITCH = 12e-6
WORKERS = min(4, os.cpu_count() or 1)

CFG = OpticalConfig(wavelength=WAVELENGTH, path_length=PATH_LENGTH)


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _imaging_setup(rho0: float, fraction: float = 0.0) -> RunSetup:
    sources = make_source_grid(DIAMETER, DIAMETER / 16.0)
    model = TurbulenceModel(rho0=rho0, screen_position_fraction=fraction)
    obj_grid = Grid2D.centered(9, 9, 12e-6)
    ref_grid = Grid2D.centered(REF_PIXELS, REF_PIXELS, REF_PITCH)
    return RunSetup(cfg=CFG, sources=sources, model=model,
                    mask=point_mask(obj_grid), ref_grid=ref_grid,
                    frames=FRAMES, seed=SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def rho0_nominal() -> float:
    return coherence_length(CnSquaredProfile.uniform(PATH_LENGTH, CN2), WAVELENGTH)


@pytest.fixture(scope="module")
def vacuum_run():
    return run_simulation(_imaging_setup(math.inf))


@pytest.fixture(scope="module")
def nominal_run(rho0_nominal):
    return run_simulation(_imaging_setup(rho0_nominal))


@pytest.fixture(scope="module")
def sweep_runs():
    return {mm: run_simulation(_imaging_setup(mm * 1e-3)) for mm in (2, 5, 10, 50)}


@pytest.fixture(scope="module")
def detector_screen_run():
    return run_simulation(_imaging_setup(2e-3, fraction=1.0))


@pytest.mark.law
def test_criterion_1_coherence_length(capsys):
    profile = CnSquaredProfile.uniform(PATH_LENGTH, CN2)
    loops = 200
    t0 = time.perf_counter()
    for _ in range(loops):
        rho0 = coherence_length(profile, WAVELENGTH)
    per_call = (time.perf_counter() - t0) / loops
    in_window = 0.0494 <= rho0 <= 0.0500
    fast = per_call < 1e-3
    _report(capsys, 1, in_window and fast,
            f"rho0 = {rho0 * 1e3:.4f} mm (window [49.4, 50.0] mm), "
            f"{per_call * 1e6:.1f} us per call")
    assert in_window
    assert fast
    reference = oracles.rho0_uniform_mp(WAVELENGTH, PATH_LENGTH, CN2)
    assert rho0 == pytest.approx(reference, rel=1e-10)


@pytest.mark.law
def test_criterion_2_immunity_verdict(capsys, rho0_nominal):
    sources = make_source_grid(DIAMETER, DIAMETER / 16.0)
    verdict = immunity_criterion(oracles.max_pairwise_distance(sources.positions), rho0_nominal)
    nominal = immunity_criterion(DIAMETER, rho0_nominal)
    ok = verdict.immune and nominal.immune and nominal.margin > 4.0
    _report(capsys, 2, ok,
            f"{DIAMETER * 1e3:.0f} mm source vs rho0 {rho0_nominal * 1e3:.2f} mm: "
            f"immune, margin {nominal.margin:.3f}")
    assert verdict.immune
    assert nominal.immune
    assert nominal.margin == pytest.approx(rho0_nominal / DIAMETER, rel=1e-12)


@pytest.mark.law
def test_criterion_3_pair_term_vs_monte_carlo(capsys, rho0_nominal):
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    draws = 200_000
    prefactor_radius = (DIAMETER / 16.0) / 2.0
    rho0_cases = (rho0_nominal, 10e-3, 2e-3)
    worst_pull = 0.0
    geometries = []
    for i in range(20):
        rho_b = rng.uniform(-3e-4, 3e-4, size=2)
        rho_p = rng.uniform(-3e-4, 3e-4, size=2)
        rho_m = rng.uniform(-5.5e-3, 5.5e-3, size=2)
        rho_mp = rng.uniform(-5.5e-3, 5.5e-3, size=2)
        power_m, power_mp = rng.uniform(0.5, 2.0, size=2)
        rho0 = rho0_cases[i % len(rho0_cases)]
        model = TurbulenceModel(rho0=rho0)
        analytic = float(glauber_pair_term(rho_b, rho_p, rho_m, rho_mp, CFG, model,
                                           prefactor_radius, power_m, power_mp))
        mc, se = oracles.pair_term_mc(rho_b, rho_p, rho_m, rho_mp, WAVELENGTH,
                                      PATH_LENGTH, rho0, prefactor_radius,
                                      power_m, power_mp, draws, seed=1000 + i)
        if se > 0:
            worst_pull = max(worst_pull, abs(analytic - mc) / se)
        geometries.append((rho_m, rho_mp, rho0, power_m, power_mp))
        assert abs(analytic - mc) <= 3.0 * se, (
            f"geometry {i}: analytic {analytic:.6g} vs MC {mc:.6g} +- {se:.2g}")

    # Cross-check with whole screens instead of Gaussian increments:
    # per-path tilts at the simulator's tilt_std, evaluated at the two
    # subsources, must push the same Monte Carlo average onto the closed
    # form.
    screen_draws = 2000
    for j in (0, 1, 2):
        rho_m, rho_mp, rho0, power_m, power_mp = geometries[j]
        model = TurbulenceModel(rho0=rho0, screen_position_fraction=0.0)
        tilt_std = per_path_screen_model(model).tilt_std
        target = float(glauber_pair_term((0.0, 0.0), (0.0, 0.0), rho_m, rho_mp, CFG, model,
                                         prefactor_radius, power_m, power_mp))
        mc, se = oracles.pair_term_mc_screens(rho_m, rho_mp, WAVELENGTH, PATH_LENGTH,
                                              rho0, prefactor_radius, power_m, power_mp,
                                              tilt_std, seed=7000 + j,
                                              draws=screen_draws)
        assert abs(target - mc) <= 4.0 * se, (
            f"screen geometry {j}: analytic {target:.6g} vs MC {mc:.6g} +- {se:.2g}")

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(capsys, 3, ok,
            f"20 geometries x {draws} draws, worst |pull| {worst_pull:.2f} sigma "
            f"(3 sigma bound), screen cross-check 3 x {screen_draws} draws, "
            f"{elapsed:.1f} s")
    assert ok


@pytest.mark.law
def test_criterion_4_psf_immune_at_nominal_rho0(capsys, vacuum_run, nominal_run):
    vac = psf_metrics(vacuum_run.result.ghost, vacuum_run.result.grid,
                      stderr=vacuum_run.result.stderr)
    turb = psf_metrics(nominal_run.result.ghost, nominal_run.result.grid,
                       stderr=nominal_run.result.stderr)
    rel_x = abs(turb.fwhm_x - vac.fwhm_x) / vac.fwhm_x
    rel_y = abs(turb.fwhm_y - vac.fwhm_y) / vac.fwhm_y
    elapsed = vacuum_run.wall_time_s + nominal_run.wall_time_s
    ok = rel_x <= 0.05 and rel_y <= 0.05 and elapsed < 600.0
    _report(capsys, 4, ok,
            f"fwhm vacuum ({vac.fwhm_x * 1e6:.1f}, {vac.fwhm_y * 1e6:.1f}) um vs "
            f"turbulent ({turb.fwhm_x * 1e6:.1f}, {turb.fwhm_y * 1e6:.1f}) um, "
            f"rel diff ({rel_x:.3f}, {rel_y:.3f}) <= 0.05, {elapsed:.0f} s")
    assert rel_x <= 0.05
    assert rel_y <= 0.05
    assert elapsed < 600.0


@pytest.mark.law
def test_criterion_5_degradation_and_monotonicity(capsys, vacuum_run, sweep_runs):
    vac = psf_metrics(vacuum_run.result.ghost, vacuum_run.result.grid,
                      stderr=vacuum_run.result.stderr)
    widths = {}
    for mm, output in sweep_runs.items():
        m = psf_metrics(output.result.ghost, output.result.grid,
                        stderr=output.result.stderr)
        widths[mm] = (m.fwhm_x, m.fwhm_y)
    ratio_x = widths[2][0] / vac.fwhm_x
    ratio_y = widths[2][1] / vac.fwhm_y
    degraded = ratio_x > 2.0 and ratio_y > 2.0

    # Non-increasing width as coherence improves, with a 3 percent slack
    # for frame noise (the measured step between neighbors is >= 12%).
    slack = 1.03
    mean_widths = [0.5 * (widths[mm][0] + widths[mm][1]) for mm in (2, 5, 10, 50)]
    monotone = all(mean_widths[i + 1] <= mean_widths[i] * slack
                   for i in range(len(mean_widths) - 1))
    elapsed = sum(o.wall_time_s for o in sweep_runs.values())
    ok = degraded and monotone and elapsed < 2400.0
    detail = ", ".join(f"{mm} mm: {w * 1e6:.0f} um"
                       for mm, w in zip((2, 5, 10, 50), mean_widths))
    _report(capsys, 5, ok,
            f"ratio vs vacuum ({ratio_x:.2f}, {ratio_y:.2f}) > 2; widths {detail}; "
            f"{elapsed:.0f} s")
    assert degraded
    assert monotone
    assert elapsed < 2400.0


@pytest.mark.law
def test_criterion_6_phase_correction_identity(capsys):
    t0 = time.perf_counter()
    rows = mds_demo_rows(seed=20260815, matched_draws=10_000, random_draws=1_000_000)
    matched, scrambled = rows
    worst = matched["max_rel_diff_vs_clean"]
    mean_scrambled = scrambled["mean_lhs"]
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and abs(mean_scrambled - 2.0) <= 0.01
          and scrambled["clean_mean_lhs"] == 4.0 and elapsed < 60.0)
    _report(capsys, 6, ok,
            f"mode-independent worst rel diff {worst:.2e} <= 1e-12; mode-dependent "
            f"mean {mean_scrambled:.4f} vs clean 4.0; {elapsed:.1f} s")
    assert worst <= 1e-12
    assert abs(mean_scrambled - 2.0) <= 0.01
    assert scrambled["clean_mean_lhs"] == 4.0
    assert elapsed < 60.0


@pytest.mark.law
def test_criterion_7_detector_screen_is_vacuum(capsys, tmp_path, vacuum_run,
                                               detector_screen_run):
    vac = vacuum_run.result
    det = detector_screen_run.result
    same = (np.array_equal(vac.ghost, det.ghost)
            and np.array_equal(vac.background, det.background)
            and np.array_equal(vac.stderr, det.stderr))
    write_pgm16(tmp_path / "vac.pgm", vac.ghost)
    write_pgm16(tmp_path / "det.pgm", det.ghost)
    same_bytes = (tmp_path / "vac.pgm").read_bytes() == (tmp_path / "det.pgm").read_bytes()
    elapsed = detector_screen_run.wall_time_s
    ok = same and same_bytes and elapsed < 600.0
    _report(capsys, 7, ok,
            f"screen at detector plane reproduces the vacuum run bit for bit "
            f"(arrays and PGM bytes), {elapsed:.0f} s")
    assert same
    assert same_bytes
    assert elapsed < 600.0


@pytest.mark.law
def test_criterion_8_property_suites(capsys, rho0_nominal):
    t0 = time.perf_counter()
    notes = []

    # Closed-form weighted path integral vs adaptive quadrature.
    profiles = [
        CnSquaredProfile.uniform(PATH_LENGTH, CN2),
        CnSquaredProfile(segments=((0.0, 0.4, 5e-13), (0.4, 0.9, 2.5e-12),
                                   (0.9, 1.4, 1e-12)), path_length=PATH_LENGTH),
        CnSquaredProfile(segments=tuple(
            (i * PATH_LENGTH / 8.0, (i + 1) * PATH_LENGTH / 8.0, (i + 1) * 4e-13)
            for i in range(8)), path_length=PATH_LENGTH),
    ]
    worst_quad = 0.0
    for profile in profiles:
        closed = weighted_path_integral(profile)
        numeric = oracles.path_integral_quad(profile.segments, PATH_LENGTH)
        worst_quad = max(worst_quad, abs(closed - numeric) / numeric)
        assert closed == pytest.approx(numeric, rel=1e-9)
    notes.append(f"quadrature {worst_quad:.1e} <= 1e-9")

    # Wavelength scaling: rho0 ~ wavelength^(6/5).
    profile = profiles[0]
    ratio = (coherence_length(profile, 2.0 * WAVELENGTH)
             / coherence_length(profile, WAVELENGTH))
    assert ratio == pytest.approx(2.0 ** 1.2, rel=1e-12)
    notes.append("wavelength^(6/5) scaling")

    # Stronger turbulence only shrinks the coherence length.
    cn2_grid = np.geomspace(1e-14, 1e-10, 9)
    rho0s = [coherence_length(CnSquaredProfile.uniform(PATH_LENGTH, c), WAVELENGTH)
             for c in cn2_grid]
    assert all(b < a for a, b in zip(rho0s, rho0s[1:]))
    notes.append("monotone in cn2")

    # Source amplitude moments: circular Gaussian with E|a|^2 = P.
    sources = make_source_grid(DIAMETER, DIAMETER / 16.0)
    # Frames 0..299: the head of each batch's polar draw, as the pipeline
    # draws it, r e^{i theta} from the float32 radii and float64 phases.
    radius = np.empty((BATCH_FRAMES, sources.count), dtype=np.float32)
    phase = np.empty((BATCH_FRAMES, sources.count))
    blocks = []
    for b in range(math.ceil(300 / BATCH_FRAMES)):
        draw_polar(sources, batch_generator(2024, b), radius, phase)
        blocks.append(radius * np.exp(1j * phase))
    draws = np.concatenate(blocks)[:300].reshape(-1)
    n = draws.size
    assert abs(np.mean(draws.real)) < 4.0 * math.sqrt(0.5 / n)
    assert abs(np.mean(draws.imag)) < 4.0 * math.sqrt(0.5 / n)
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 4.0 / math.sqrt(n)
    assert abs(np.mean(draws ** 2)) < 4.0 / math.sqrt(n)
    assert abs(np.mean(np.abs(draws) ** 4) - 2.0) < 4.0 * math.sqrt(20.0 / n)
    notes.append(f"source moments over {n} draws")

    # Merge associativity of the running covariance sums.
    rng = np.random.default_rng(5150)
    grid = Grid2D.centered(6, 6, 1e-5)
    parts = []
    for _ in range(3):
        est = GhostImageEstimate(grid)
        for _ in range(20):
            oracles.add_frame(est, float(rng.gamma(2.0)), rng.gamma(1.5, size=(6, 6)))
        parts.append(est)

    def merged(order):
        out = GhostImageEstimate(grid)
        for index in order:
            fresh = GhostImageEstimate(grid)
            fresh.merge(parts[index])
            out.merge(fresh)
        return out.finalize()

    left = merged([0, 1, 2])
    right_tail = GhostImageEstimate(grid).merge(parts[1]).merge(parts[2])
    right = GhostImageEstimate(grid).merge(parts[0]).merge(right_tail).finalize()
    assert np.allclose(left.ghost, right.ghost, rtol=1e-10, atol=0)
    assert np.allclose(left.stderr, right.stderr, rtol=1e-10, atol=1e-300)
    notes.append("merge associative at 1e-10")

    # Bracket factor stays inside [0, 2] everywhere.
    m = 100_000
    vals = pair_coherence_factor(rng.uniform(-1e-3, 1e-3, (m, 2)),
                                 rng.uniform(-1e-3, 1e-3, (m, 2)),
                                 rng.uniform(-6e-3, 6e-3, (m, 2)),
                                 rng.uniform(-6e-3, 6e-3, (m, 2)), CFG,
                                 TurbulenceModel(rho0=rho0_nominal))
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)
    notes.append(f"bracket in [0, 2] over {m} draws")

    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    _report(capsys, 8, ok, "; ".join(notes) + f"; {elapsed:.1f} s")
    assert ok
