"""Independent reference implementations used to check the package.

Everything here is computed by a different route than the library code:
arbitrary-precision quadrature for the coherence length, scipy adaptive
quadrature for path integrals, direct Monte Carlo of the two-mode
amplitude for the pair term, brute-force loops for lattice counts,
per-path screens drawn separately for the relative screen, the
two-mode sum as the squared modulus of two complex exponentials,
|u|^2 of complex fields for the planar intensities of the frame pipeline,
complex amplitudes split into the (re, im) planes the lattice fold reads,
the dense Fresnel kernel for the folded lattice propagation (with the
phases it drops put back), sum(I T) per map for the bucket, a two-pass
float64 covariance for the running moment sums, the
dense product over subsource pairs for the lattice difference spectrum
of the closed form, and a Hankel-transform quadrature for the closed
form of the continuous disc the lattice stands in for.
"""

from __future__ import annotations

import math

import numpy as np

import mpmath
from scipy import integrate, special

from ghost_turb.analytic import pair_coherence_factor
from ghost_turb.errors import ValidationError
from ghost_turb.turbulence import TurbulenceModel

# Each of two independent path screens carries half of the pair
# phase-structure variance, so its own target coherence length is
# sqrt(2) times the configured two-path rho0; the product of the two
# path coherence factors then reproduces exp(-r^2 / rho0^2).
PER_PATH_RHO0_FACTOR = math.sqrt(2.0)


def rho0_uniform_mp(wavelength: float, path_length: float, cn2: float,
                    dps: int = 50) -> float:
    """Arbitrary-precision coherence length for a uniform profile."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(wavelength)
        length = mpmath.mpf(path_length)
        k = 2 * mpmath.pi / lam
        integral = mpmath.quad(
            lambda z: mpmath.mpf(cn2) * (1 - z / length) ** mpmath.mpf("5/3"),
            [0, length])
        value = (mpmath.mpf("2.91") * k**2 * integral) ** (mpmath.mpf(-3) / 5)
        return float(value)


def path_integral_quad(segments, path_length: float) -> float:
    """scipy quadrature of sum_i cn2_i * (1 - z/L)^(5/3) over each segment."""
    total = 0.0
    for z0, z1, v in segments:
        part, _ = integrate.quad(lambda z: v * (1.0 - z / path_length) ** (5.0 / 3.0),
                                 z0, z1, epsabs=0.0, epsrel=1e-12)
        total += part
    return total


def ramp_integral_exact(cmax: float, path_length: float) -> float:
    """Closed form for cn2(z) = cmax * z / L: cmax * L * 9 / 88."""
    return cmax * path_length * 9.0 / 88.0


def glauber_pair_term(rho_b, rho_p, rho_m, rho_mp, cfg, model, prefactor_radius: float,
                      power_m: float = 1.0, power_mp: float = 1.0) -> np.ndarray:
    """Ensemble-averaged two-photon coherence for one subsource pair.

    The library's bracket pair_coherence_factor times the prefactor
    2 (pi rho_s^2 / (lam L))^4 P_m P_mp.  prefactor_radius is the
    effective subsource radius rho_s entering that overall amplitude
    scale; it is distinct from the turbulence coherence length rho0 and
    cancels in every normalized comparison.
    """
    for name, value in (("prefactor_radius", prefactor_radius), ("power_m", power_m),
                        ("power_mp", power_mp)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    lam_l = cfg.wavelength * cfg.path_length
    prefactor = 2.0 * (math.pi * prefactor_radius**2 / lam_l) ** 4 * (power_m * power_mp)
    return prefactor * pair_coherence_factor(rho_b, rho_p, rho_m, rho_mp, cfg, model)


def two_exponential_mds_lhs(mag, geo, turb) -> np.ndarray:
    """|m2a m1b e^{i(phi2a + phi1b)} + m2b m1a e^{i(phi2b + phi1a)}|^2, phi = geo + turb.

    (4, ...) arrays ordered (1a, 1b, 2a, 2b), summed as complex numbers.
    """
    mag, geo, turb = (np.asarray(a, dtype=float) for a in (mag, geo, turb))
    phi = geo + turb
    total = (mag[2] * mag[1] * np.exp(1j * (phi[2] + phi[1]))
             + mag[3] * mag[0] * np.exp(1j * (phi[3] + phi[0])))
    return np.abs(total) ** 2


def per_path_screen_model(model: TurbulenceModel) -> TurbulenceModel:
    """Screen-generation model for one of two independent path screens.

    The frame pipeline draws no per-path screens, only their difference,
    which is a screen of `model` itself.  This model serves checks that
    draw the two paths separately.
    """
    if math.isinf(model.rho0):
        return model
    return TurbulenceModel(rho0=PER_PATH_RHO0_FACTOR * model.rho0,
                           screen_position_fraction=model.screen_position_fraction,
                           paths_independent=model.paths_independent)


def float32_bound(terms: int) -> float:
    """Rounding bound of a float32 contraction of `terms` products, relative to its scale.

    A computed sum of k products errs by at most gamma_k = k u / (1 - k u)
    times the sum of their magnitudes, u = eps / 2 the unit roundoff (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section
    3.1).  This is k eps, twice k u: the other k u covers rounding the
    inputs and the factors to float32.  Tests apply it to the largest
    magnitude of the float64 result they compare against.
    """
    return terms * float(np.finfo(np.float32).eps)


def lattice_terms(sources) -> int:
    """Length of the float32 contraction behind each field element of the lattice route.

    The fold sums 4 mirror nodes, then the x and y factors contract
    2 Hx and 2 Hy columns, Hx and Hy the half axes of the lattice's
    bounding box; the rounding of nested sums adds up over their lengths.
    """
    _, _, u, v = sources.lattice
    return 4 + 2 * (u.size - u.size // 2) + 2 * (v.size - v.size // 2)


def add_frame(estimate, bucket, image):
    """Fold one frame, a raw bucket value and its raw (ny, nx) map, into estimate as a batch of one.

    Both are centred by the estimate's means, as the frame pipeline
    centres its batches.
    """
    mu, nu = estimate.means
    x = np.asarray(image, dtype=float) / mu - 1.0
    y = np.reshape(np.asarray(bucket, dtype=float), 1) / nu - 1.0
    return estimate.add(y, np.stack([x, x * x])[..., None])


def covariance_image(buckets, maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass float64 ghost image, background and stderr of (n,) buckets and (n, ny, nx) maps.

    The means are taken first and the centred products second, so
    nothing cancels however large the means are against the spread.
    """
    b = np.asarray(buckets, dtype=float)
    maps = np.asarray(maps, dtype=float)
    mean_map = maps.mean(axis=0)
    products = (b - b.mean())[:, None, None] * (maps - mean_map)
    ghost = products.mean(axis=0)
    variance = np.maximum(np.mean(products**2, axis=0) - ghost**2, 0.0)
    return ghost, b.mean() * mean_map, np.sqrt(variance / b.size)


def pair_term_mc(rho_b, rho_p, rho_m, rho_mp, wavelength: float, path_length: float,
                 rho0: float, prefactor_radius: float, power_m: float, power_mp: float,
                 draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the two-mode pair term.

    Each draw gives the two detector paths independent Gaussian phase
    increments between the two subsources with variance r^2 / rho0^2,
    then evaluates |H_b(m) H_p(m') + H_b(m') H_p(m)|^2 times the power
    and magnitude prefactors.  The screen statistics enter only through
    those increments, so this is exact for quadratic-structure screens.
    """
    k = 2.0 * math.pi / wavelength
    beta = math.pi * prefactor_radius**2 / (wavelength * path_length)
    rho_b = np.asarray(rho_b, dtype=float)
    rho_p = np.asarray(rho_p, dtype=float)
    rho_m = np.asarray(rho_m, dtype=float)
    rho_mp = np.asarray(rho_mp, dtype=float)
    geo = (k / path_length) * float(np.dot(rho_b - rho_p, rho_m - rho_mp))
    r = float(np.hypot(*(rho_m - rho_mp)))
    sigma = 0.0 if math.isinf(rho0) else r / rho0
    rng = np.random.default_rng(seed)
    delta_b = rng.normal(0.0, sigma, size=draws) if sigma > 0 else np.zeros(draws)
    delta_p = rng.normal(0.0, sigma, size=draws) if sigma > 0 else np.zeros(draws)
    scale = 2.0 * beta**4 * power_m * power_mp
    samples = scale * (1.0 + np.cos(geo + delta_b - delta_p))
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(draws))
    return mean, se


def pair_term_mc_screens(rho_m, rho_mp, wavelength: float, path_length: float,
                         rho0: float, prefactor_radius: float, power_m: float,
                         power_mp: float, tilt_std: float, seed: int,
                         draws: int) -> tuple[float, float]:
    """Same estimator, but the increments come from whole screens.

    tilt_std must be that of screens whose own structure target makes
    one path contribute variance r^2 / rho0^2, i.e. the per-path screens
    the simulator's relative screen stands for.  Draw i of each path is
    one screen, the tilt tilt_std times two standard normals from the
    generator keyed (seed, i, path), evaluated exactly at the two
    subsources as g . rho.  Detectors are taken coincident (geo term
    zero).
    """
    beta = math.pi * prefactor_radius**2 / (wavelength * path_length)
    points = np.asarray([rho_m, rho_mp], dtype=float)
    scale = 2.0 * beta**4 * power_m * power_mp
    samples = np.empty(draws)
    for i in range(draws):
        db = points @ (tilt_std * np.random.default_rng((seed, i, 0)).standard_normal(2))
        dp = points @ (tilt_std * np.random.default_rng((seed, i, 1)).standard_normal(2))
        samples[i] = scale * (1.0 + math.cos((db[0] - db[1]) - (dp[0] - dp[1])))
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(draws))
    return mean, se


def intensity(values) -> np.ndarray:
    """|u|^2 of complex values as re^2 + im^2."""
    values = np.asarray(values)
    return values.real**2 + values.imag**2


def planes(amplitudes) -> np.ndarray:
    """Planar float32 amplitudes (2, ...): the real, then the imaginary parts of complex (...)."""
    values = np.asarray(amplitudes)
    return np.stack([values.real, values.imag]).astype(np.float32)


def max_pairwise_distance(positions) -> float:
    """Largest distance between any two points, 0.0 for a single point."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape[0] < 2:
        return 0.0
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def lattice_count_bruteforce(diameter: float, pitch: float) -> int:
    """Count lattice points with |i p, j p| inside the closed disc."""
    half = int(math.ceil(diameter / (2.0 * pitch))) + 1
    radius2 = (diameter / 2.0) ** 2 * (1.0 + 1e-12)
    count = 0
    for i in range(-half, half + 1):
        for j in range(-half, half + 1):
            if (i * pitch) ** 2 + (j * pitch) ** 2 <= radius2:
                count += 1
    return count


def pair_sum_reference(ref_grid, rho_b, positions, wavelength: float,
                       path_length: float, rho0: float) -> np.ndarray:
    """O(M^2) loop evaluation of the predicted ghost image pair sum."""
    k = 2.0 * math.pi / wavelength
    pts = ref_grid.points().reshape(-1, 2)
    rho_b = np.asarray(rho_b, dtype=float)
    image = np.zeros(len(pts))
    m_count = len(positions)
    for a in range(m_count):
        for b in range(m_count):
            diff = positions[a] - positions[b]
            r2 = float(diff @ diff)
            gauss = 1.0 if math.isinf(rho0) else math.exp(-r2 / rho0**2)
            phase = (k / path_length) * ((rho_b - pts) @ diff)
            image += gauss * np.cos(phase)
    return image.reshape(ref_grid.ny, ref_grid.nx)


def gaussian_image(grid, sigma: float, amplitude: float = 1.0,
                   pedestal: float = 0.0, center=(0.0, 0.0)) -> np.ndarray:
    """Synthetic Gaussian peak with known FWHM = sigma * 2 sqrt(2 ln 2)."""
    pts = grid.points()
    r2 = (pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2
    return pedestal + amplitude * np.exp(-r2 / (2.0 * sigma**2))


def bucket_signals(intensity: np.ndarray, mask) -> np.ndarray:
    """sum(I T) * pitch^2 of each (ny, nx) map in a (..., ny, nx) stack."""
    im = np.asarray(intensity, dtype=float)
    if im.shape[-2:] != mask.transmissivity.shape:
        raise ValidationError(f"intensity shape {im.shape} does not match the mask grid")
    return np.sum(im * mask.transmissivity, axis=(-2, -1)) * mask.grid.pitch**2


def path_prefactor(cfg) -> complex:
    """Constant factor -i exp(i k L) / (wavelength L) of the Fresnel kernel.

    kL is about 1e7 rad, where one ulp is about 2e-9 rad, so it enters as
    this one constant rather than as a term of every element's phase.
    """
    return complex((-1j / (cfg.wavelength * cfg.path_length))
                   * np.exp(1j * cfg.wavenumber * cfg.path_length))


def dropped_phase(sources, grid, cfg) -> np.ndarray:
    """Unit-modulus factor (ny, nx) that turns a LatticePropagator field into the Fresnel field.

    exp(i arg c) exp(iq (x_p^2 - 2 x_p x_c + y_p^2 - 2 y_p y_c)), with c
    the kernel's constant factor, q = k / 2L and (x_c, y_c) the centre
    of the bounding box of the subsource positions.
    """
    q = cfg.wavenumber / (2.0 * cfg.path_length)
    xc, yc = 0.5 * (sources.positions.min(axis=0) + sources.positions.max(axis=0))
    x, y = grid.x(), grid.y()
    pixel = q * ((y * (y - 2.0 * yc))[:, None] + (x * (x - 2.0 * xc))[None, :])
    c = path_prefactor(cfg)
    return (c / abs(c)) * np.exp(1j * pixel)


def unchirped(amplitudes, positions, cfg) -> np.ndarray:
    """Amplitudes a_m exp(-iq |rho_m|^2), q = k / 2L, over the last axis.

    The lattice path leaves out the node chirp exp(iq |rho_m|^2): per
    draw, its field is the dense Fresnel field of these amplitudes.
    """
    q = cfg.wavenumber / (2.0 * cfg.path_length)
    return amplitudes * np.exp(-1j * q * np.sum(_positions(positions) ** 2, axis=1))


def greens_function(rho_dst, rho_src, cfg) -> np.ndarray:
    """Point-to-point paraxial propagation kernel over cfg.path_length.

    rho_dst and rho_src are (..., 2) transverse coordinates in meters,
    broadcast against each other; the result is complex with the
    broadcast shape and modulus 1 / (wavelength * path_length).
    """
    dst = np.asarray(rho_dst, dtype=float)
    src = np.asarray(rho_src, dtype=float)
    if dst.shape[-1] != 2 or src.shape[-1] != 2:
        raise ValidationError("coordinates must have a trailing axis of size 2 (x, y)")
    d2 = np.sum((dst - src) ** 2, axis=-1)
    return path_prefactor(cfg) * np.exp(1j * (cfg.wavenumber * d2 / (2.0 * cfg.path_length)))


def _positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValidationError(f"positions must have shape (M, 2) with M >= 1, got {pos.shape}")
    return pos


def fresnel_kernel(positions, grid, cfg) -> np.ndarray:
    """Dense vacuum kernel (ny * nx, M) from point sources to grid pixels.

    A propagated field is ``(kernel @ amplitudes).reshape(ny, nx)``.
    The squared distances |p - rho|^2 are formed as
    |p|^2 - 2 p . rho + |rho|^2, the cross term as one matrix product;
    greens_function keeps the direct difference.
    """
    pos = _positions(positions)
    pts = grid.points().reshape(-1, 2)
    d2 = (np.sum(pts**2, axis=1)[:, None] - 2.0 * (pts @ pos.T)
          + np.sum(pos**2, axis=1)[None, :])
    return path_prefactor(cfg) * np.exp(1j * (cfg.wavenumber * d2 / (2.0 * cfg.path_length)))


def propagate_subsources(amplitudes, positions, dst_grid, cfg) -> np.ndarray:
    """Vacuum field (ny, nx) of subsource amplitudes: the direct Fresnel sum."""
    pos = _positions(positions)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (pos.shape[0],):
        raise ValidationError(
            f"amplitudes shape {amps.shape} does not match {pos.shape[0]} subsource positions"
        )
    if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
        raise ValidationError("amplitudes must be finite")
    return (fresnel_kernel(pos, dst_grid, cfg) @ amps).reshape(dst_grid.ny, dst_grid.nx)


def dense_ghost_image(setup) -> np.ndarray:
    """Closed-form ghost image as one dense product over subsource pairs.

    With R[p,m] = exp(i q rho_p . rho_m), pair weights w and the object's
    mutual intensity C[m,m'] = sum_b T_b exp(i q rho_b . (rho_m - rho_m')),
    image(rho_p) = Re sum_{m,m'} conj(R[p,m]) (w * C)[m,m'] R[p,m'], an
    O(P M^2) product over the run's actual subsource positions.
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


def continuum_ghost_image(ref_grid, rho_b, diameter: float, cfg, rho0: float) -> np.ndarray:
    """Closed-form ghost image of a uniform continuous disc, point bucket at rho_b.

    Over a disc of subsource density 1 the closed form's pair sum is an
    integral over pair separations d, a Hankel transform of r = |rho_p - rho_b|:

        image(r) = 2 pi int_0^D A(d) w(d) J0(q r d) d dd,

    q = k / L, w(d) = exp(-d^2 / rho0^2) the pair weight (ones in
    vacuum) and A(d) = 2 R^2 acos(d / 2R) - (d / 2) sqrt(4 R^2 - d^2)
    the overlap area of two discs of radius R = D / 2 whose centres are
    d apart.  A lattice of pitch a approaches it times a^-4.  Evaluated
    by scipy quadrature in u = d / D, once per distinct r on the grid.
    """
    pts = ref_grid.points().reshape(-1, 2) - np.asarray(rho_b, dtype=float)
    radii, inverse = np.unique(np.hypot(pts[:, 0], pts[:, 1]), return_inverse=True)
    q = cfg.wavenumber / cfg.path_length

    def integrand(u, r):
        # A(d) / D^2 at u = d / D: the overlap of two discs of radius 1/2.
        area = 0.5 * math.acos(u) - 0.5 * u * math.sqrt(1.0 - u * u)
        weight = 1.0 if math.isinf(rho0) else math.exp(-(diameter * u / rho0) ** 2)
        return area * weight * special.j0(q * r * diameter * u) * u

    values = np.array([integrate.quad(integrand, 0.0, 1.0, args=(r,), epsabs=1e-12,
                                      epsrel=1e-10)[0] for r in radii])
    return (2.0 * math.pi * diameter**4 * values[inverse]).reshape(ref_grid.ny, ref_grid.nx)
