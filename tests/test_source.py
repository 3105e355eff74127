import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ghost_turb.errors import ValidationError
from ghost_turb.source import (BATCH_FRAMES, SubsourceSet, batch_generator, draw_polar,
                               make_source_grid)


def test_lattice_count_matches_bruteforce():
    for diameter, pitch in [(11e-3, 1e-3), (11e-3, 11e-3 / 16.0), (5e-3, 0.7e-3)]:
        got = make_source_grid(diameter, pitch).count
        assert got == oracles.lattice_count_bruteforce(diameter, pitch)


def test_lattice_count_hand_value():
    # 11 mm disc, 1 mm pitch: integer points with i^2 + j^2 <= 30.25,
    # counted ring by ring: 1 + 4*(6 + 4 + 4 + 2 + 2 + 2 + 1 + 2 + 1) = 97.
    assert make_source_grid(11e-3, 1e-3).count == 97


def test_default_pitch_gives_sixteenth_of_diameter():
    d = 11e-3
    s = make_source_grid(d, d / 16.0)
    assert s.count == 197
    assert s.pitch == pytest.approx(d / 16.0)


def test_rim_points_are_kept():
    # Pitch exactly diameter/2 puts 4 lattice points on the rim.
    s = make_source_grid(2.0, 1.0)
    assert s.count == 5
    assert oracles.max_pairwise_distance(s.positions) == pytest.approx(2.0)


def test_positions_are_sorted_and_finite():
    s = make_source_grid(11e-3, 2e-3)
    pos = s.positions
    order = np.lexsort((pos[:, 0], pos[:, 1]))
    assert np.array_equal(order, np.arange(s.count))
    assert np.all(np.isfinite(pos))
    assert oracles.max_pairwise_distance(pos) <= 11e-3 * (1.0 + 1e-9)


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_source_grid(0.0, 1e-3)
    with pytest.raises(ValidationError):
        make_source_grid(11e-3, math.inf)
    with pytest.raises(ValidationError, match="too coarse"):
        make_source_grid(1e-3, 5e-3)


def test_subsource_set_validation():
    pair = np.array([[0, 0], [1, 0]])
    with pytest.raises(ValidationError, match="nodes must be"):
        SubsourceSet(nodes=np.zeros((2, 3), dtype=int), pitch=1.0, mean_power=1.0)
    with pytest.raises(ValidationError, match="integer"):
        SubsourceSet(nodes=pair.astype(float), pitch=1.0, mean_power=1.0)
    with pytest.raises(ValidationError, match="share a lattice node"):
        SubsourceSet(nodes=np.array([[0, 0], [1, 0], [1, 0]]), pitch=1.0, mean_power=1.0)
    with pytest.raises(ValidationError, match="share a lattice node"):
        SubsourceSet(nodes=np.array([[1, 0], [0, 1], [0, 0], [1, 0]]), pitch=1.0,
                     mean_power=1.0)
    with pytest.raises(ValidationError, match="pitch"):
        SubsourceSet(nodes=pair, pitch=0.0, mean_power=1.0)
    with pytest.raises(ValidationError, match="mean_power"):
        SubsourceSet(nodes=pair, pitch=1.0, mean_power=-2.0)


@pytest.mark.parametrize("pitch", [11e-3 / 16.0, 0.5e-3, 0.1e-3])
def test_lattice_places_every_subsource_on_its_position(pitch):
    # The disc is centred on the origin, so its box's centre is the origin
    # and the centred offsets u, v are the positions themselves.
    s = make_source_grid(11e-3, pitch)
    ix, iy, u, v = s.lattice
    assert np.array_equal(u[ix], s.positions[:, 0])
    assert np.array_equal(v[iy], s.positions[:, 1])
    assert np.all(u + u[::-1] == 0.0) and np.array_equal(u, v)
    assert np.array_equal(s.positions, s.nodes.astype(float) * s.pitch)
    # The bounding box is the disc's: a node at each end of both axes.
    assert ix.min() == iy.min() == 0
    assert (ix.max(), iy.max()) == (u.size - 1, v.size - 1)
    assert s.lattice is s.lattice


def _cut(disc):
    return SubsourceSet(nodes=disc.nodes[disc.nodes[:, 1] <= 5], pitch=disc.pitch,
                        mean_power=1.0)


LAG_SETS = pytest.mark.parametrize("sources", [
    make_source_grid(11e-3, 11e-3 / 16.0),
    _cut(make_source_grid(11e-3, 11e-3 / 16.0)),
    make_source_grid(11e-3, 0.5e-3),
], ids=["default", "cut_disc", "pitch_0.5mm"])


@LAG_SETS
def test_longest_lag_is_the_largest_pairwise_distance(sources):
    counts, dx, dy = sources.lags
    longest = np.max(np.hypot(*np.meshgrid(dx, dy))[counts > 0])
    assert longest == pytest.approx(oracles.max_pairwise_distance(sources.positions),
                                    rel=1e-12)


@LAG_SETS
def test_lag_counts_are_every_ordered_pair_once(sources):
    counts, dx, dy = sources.lags
    m = sources.count
    assert counts.shape == (dy.size, dx.size)
    assert dx[dx.size // 2] == dy[dy.size // 2] == 0.0
    assert counts.sum() == m**2
    assert counts[dy.size // 2, dx.size // 2] == m
    # N(d) = N(-d): the pair (m, m') at d is the pair (m', m) at -d.
    assert np.array_equal(counts, counts[::-1, ::-1])
    assert sources.lags is sources.lags


def test_fine_lattice_builds_no_pairwise_array():
    # 1,517 subsources: an (M, M, 2) float array would take 35 MiB.
    tracemalloc.start()
    try:
        s = make_source_grid(11e-3, 0.25e-3)
        counts = s.lags[0]
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert s.count == 1517
    assert counts.sum() == 1517**2
    assert peak < 4.0


def _buffers(s):
    """Radius (float32) and phase (float64) buffers of one batch."""
    return (np.empty((BATCH_FRAMES, s.count), dtype=np.float32),
            np.empty((BATCH_FRAMES, s.count)))


def _draw(s, seed, batch):
    radius, phase = _buffers(s)
    draw_polar(s, batch_generator(seed, batch), radius, phase)
    return radius, phase


def test_sample_frame_is_deterministic_per_key():
    s = make_source_grid(11e-3, 1e-3)
    r, p = _draw(s, 42, 0)
    again = _draw(s, 42, 0)
    assert np.array_equal(r, again[0]) and np.array_equal(p, again[1])
    for other in (_draw(s, 43, 0), _draw(s, 42, 1)):
        assert not np.array_equal(r[7], other[0][7])
        assert not np.array_equal(p[7], other[1][7])
    assert not np.array_equal(r[7], r[8])


def test_sample_frame_rejects_bad_keys():
    with pytest.raises(ValidationError):
        batch_generator(-1, 0)
    with pytest.raises(ValidationError):
        batch_generator(0, -1)


@pytest.mark.law
def test_amplitude_moments_match_circular_gaussian():
    # One batch generator's draw over 1,517 subsources, 48,544 amplitudes
    # a = r e^{i theta}: E[a] = 0, E|a|^2 = P, E[a^2] = 0 and
    # E|a|^4 = 2 P^2, each within 5 standard errors, with sd(Re a) =
    # sd(Im a) = sqrt(P / 2), sd(|a|^2) = P, sd(Re a^2) = sd(Im a^2) = P
    # and sd(|a|^4) = sqrt(20) P^2.
    p = 0.7
    s = make_source_grid(11e-3, 0.25e-3, mean_power=p)
    radius, phase = _draw(s, 11, 0)
    draws = (radius * np.exp(1j * phase)).ravel()
    z = 5.0 / math.sqrt(draws.size)
    mean = np.mean(draws)
    assert max(abs(mean.real), abs(mean.imag)) < z * math.sqrt(p / 2)
    power = np.abs(draws) ** 2
    assert abs(np.mean(power) - p) < z * p
    square = np.mean(draws**2)
    assert max(abs(square.real), abs(square.imag)) < z * p
    assert abs(np.mean(power**2) - 2 * p * p) < z * math.sqrt(20.0) * p * p


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_draw_is_the_polar_form_of_the_batch_uniforms(seed):
    # Radii sqrt(-P log(1 - u)) in float64, rounded once to float32, from
    # the batch's first B M uniforms, then phases 2 pi u' from the next
    # B M, pinned bit for bit.
    s = make_source_grid(11e-3, 1e-3, mean_power=0.7)
    # The generator's key, (seed, batch, RNG_DOMAIN_SOURCE = 1), is pinned too.
    u, u_phase = np.random.default_rng((seed, 3, 1)).random((2, BATCH_FRAMES, s.count))
    radius, phase = _draw(s, seed, 3)
    assert np.array_equal(radius, np.sqrt(-0.7 * np.log(1.0 - u)).astype(np.float32))
    assert np.array_equal(phase, 2.0 * math.pi * u_phase)


class _EndUniforms:
    """A generator stand-in whose uniforms alternate the ends 0.0 and 1 - 2**-53 of random()."""

    def random(self, out):
        out[...] = np.resize([0.0, 1.0 - 2.0**-53], out.shape)


def test_uniforms_at_both_ends_give_finite_radii():
    # 1 - u lies in (0, 1]: u = 0 gives radius 0 and the largest uniform
    # sqrt(53 P ln 2), with no log of 0.
    s = make_source_grid(11e-3, 2e-3, mean_power=0.7)
    radius, phase = _buffers(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        draw_polar(s, _EndUniforms(), radius, phase)
    assert np.all(np.isfinite(radius)) and np.all(np.isfinite(phase))
    assert np.all(radius.ravel()[::2] == 0.0)
    assert np.allclose(radius.ravel()[1::2], math.sqrt(53.0 * 0.7 * math.log(2.0)), rtol=1e-6)
    assert np.all(phase.ravel()[::2] == 0.0) and np.all(phase < 2.0 * math.pi)
