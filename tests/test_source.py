import math
import tracemalloc

import numpy as np
import pytest

import oracles
from ghost_turb.errors import ValidationError
from ghost_turb.source import (BATCH_FRAMES, SubsourceSet, batch_generator, draw_amplitudes,
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


def _block(s, seed, batch, frames):
    return draw_amplitudes(s, batch_generator(seed, batch), frames)


def test_sample_frame_is_deterministic_per_key():
    s = make_source_grid(11e-3, 1e-3)
    a = _block(s, 42, 0, 9)
    assert np.array_equal(a, _block(s, 42, 0, 9))
    assert not np.array_equal(a[7], a[8])
    assert not np.array_equal(a[7], _block(s, 43, 0, 9)[7])
    assert not np.array_equal(a[7], _block(s, 42, 1, 9)[7])


def test_sample_frame_rejects_bad_keys():
    with pytest.raises(ValidationError):
        batch_generator(-1, 0)
    with pytest.raises(ValidationError):
        batch_generator(0, -1)


def test_amplitude_moments_match_circular_gaussian():
    # E[a] = 0, E[|a|^2] = P, E[a^2] = 0, E[|a|^4] = 2 P^2.
    s = make_source_grid(11e-3, 1e-3, mean_power=0.7)
    draws = np.concatenate([_block(s, 11, b, BATCH_FRAMES)
                            for b in range(math.ceil(200 / BATCH_FRAMES))])[:200].reshape(-1)
    n = draws.size
    p = 0.7
    se = p / math.sqrt(n)
    assert abs(np.mean(draws.real)) < 4 * math.sqrt(p / 2 / n)
    assert abs(np.mean(draws.imag)) < 4 * math.sqrt(p / 2 / n)
    assert abs(np.mean(np.abs(draws) ** 2) - p) < 4 * se
    assert abs(np.mean(draws ** 2)) < 4 * se
    assert abs(np.mean(np.abs(draws) ** 4) - 2 * p * p) < 4 * math.sqrt(20.0) * p * p / math.sqrt(n)


def test_sample_frame_is_a_row_of_its_batch_block():
    # Frame-major draws: a frame's amplitudes are its row of the batch
    # block however many frames are drawn, so a shorter block is a prefix.
    s = make_source_grid(11e-3, 2e-3)
    block = _block(s, 42, 1, BATCH_FRAMES)
    for row in (0, 5, BATCH_FRAMES - 1):
        assert np.array_equal(_block(s, 42, 1, row + 1)[row], block[row])
    assert np.array_equal(_block(s, 42, 1, 3), block[:3])


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_amplitudes_are_the_pairs_of_normals_scaled(seed):
    # The draw reads each (re, im) pair of normals in place as a complex
    # number; pin it bit for bit against the explicit re + 1j im form.
    s = make_source_grid(11e-3, 1e-3, mean_power=0.7)
    # The generator's key, (seed, batch, RNG_DOMAIN_SOURCE = 1), is pinned too.
    rng = batch_generator(seed, 3)
    g = np.random.default_rng((seed, 3, 1)).standard_normal((BATCH_FRAMES, s.count, 2))
    expected = math.sqrt(0.7 / 2.0) * (g[..., 0] + 1j * g[..., 1])
    assert np.array_equal(draw_amplitudes(s, rng, BATCH_FRAMES), expected)
