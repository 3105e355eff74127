import math

import numpy as np
import pytest

import oracles
from ghost_turb.errors import ValidationError
from ghost_turb.source import (BATCH_FRAMES, RNG_DOMAIN_SOURCE, SubsourceSet,
                               batch_generator, draw_amplitudes, make_source_grid,
                               max_pairwise_distance, sample_frame)


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
    assert s.diameter == pytest.approx(2.0)


def test_positions_are_sorted_and_finite():
    s = make_source_grid(11e-3, 2e-3)
    pos = s.positions
    order = np.lexsort((pos[:, 0], pos[:, 1]))
    assert np.array_equal(order, np.arange(s.count))
    assert np.all(np.isfinite(pos))
    assert s.diameter == pytest.approx(max_pairwise_distance(pos))
    assert s.diameter <= 11e-3 * (1.0 + 1e-9)


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_source_grid(0.0, 1e-3)
    with pytest.raises(ValidationError):
        make_source_grid(11e-3, math.inf)
    with pytest.raises(ValidationError, match="too coarse"):
        make_source_grid(1e-3, 5e-3)


def test_subsource_set_validation():
    with pytest.raises(ValidationError, match="positions"):
        SubsourceSet(positions=np.zeros((3,)), mean_power=1.0, pitch=1.0, diameter=1.0)
    with pytest.raises(ValidationError, match="finite"):
        SubsourceSet(positions=np.array([[0.0, math.nan]]), mean_power=1.0,
                     pitch=1.0, diameter=0.0)
    with pytest.raises(ValidationError, match="mean_power"):
        SubsourceSet(positions=np.zeros((2, 2)), mean_power=0.0, pitch=1.0, diameter=0.0)


def test_sample_frame_is_deterministic_per_key():
    s = make_source_grid(11e-3, 1e-3)
    a = sample_frame(s, seed=42, frame_index=7).amplitudes
    b = sample_frame(s, seed=42, frame_index=7).amplitudes
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_frame(s, seed=42, frame_index=8).amplitudes)
    assert not np.array_equal(a, sample_frame(s, seed=43, frame_index=7).amplitudes)


def test_sample_frame_rejects_bad_keys():
    s = make_source_grid(11e-3, 2e-3)
    with pytest.raises(ValidationError):
        sample_frame(s, seed=-1, frame_index=0)
    with pytest.raises(ValidationError):
        sample_frame(s, seed=0, frame_index=-1)


def test_amplitude_moments_match_circular_gaussian():
    # E[a] = 0, E[|a|^2] = P, E[a^2] = 0, E[|a|^4] = 2 P^2.
    s = make_source_grid(11e-3, 1e-3, mean_power=0.7)
    draws = np.concatenate([sample_frame(s, seed=11, frame_index=i).amplitudes
                            for i in range(200)])
    n = draws.size
    p = 0.7
    se = p / math.sqrt(n)
    assert abs(np.mean(draws.real)) < 4 * math.sqrt(p / 2 / n)
    assert abs(np.mean(draws.imag)) < 4 * math.sqrt(p / 2 / n)
    assert abs(np.mean(np.abs(draws) ** 2) - p) < 4 * se
    assert abs(np.mean(draws ** 2)) < 4 * se
    assert abs(np.mean(np.abs(draws) ** 4) - 2 * p * p) < 4 * math.sqrt(20.0) * p * p / math.sqrt(n)


def test_sample_frame_is_a_row_of_its_batch_block():
    s = make_source_grid(11e-3, 2e-3)
    block = draw_amplitudes(s, batch_generator(42, 1, RNG_DOMAIN_SOURCE), BATCH_FRAMES)
    for row in (0, 5, BATCH_FRAMES - 1):
        frame = sample_frame(s, seed=42, frame_index=BATCH_FRAMES + row)
        assert np.array_equal(frame.amplitudes, block[row])
    # Frame-major draws: a shorter block is a prefix of the longer one.
    head = draw_amplitudes(s, batch_generator(42, 1, RNG_DOMAIN_SOURCE), 3)
    assert np.array_equal(head, block[:3])
