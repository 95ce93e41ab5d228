"""Seeded draws from the standard library's Mersenne Twister (extremal._draws)."""

import random

import numpy as np
import pytest

from extremal._draws import Draws, box_muller


def test_pinned_first_values():
    # The stream behind every seeded report: a change here changes them all.
    d = Draws(2024)
    assert d.random(3).tolist() == [
        0.18170603701614085, 0.5783528230917323, 0.20020173590251966,
    ]
    assert d.uniform(-1.0, 1.0, 2).tolist() == [0.447029724198998, 0.5144341892609785]
    assert d.standard_normal(3).tolist() == [
        -1.105864342461341, -0.11429159144962237, -1.2727444299691624,
    ]
    assert d.integers(2, 7) == 5


def test_uniforms_are_the_top_53_bits_of_sequential_words():
    mt = random.Random(5)
    want = [(mt.getrandbits(64) >> 11) * 2.0**-53 for _ in range(1000)]
    assert Draws(5).random(1000).tolist() == want


def test_bulk_draws_equal_per_trial_draws():
    bulk, single = Draws(11), Draws(11)
    assert np.array_equal(bulk.random((7, 9)), np.stack([single.random(9) for _ in range(7)]))
    assert np.array_equal(bulk.standard_normal((5, 6)),
                          np.stack([single.standard_normal(6) for _ in range(5)]))
    assert np.array_equal(bulk.random(4), single.random(4))


def test_odd_normal_draws_skip_one_uniform():
    # An odd count draws one uniform more: the next draw starts after it.
    a, b = Draws(3), Draws(3)
    assert np.array_equal(a.standard_normal(5), box_muller(b.random(6))[:5])
    assert np.array_equal(a.random(2), b.random(2))


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-50.0, 50.0), (1e-3, 3.0), (-1.5, 1.5)])
def test_uniform_stays_in_half_open_interval(low, high):
    u = Draws(8).uniform(low, high, 100_000)
    assert np.all(u >= low) and np.all(u < high)


class _AllOnes:
    """A bit source whose every word is 2^64 - 1, the largest uniform."""

    def getrandbits(self, k):
        return (1 << k) - 1


@pytest.mark.parametrize("low, high", [(-50.0, 50.0), (0.0, 1.0), (-1.5, 1.5), (1e-3, 3.0)])
def test_uniform_never_rounds_up_to_high(low, high):
    d = Draws(0)
    d._mt = _AllOnes()
    assert d.random(1)[0] == 1.0 - 2.0**-53
    u = d.uniform(low, high, 4)
    assert np.all(u < high) and np.all(u >= low)


def test_normal_moments():
    # 1e5 standard normals: the sample mean has standard error 0.0032 and
    # the sample variance 0.0045; both bounds are five of those.
    z = Draws(1).standard_normal(100_000)
    assert abs(z.mean()) < 0.016
    assert abs(z.var() - 1.0) < 0.023
    assert np.all(np.isfinite(z))


def test_normal_scales_standard_normals():
    a, b = Draws(4), Draws(4)
    assert np.array_equal(a.normal(2.0, 0.5, 6), 2.0 + 0.5 * b.standard_normal(6))


def test_integers_stay_in_range():
    d = Draws(6)
    draws = [d.integers(2, 7) for _ in range(500)]
    assert set(draws) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("seed", [0, 2**70])
def test_seeds_accepted(seed):
    d = Draws(seed)
    u = d.random(4)
    assert u.shape == (4,) and np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(Draws(seed).random(4), u)


def test_negative_seed_refused():
    # random.Random(-3) would silently replay the stream of seed 3.
    with pytest.raises(ValueError, match="non-negative"):
        Draws(-3)


def test_seeds_differ():
    assert not np.array_equal(Draws(0).random(4), Draws(2**70).random(4))
