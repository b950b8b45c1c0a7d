"""Input generators of the built-in suite."""

from weilaff.selftest import _invertible_linear, _rng


def _det3(L):
    (a, b, c), (d, e, f), (g, h, i) = L
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_invertible_linear_three_by_three():
    # a leading 2x2 minor alone once let 20 of these through (seed 8 first)
    singular = [
        seed for seed in range(200) if not _det3(_invertible_linear(_rng(seed, "pull/3/2"), 3))
    ]
    assert singular == []
