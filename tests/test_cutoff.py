import numpy as np
import pytest

from morawetz_lab import default_cutoff


@pytest.fixture(scope="module")
def phi():
    return default_cutoff()


def test_support(phi):
    t = np.array([0.0, 0.25, 0.5, 2.0, 2.5, 10.0])
    assert np.all(phi(t) == 0.0)
    inside = np.linspace(0.51, 1.99, 200)
    assert np.all(phi(inside) > 0.0)


def test_range(phi):
    t = np.logspace(-4, 4, 4001)
    vals = phi(t)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_partition_of_unity(phi):
    # 1000 log-spaced points across [2^-10, 2^10]
    t = np.logspace(np.log10(2.0**-10), np.log10(2.0**10), 1000)
    assert np.max(phi.partition_deviation(t)) < 1e-12


def test_at_most_two_active_terms(phi):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.01, 100.0, 200):
        ks = np.arange(-20, 21)
        active = sum(1 for k in ks if phi(2.0**k * t) > 0)
        assert active <= 2


def test_unit_value_at_powers_of_two(phi):
    # 2^m t = 1 is the only point of its dyadic orbit inside the band
    for m in range(-5, 6):
        assert phi(2.0**m * 2.0**-m) == pytest.approx(1.0)


def test_vectorized_matches_scalar(phi):
    t = np.linspace(0.3, 3.0, 50)
    vec = phi(t)
    per_point = np.array([phi(float(x)) for x in t])
    np.testing.assert_array_equal(vec, per_point)
