import numpy as np
import pytest

from morawetz_lab import default_cutoff
from morawetz_lab.cutoff import _eta


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


EXTREMES = [5e-324, 1e-310, 2.0**-1022, 1e-300, 1e300, 2.0**1023, 1.7e308, np.inf]
# the band edges, their neighbours and the float extremes, last
FORMULA_POINTS = np.concatenate([
    np.logspace(-3, 3, 2001),
    [np.nextafter(e, d) for e in (0.5, 1.0, 2.0) for d in (0.0, 4.0)],
    [0.5, 1.0, 2.0],
    EXTREMES,
])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 at the float extremes
def test_matches_the_direct_formula_bit_for_bit(phi):
    # phi = eta(t) / sum_j eta(2^j t) over the three-term window of j around
    # floor(-log2 t): the same bits as evaluating eta(t) and every 2^j on its
    # own, down to subnormal and up to huge t, wherever that direct formula
    # is finite; where 2^j overflows, or at t = inf, it gives 0/0, and phi
    # gives 0
    t, extremes = FORMULA_POINTS, EXTREMES
    j0 = np.floor(-np.log2(t))
    den = sum(_eta(t * 2.0 ** (j0 + dj)) for dj in (-1.0, 0.0, 1.0))
    direct = _eta(t) / den
    finite = np.isfinite(direct)
    assert not finite[-1] and not finite[-len(extremes)] and finite[:-len(extremes)].all()
    got = phi(t)
    np.testing.assert_array_equal(got[finite], direct[finite])
    assert np.all(got[~finite] == 0.0)


def test_float_extremes_are_finite(phi):
    # subnormal and infinite t: phi vanishes there (outside the band), and
    # the partition of unity still holds at positive finite t, subnormal too
    t = np.array([5e-324, 1e-310, 2.0**-1022, 1.7e308, np.inf])
    with np.errstate(all="raise"):
        assert np.array_equal(phi(t), np.zeros_like(t))
        assert phi(np.inf) == 0.0
        dev = phi.partition_deviation(t[:-1])
        # no warning anywhere: the bumps underflow to 0 at the band edges
        assert np.all(np.isfinite(phi(FORMULA_POINTS)))
        edge_dev = phi.partition_deviation(FORMULA_POINTS[:-1])
    assert np.all(dev <= 1e-15), dev
    assert np.all(edge_dev <= 1e-12), edge_dev
    assert phi.partition_deviation(1e-310)[0] <= 1e-15
