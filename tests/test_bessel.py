import numpy as np
import pytest
import scipy.special

from morawetz_lab.bessel import j0, sphere_sinc


def test_against_scipy_dense_grid():
    # 1e-10 absolute across both branches (series < 12 <= asymptotic)
    x = np.concatenate([np.linspace(0, 11.99, 3000), np.linspace(12.0, 2500.0, 6000)])
    assert np.max(np.abs(j0(x) - scipy.special.j0(x))) < 1e-10


def test_against_integral_definition():
    # J0(x) = (1/pi) int_0^pi cos(x sin th) dth, by Gauss-Legendre with a
    # node-doubling convergence check
    def reference(x, nodes):
        t, w = np.polynomial.legendre.leggauss(nodes)
        th = 0.5 * np.pi * (t + 1.0)
        return 0.5 * np.sum(w * np.cos(x * np.sin(th)))

    for x in (0.5, 3.7, 11.0, 12.5, 40.0, 150.0):
        ref, check = reference(x, 400), reference(x, 800)
        assert abs(ref - check) < 1e-13
        assert j0(x) == pytest.approx(ref, abs=1e-10)


def test_even_and_scalar():
    assert j0(0.0) == pytest.approx(1.0)
    assert j0(-7.3) == pytest.approx(j0(7.3))
    assert np.isscalar(float(j0(1.0)))


def test_elementwise_bit_for_bit():
    # each value is its argument's alone: near a zero of J0 the series of a
    # small argument once ran on as long as the largest one of the call
    # needed, which moved 8.6537... from -3.75293853e-15 to -3.75293131e-15
    zero = 8.653727912911013
    assert j0(np.array([zero, 11.9]))[0] == j0(np.array([zero]))[0]
    x = np.concatenate([[zero, 11.9, 0.0, 12.0, -3.0],
                        np.random.default_rng(3).uniform(-40.0, 40.0, 500)])
    together = j0(x)
    alone = np.array([j0(np.array([v]))[0] for v in x])
    np.testing.assert_array_equal(together, alone)


def test_sphere_sinc_series_branch():
    w = np.array([0.0, 1e-6, 1e-3, 0.5, 3.0])
    expected = np.array([1.0, np.sin(1e-6) / 1e-6, np.sin(1e-3) / 1e-3,
                         np.sin(0.5) / 0.5, np.sin(3.0) / 3.0])
    np.testing.assert_allclose(sphere_sinc(w), expected, rtol=1e-13)
