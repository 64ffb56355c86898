"""Transform normalization, Parseval, multipliers, and the frequency lattice."""

import numpy as np
import pytest

from morawetz_lab import (
    DomainError,
    GridSpec,
    ShapeError,
    SpectralVectorField,
    VectorField,
    forward_transform,
    frequency_lattice,
    inverse_transform,
)
from morawetz_lab.elastic import projection_matrices

from conftest import random_vector_field
from spectral_oracle import apply_multiplier


def brute_force_forward(f: VectorField) -> np.ndarray:
    """O(N^{2n}) direct evaluation of dx^n sum_x f(x) e^{-i x.xi}."""
    g = f.grid
    lattice = frequency_lattice(g)
    x = np.stack([grid.ravel() for grid in g.x_grids()], axis=-1)  # (N^n, n)
    flat = f.values.reshape(g.dim, -1)
    out = np.empty_like(flat)
    for i, xi in enumerate(lattice.xi):
        phases = np.exp(-1j * (x @ xi))
        out[:, i] = g.dx**g.dim * (flat @ phases)
    return out.reshape(f.values.shape)


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(2, 16, 2.0)
        assert g.dx == pytest.approx(0.25)
        assert g.dxi == pytest.approx(np.pi / 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=1, points_per_axis=16, half_width=1.0),
            dict(dim=2, points_per_axis=12, half_width=1.0),
            dict(dim=2, points_per_axis=4, half_width=1.0),
            dict(dim=2, points_per_axis=16, half_width=-1.0),
            dict(dim=2, points_per_axis=16, half_width=1.0, time_samples=1),
            dict(dim=2, points_per_axis=16, half_width=1.0, time_horizon=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    def test_zero_index(self):
        g = GridSpec(2, 8, 1.0)
        assert g.x_grids()[0][g.zero_index] == 0.0
        assert g.x_grids()[1][g.zero_index] == 0.0


class TestLattice:
    def test_modes_1axis(self):
        # N=8, L=pi: dxi = 1, integer frequencies -4..3 along each axis
        g = GridSpec(2, 8, np.pi)
        assert sorted(g.mode_axis.tolist()) == list(range(-4, 4))
        assert sorted(g.xi_axis.tolist()) == pytest.approx(list(range(-4, 4)))

    def test_zero_mode_unique(self):
        lattice = frequency_lattice(GridSpec(2, 8, np.pi))
        zero_rows = np.all(lattice.modes == 0, axis=1)
        assert int(zero_rows.sum()) == 1

    def test_mode_count_and_nyquist(self):
        g = GridSpec(2, 8, 1.0)
        lattice = frequency_lattice(g)
        assert len(lattice) == 64
        radii = np.linalg.norm(lattice.xi, axis=1)
        assert np.max(radii) <= g.dxi * (g.points_per_axis / 2) * np.sqrt(2) + 1e-12


class TestForwardTransform:
    def test_zero_field(self):
        g = GridSpec(2, 8, 1.0)
        F = forward_transform(VectorField(g, np.zeros((2, 8, 8), dtype=complex)))
        assert np.all(F.coeffs == 0)

    def test_single_lattice_exponential(self):
        g = GridSpec(2, 16, 2.0)
        xi0 = np.array([2, -1]) * g.dxi
        X = g.x_grids()
        vals = np.zeros((2, 16, 16), dtype=complex)
        vals[0] = np.exp(1j * (xi0[0] * X[0] + xi0[1] * X[1]))
        F = forward_transform(VectorField(g, vals)).coeffs
        box = (2 * g.half_width) ** g.dim
        idx = (0, 2, 16 - 1)  # component 0, mode (2, -1) in FFT storage order
        assert F[idx] == pytest.approx(box, rel=1e-12)
        rest = F.copy()
        rest[idx] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * box

    def test_against_brute_force(self, rng):
        g = GridSpec(2, 8, 1.3)
        f = random_vector_field(g, rng)
        F = forward_transform(f).coeffs
        direct = brute_force_forward(f)
        assert np.max(np.abs(F - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_parseval(self, rng):
        for dim, N in ((2, 16), (3, 8)):
            g = GridSpec(dim, N, 1.7)
            f = random_vector_field(g, rng)
            F = forward_transform(f)
            lhs = g.dx**dim * np.sum(np.abs(f.values) ** 2)
            rhs = (g.dxi**dim / (2 * np.pi) ** dim) * np.sum(np.abs(F.coeffs) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linearity(self, rng):
        g = GridSpec(2, 8, 1.0)
        f1 = random_vector_field(g, rng)
        f2 = random_vector_field(g, rng)
        a, b = 0.3 - 1.1j, 2.7j
        combined = forward_transform(VectorField(g, a * f1.values + b * f2.values))
        split = a * forward_transform(f1).coeffs + b * forward_transform(f2).coeffs
        np.testing.assert_allclose(combined.coeffs, split, atol=1e-12 * np.max(np.abs(split)))

    def test_shape_error(self):
        g = GridSpec(2, 8, 1.0)
        with pytest.raises(ShapeError):
            VectorField(g, np.zeros((2, 8, 4), dtype=complex))
        with pytest.raises(ShapeError):
            VectorField(g, np.zeros((8, 8), dtype=complex))


class TestInverseTransform:
    def test_zero(self):
        g = GridSpec(2, 8, 1.0)
        f = inverse_transform(SpectralVectorField(g, np.zeros((2, 8, 8), dtype=complex)))
        assert np.all(f.values == 0)

    @pytest.mark.parametrize("dim,N", [(2, 8), (2, 32), (3, 8), (3, 16)])
    def test_round_trip(self, dim, N, rng):
        g = GridSpec(dim, N, 2.2)
        f = random_vector_field(g, rng)
        back = inverse_transform(forward_transform(f))
        err = np.max(np.abs(back.values - f.values))
        assert err < 1e-12 * np.max(np.abs(f.values))

    def test_single_mode_closed_form(self):
        g = GridSpec(2, 16, 1.5)
        coeffs = np.zeros((2, 16, 16), dtype=complex)
        coeffs[1, 3, 2] = 1.0
        f = inverse_transform(SpectralVectorField(g, coeffs)).values
        xi = np.array([g.xi_axis[3], g.xi_axis[2]])
        X = g.x_grids()
        expected = np.exp(1j * (xi[0] * X[0] + xi[1] * X[1])) * (g.dxi / (2 * np.pi)) ** 2
        np.testing.assert_allclose(f[1], expected, atol=1e-14)
        assert np.max(np.abs(f[0])) == 0.0


class TestApplyMultiplier:
    def test_identity(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_transform(random_vector_field(g, rng))
        out = apply_multiplier(F, lambda xi: np.eye(2))
        np.testing.assert_array_equal(out.coeffs, F.coeffs)

    def test_projection_idempotent(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_transform(random_vector_field(g, rng))
        proj = lambda xi: projection_matrices(xi)[0]
        once = apply_multiplier(F, proj)
        twice = apply_multiplier(once, proj)
        np.testing.assert_allclose(
            twice.coeffs, once.coeffs, atol=1e-14 * np.max(np.abs(F.coeffs))
        )

    def test_laplacian_against_finite_differences(self):
        # -Lap via the |xi|^2 multiplier vs a Richardson-extrapolated central
        # second difference of the closed-form field (8 points on one axis)
        g = GridSpec(2, 8, np.pi)

        def fexact(x, y):
            return np.cos(2 * x) + 0.5 * np.sin(x + 3 * y)

        X, Y = g.x_grids()
        vals = np.zeros((2, 8, 8), dtype=complex)
        vals[0] = fexact(X, Y)
        F = forward_transform(VectorField(g, vals))
        out = inverse_transform(apply_multiplier(F, lambda xi: float(xi @ xi) * np.eye(2)))

        def lap_fd(h):
            return (
                fexact(X + h, Y) + fexact(X - h, Y) + fexact(X, Y + h) + fexact(X, Y - h)
                - 4 * fexact(X, Y)
            ) / h**2

        d1, d2 = lap_fd(4e-3), lap_fd(2e-3)
        richardson = (4 * d2 - d1) / 3.0
        assert np.max(np.abs(out.values[0] - (-richardson))) < 1e-10 * np.max(np.abs(richardson))

    def test_bad_multiplier_shape(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_transform(random_vector_field(g, rng))
        with pytest.raises(ShapeError):
            apply_multiplier(F, lambda xi: np.eye(3))
