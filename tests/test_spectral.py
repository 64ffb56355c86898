"""Transform normalization, Parseval, multipliers, and the frequency lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morawetz_lab import (
    DomainError,
    GridSpec,
    ShapeError,
    VectorField,
)
from morawetz_lab.spectral import (
    block_matrices,
    block_transform,
    forward_values,
    inverse_values,
)

from conftest import random_vector_field
from spectral_oracle import apply_multiplier, frequency_lattice, projection_matrices, zero_index


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
        assert g.x_grids()[0][zero_index(g)] == 0.0
        assert g.x_grids()[1][zero_index(g)] == 0.0


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
        F = forward_values(np.zeros((2, 8, 8), dtype=complex), g)
        assert np.all(F == 0)

    def test_single_lattice_exponential(self):
        g = GridSpec(2, 16, 2.0)
        xi0 = np.array([2, -1]) * g.dxi
        X = g.x_grids()
        vals = np.zeros((2, 16, 16), dtype=complex)
        vals[0] = np.exp(1j * (xi0[0] * X[0] + xi0[1] * X[1]))
        F = forward_values(vals, g)
        box = (2 * g.half_width) ** g.dim
        idx = (0, 2, 16 - 1)  # component 0, mode (2, -1) in FFT storage order
        assert F[idx] == pytest.approx(box, rel=1e-12)
        rest = F.copy()
        rest[idx] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * box

    def test_against_brute_force(self, rng):
        g = GridSpec(2, 8, 1.3)
        f = random_vector_field(g, rng)
        F = forward_values(f.values, g)
        direct = brute_force_forward(f)
        assert np.max(np.abs(F - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_parseval(self, rng):
        for dim, N in ((2, 16), (3, 8)):
            g = GridSpec(dim, N, 1.7)
            f = random_vector_field(g, rng)
            F = forward_values(f.values, g)
            lhs = g.dx**dim * np.sum(np.abs(f.values) ** 2)
            rhs = (g.dxi**dim / (2 * np.pi) ** dim) * np.sum(np.abs(F) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linearity(self, rng):
        g = GridSpec(2, 8, 1.0)
        f1 = random_vector_field(g, rng)
        f2 = random_vector_field(g, rng)
        a, b = 0.3 - 1.1j, 2.7j
        combined = forward_values(a * f1.values + b * f2.values, g)
        split = a * forward_values(f1.values, g) + b * forward_values(f2.values, g)
        np.testing.assert_allclose(combined, split, atol=1e-12 * np.max(np.abs(split)))

    def test_shape_error(self):
        g = GridSpec(2, 8, 1.0)
        with pytest.raises(ShapeError):
            VectorField(g, np.zeros((2, 8, 4), dtype=complex))
        with pytest.raises(ShapeError):
            VectorField(g, np.zeros((8, 8), dtype=complex))


class TestInverseTransform:
    def test_zero(self):
        g = GridSpec(2, 8, 1.0)
        f = inverse_values(np.zeros((2, 8, 8), dtype=complex), g)
        assert np.all(f == 0)

    @pytest.mark.parametrize("dim,N", [(2, 8), (2, 32), (3, 8), (3, 16)])
    def test_round_trip(self, dim, N, rng):
        g = GridSpec(dim, N, 2.2)
        f = random_vector_field(g, rng)
        back = inverse_values(forward_values(f.values, g), g)
        err = np.max(np.abs(back - f.values))
        assert err < 1e-12 * np.max(np.abs(f.values))

    def test_single_mode_closed_form(self):
        g = GridSpec(2, 16, 1.5)
        coeffs = np.zeros((2, 16, 16), dtype=complex)
        coeffs[1, 3, 2] = 1.0
        f = inverse_values(coeffs, g)
        xi = np.array([g.xi_axis[3], g.xi_axis[2]])
        X = g.x_grids()
        expected = np.exp(1j * (xi[0] * X[0] + xi[1] * X[1])) * (g.dxi / (2 * np.pi)) ** 2
        np.testing.assert_allclose(f[1], expected, atol=1e-14)
        assert np.max(np.abs(f[0])) == 0.0


class TestBlockTransform:
    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
           planes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_dft_for_every_signature(self, dim, n, planes, seed):
        # random real arrays with a random parity per plane and axis: the
        # block's transform is the block of the full unscaled inverse DFT,
        # divided by i per odd axis; values on an odd axis's Nyquist plane
        # do not enter it
        g = GridSpec(dim, n, 2.2)
        rng = np.random.default_rng(seed)
        odd = rng.random((planes, dim)) < 0.5
        full = rng.standard_normal((planes,) + g.shape)
        for p in range(planes):
            for axis in range(dim):
                mirror = np.roll(np.flip(full[p], axis), 1, axis)
                full[p] = full[p] - mirror if odd[p, axis] else full[p] + mirror
        want = np.fft.ifftn(full, axes=tuple(range(1, dim + 1))) * g.mode_count
        want = want[(slice(None),) + g.even_block] / 1j ** odd.sum(axis=1).reshape(
            (-1,) + (1,) * dim)
        block = np.ascontiguousarray(full[(slice(None),) + g.even_block])
        nyquist = [(p,) + (slice(None),) * axis + (n // 2,) for p, axis in zip(*np.nonzero(odd))]
        assert not any(np.any(block[plane]) for plane in nyquist)
        for plane in nyquist:
            block[plane] = rng.standard_normal()
        got = block_transform(block, block_matrices(odd, g), np.empty((2,) + block.shape), g)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestApplyMultiplier:
    def test_identity(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_values(random_vector_field(g, rng).values, g)
        out = apply_multiplier(F, g, lambda xi: np.eye(2))
        np.testing.assert_array_equal(out, F)

    def test_projection_idempotent(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_values(random_vector_field(g, rng).values, g)
        proj = lambda xi: projection_matrices(xi)[0]
        once = apply_multiplier(F, g, proj)
        twice = apply_multiplier(once, g, proj)
        np.testing.assert_allclose(twice, once, atol=1e-14 * np.max(np.abs(F)))

    def test_laplacian_against_finite_differences(self):
        # -Lap via the |xi|^2 multiplier vs a Richardson-extrapolated central
        # second difference of the closed-form field (8 points on one axis)
        g = GridSpec(2, 8, np.pi)

        def fexact(x, y):
            return np.cos(2 * x) + 0.5 * np.sin(x + 3 * y)

        X, Y = g.x_grids()
        vals = np.zeros((2, 8, 8), dtype=complex)
        vals[0] = fexact(X, Y)
        F = forward_values(vals, g)
        out = inverse_values(apply_multiplier(F, g, lambda xi: float(xi @ xi) * np.eye(2)), g)

        def lap_fd(h):
            return (
                fexact(X + h, Y) + fexact(X - h, Y) + fexact(X, Y + h) + fexact(X, Y - h)
                - 4 * fexact(X, Y)
            ) / h**2

        d1, d2 = lap_fd(4e-3), lap_fd(2e-3)
        richardson = (4 * d2 - d1) / 3.0
        assert np.max(np.abs(out[0] - (-richardson))) < 1e-10 * np.max(np.abs(richardson))

    def test_bad_multiplier_shape(self, rng):
        g = GridSpec(2, 8, 1.0)
        F = forward_values(random_vector_field(g, rng).values, g)
        with pytest.raises(ShapeError):
            apply_multiplier(F, g, lambda xi: np.eye(3))
