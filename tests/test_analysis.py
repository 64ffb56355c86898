"""Sobolev norms against radial-quadrature oracles; dyadic projections; local smoothing."""

import numpy as np
import pytest
from scipy.integrate import quad

from morawetz_lab import (
    DomainError,
    GridSpec,
    VectorField,
    half_wave,
    helmholtz_split,
    hs_norm,
    local_smoothing_functional,
    lp_level_range,
    lp_project,
)
from morawetz_lab.cutoff import default_cutoff
from morawetz_lab.spectral import forward_values, inverse_values

from conftest import l2_norm, random_vector_field, smooth_random_field


def gaussian_vector_field(grid, width=1.0):
    vals = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    vals[0] = np.exp(-(grid.x_norm() ** 2) / (2 * width**2))
    return VectorField(grid, vals)


class TestHsNorm:
    def test_s0_is_l2(self, rng):
        g = GridSpec(2, 16, 1.5)
        f = random_vector_field(g, rng)  # generic nonzero mean
        assert hs_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_single_mode_scaling(self):
        # mode with |xi| = 2 on an L = pi/2 grid (dxi = 2)
        g = GridSpec(2, 8, np.pi / 2)
        coeffs = np.zeros((2,) + g.shape, dtype=complex)
        coeffs[0, 1, 0] = 3.0  # mode (1, 0), |xi| = 2
        f = VectorField(g, inverse_values(coeffs, g))
        for s in (-0.5, 0.5, 1.0):
            assert hs_norm(f, s) == pytest.approx(2.0**s * l2_norm(f), rel=1e-12)

    def test_gaussian_against_radial_quadrature_oracle(self):
        # exp(-|x|^2/2) has transform 2 pi exp(-|xi|^2/2); the squared Hdot^s
        # norm is (2 pi)^{-2} int |xi|^{2s} |fhat|^2 = 2 pi int r^{2s+1} e^{-r^2} dr
        g = GridSpec(2, 128, 30.0)
        f = gaussian_vector_field(g)
        s = 0.5
        oracle_sq, err = quad(lambda r: 2 * np.pi * r ** (2 * s + 1) * np.exp(-(r**2)), 0, 30)
        assert err < 1e-10
        oracle = np.sqrt(oracle_sq)
        assert oracle == pytest.approx(1.6685814329591033, rel=1e-12)  # frozen oracle value
        assert hs_norm(f, s) == pytest.approx(oracle, rel=1e-6)

    def test_negative_order_requires_mean_zero(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = random_vector_field(g, rng)
        with pytest.raises(DomainError, match="zero mode"):
            hs_norm(f, -0.5)

    def test_negative_order_mean_zero_ok(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = smooth_random_field(g, rng, mean_zero=True)
        assert np.isfinite(hs_norm(f, -0.5))

    def test_absolute_homogeneity_and_triangle(self, rng):
        g = GridSpec(2, 16, 2.0)
        for s in (-0.5, 0.0, 0.5, 0.75):
            f1 = smooth_random_field(g, rng, mean_zero=(s < 0))
            f2 = smooth_random_field(g, rng, mean_zero=(s < 0))
            c = -2.7
            assert hs_norm(VectorField(g, c * f1.values), s) == pytest.approx(
                abs(c) * hs_norm(f1, s), rel=1e-12
            )
            lhs = hs_norm(VectorField(g, f1.values + f2.values), s)
            assert lhs <= hs_norm(f1, s) + hs_norm(f2, s) + 1e-12

    @pytest.mark.parametrize("dim,N,svals", [(2, 16, (-0.5, 0.0, 0.5)), (3, 8, (-0.5, 0.0, 0.5, 1.0))])
    def test_helmholtz_pythagoras(self, dim, N, svals, rng):
        g = GridSpec(dim, N, 1.7)
        for s in svals:
            for _ in range(25):
                f = smooth_random_field(g, rng, mean_zero=(s < 0))
                f_P, f_S = helmholtz_split(f)
                total = hs_norm(f, s) ** 2
                parts = hs_norm(f_P, s) ** 2 + hs_norm(f_S, s) ** 2
                assert abs(parts - total) < 1e-12 * total

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # |F|^2 overflows
    @pytest.mark.parametrize("grid, s", [((2, 32, 12.0), 0.0), ((2, 32, 12.0), 0.5),
                                         ((2, 32, 12.0), 1.0), ((2, 8, 5.0), 2.0)])
    def test_overflowing_coefficients_give_inf_not_nan(self, grid, s):
        # the squared coefficients of 1e160 * Gaussian overflow float64; the
        # zero mode, weight 0 for s > 0, must not turn inf into inf * 0 = NaN,
        # nor must the cusp correction, which is 0 on the coarse grid at s = 2
        g = GridSpec(*grid)
        assert hs_norm(1e160 * np.exp(-g.x_norm() ** 2 / 2), s, g) == np.inf

    def test_scalar_array_accepted(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = rng.standard_normal(g.shape)
        assert hs_norm(f, 0.5, g) > 0
        with pytest.raises(Exception):
            hs_norm(f, 0.5)  # grid required for raw arrays


class TestLpProject:
    @pytest.mark.parametrize("grid", [GridSpec(2, 128, 20.0), GridSpec(3, 16, 7.3)],
                             ids=["2d", "3d"])
    def test_multiplier_matches_direct_evaluation(self, grid, rng):
        # phi is evaluated once per distinct |xi|, and the multiplier is the
        # pointwise one bit for bit, so the projection is too
        f = random_vector_field(grid, rng)
        F = forward_values(f.values, grid)
        xin = grid.xi_norm()
        for k in range(-1, 4):
            mult = np.zeros_like(xin)
            mult[xin > 0] = default_cutoff()(xin[xin > 0] * 2.0 ** (-k))
            assert np.array_equal(lp_project(f, k).values, inverse_values(mult * F, grid)), k

    def test_out_of_band_spectrum_annihilated(self, rng):
        g = GridSpec(2, 32, np.pi)  # dxi = 1
        coeffs = np.zeros((2,) + g.shape, dtype=complex)
        coeffs[0, 3, 0] = 1.0  # |xi| = 3, inside band k=1 (1,4), outside k=3 (4,16)
        f = VectorField(g, inverse_values(coeffs, g))
        out = lp_project(f, 3)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_separated_projections_annihilate(self, rng):
        g = GridSpec(2, 32, np.pi)
        f = random_vector_field(g, rng)
        out = lp_project(lp_project(f, 0), 2)
        assert np.max(np.abs(out.values)) < 1e-12 * np.max(np.abs(f.values))
        overlap = lp_project(lp_project(f, 0), 1)  # adjacent bands do overlap
        assert np.max(np.abs(overlap.values)) > 1e-6 * np.max(np.abs(f.values))

    def test_reconstruction_up_to_mean(self, rng):
        g = GridSpec(2, 16, 2.0)
        f = random_vector_field(g, rng)
        recon = np.zeros_like(f.values)
        for k in lp_level_range(g):
            recon += lp_project(f, k).values
        F = forward_values(f.values, g)
        mean = F[(slice(None),) + (0,) * g.dim] / (2 * g.half_width) ** g.dim
        expected = f.values - mean.reshape((g.dim,) + (1,) * g.dim)
        assert np.max(np.abs(recon - expected)) < 1e-10 * np.max(np.abs(f.values))


class TestLocalSmoothing:
    def test_zero_field(self):
        g = GridSpec(2, 16, 4.0, time_samples=5, time_horizon=1.0)
        zero = np.zeros(g.shape, dtype=complex)
        assert local_smoothing_functional(lambda t: zero, g) == 0.0

    def test_compact_support_tail_scales_like_inverse_radius(self):
        # static bump inside |x| < r0: the R-functional decays like 1/R beyond,
        # so the max sits at the smallest dyadic R >= r0
        g = GridSpec(2, 64, 8.0, time_samples=3, time_horizon=0.5)
        r0 = 0.9
        bump = np.where(g.x_norm() < r0, 1.0, 0.0).astype(complex)
        radii = [1.0, 2.0, 4.0, 8.0]
        totals = []
        for R in radii:
            mask = g.x_norm() < R
            val = 2 * g.time_horizon * g.dx**2 * np.sum(np.abs(bump[mask]) ** 2)
            totals.append(val / R)
        assert np.argmax(totals) == 0
        assert local_smoothing_functional(lambda t: bump, g) == pytest.approx(
            totals[0], rel=1e-12
        )

    def test_halfwave_refinement_stability_3d(self):
        # Gaussian-data half-wave solution: functional stable (<5%) under 32^3 -> 64^3
        values = {}
        for N in (32, 64):
            g = GridSpec(3, N, 8.0, time_samples=17, time_horizon=3.0)
            f = np.exp(-(g.x_norm() ** 2)).astype(complex)
            values[N] = local_smoothing_functional(lambda t: half_wave(f, g, 1.0, t), g)
        assert abs(values[64] - values[32]) / values[64] < 0.05
