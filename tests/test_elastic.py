"""Projector algebra, Helmholtz splitting, the exact propagator, and energy."""

import numpy as np
import pytest

from morawetz_lab import (
    DomainError,
    ElasticPropagator,
    ElasticState,
    EllipticityError,
    GridSpec,
    LameParams,
    VectorField,
    elastic_energy,
    evolve,
    half_wave,
    helmholtz_split,
    pde_residual,
)
from morawetz_lab.spectral import forward_values, inverse_values

from conftest import l2_norm, random_vector_field, smooth_random_field, spectral_divergence
from spectral_oracle import frequency_lattice, projection_matrices


def make_state(grid, fvals, gvals=None):
    f = VectorField(grid, fvals)
    g = VectorField(grid, gvals if gvals is not None else np.zeros_like(fvals))
    return ElasticState(f, g)


def plane_wave_state(grid, params, xi0, d, speed):
    X = grid.x_grids()
    phase = sum(xi0[i] * X[i] for i in range(grid.dim))
    fv = np.stack([d[i] * np.cos(phase) for i in range(grid.dim)]).astype(complex)
    gv = np.stack(
        [d[i] * speed * np.linalg.norm(xi0) * np.sin(phase) for i in range(grid.dim)]
    ).astype(complex)
    return make_state(grid, fv, gv), phase


class TestLameParams:
    def test_speeds(self):
        p = LameParams(1.0, 1.0)
        assert p.shear_speed == pytest.approx(1.0)
        assert p.pressure_speed == pytest.approx(np.sqrt(3.0))
        assert p.max_speed == pytest.approx(np.sqrt(3.0))

    def test_negative_lambda_admissible(self):
        p = LameParams(-0.5, 1.0)
        assert p.pressure_speed == pytest.approx(np.sqrt(1.5))

    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (1.0, -1.0), (-2.0, 1.0), (-3.0, 1.4)])
    def test_ellipticity_rejected(self, lam, mu):
        with pytest.raises(EllipticityError):
            LameParams(lam, mu)


class TestProjections:
    def test_axis_aligned(self):
        P, Q = projection_matrices(np.array([1.0, 0.0]))
        np.testing.assert_allclose(P, [[1, 0], [0, 0]])
        np.testing.assert_allclose(Q, [[0, 0], [0, 1]])

    def test_zero_mode_convention(self):
        P, Q = projection_matrices(np.zeros(3))
        np.testing.assert_array_equal(P, np.zeros((3, 3)))
        np.testing.assert_array_equal(Q, np.eye(3))

    @pytest.mark.parametrize("dim,N", [(2, 16), (3, 8)])
    def test_projector_algebra_all_modes(self, dim, N):
        grid = GridSpec(dim, N, 1.1)
        I = np.eye(dim)
        worst = 0.0
        for xi in frequency_lattice(grid).xi:
            if not np.any(xi):
                continue
            P, Q = projection_matrices(xi)
            worst = max(
                worst,
                np.max(np.abs(P @ P - P)),
                np.max(np.abs(Q @ Q - Q)),
                np.max(np.abs(P @ Q)),
                np.max(np.abs(Q @ P)),
                np.max(np.abs(P + Q - I)),
                np.max(np.abs(P - P.T)),
            )
        assert worst < 1e-14

    def test_symbol_eigenvalues(self):
        # L(xi) d = mu |xi|^2 d for d perp xi; (lam+2mu)|xi|^2 d for d parallel
        params = LameParams(0.7, 1.3)
        xi = np.array([1.5, -2.0, 0.5])
        nsq = xi @ xi
        L = params.mu * nsq * np.eye(3) + (params.lam + params.mu) * np.outer(xi, xi)
        d_perp = np.cross(xi, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(L @ d_perp, params.mu * nsq * d_perp, rtol=1e-14)
        np.testing.assert_allclose(
            L @ xi, (params.lam + 2 * params.mu) * nsq * xi, rtol=1e-14
        )


class TestHelmholtz:
    def test_gradient_field_is_potential(self):
        g = GridSpec(2, 64, 10.0)
        X = g.x_grids()
        envelope = np.exp(-(g.x_norm() ** 2) / 2.0)
        fv = np.stack([-X[i] * envelope for i in range(2)]).astype(complex)  # grad of gaussian
        f = VectorField(g, fv)
        f_P, f_S = helmholtz_split(f)
        assert l2_norm(f_S) < 1e-10 * l2_norm(f)

    def test_solenoidal_field_is_shear(self):
        g = GridSpec(2, 32, np.pi)
        X = g.x_grids()
        psi = np.cos(2 * X[0]) * np.sin(3 * X[1])
        fv = np.stack([-3 * np.cos(2 * X[0]) * np.cos(3 * X[1]),
                       -2 * np.sin(2 * X[0]) * np.sin(3 * X[1])]).astype(complex)
        f = VectorField(g, fv)  # (-d2 psi, d1 psi)
        f_P, f_S = helmholtz_split(f)
        assert l2_norm(f_P) < 1e-10 * l2_norm(f)

    def test_split_properties_random(self, rng):
        g = GridSpec(2, 16, 2.0)
        for _ in range(20):
            f = random_vector_field(g, rng)
            f_P, f_S = helmholtz_split(f)
            np.testing.assert_allclose(
                f_P.values + f_S.values, f.values, atol=1e-12 * np.max(np.abs(f.values))
            )
            total = l2_norm(f) ** 2
            assert abs(l2_norm(f_P) ** 2 + l2_norm(f_S) ** 2 - total) < 1e-12 * total
            div = spectral_divergence(f_S)
            assert np.max(np.abs(div)) < 1e-10 * np.max(np.abs(f.values))

    def test_potential_part_curl_free(self, rng):
        g = GridSpec(3, 8, 1.5)
        f = random_vector_field(g, rng)
        f_P, _ = helmholtz_split(f)
        F = forward_values(f_P.values, g)
        xi = g.xi_open()
        curl = np.stack([
            1j * (xi[1] * F[2] - xi[2] * F[1]),
            1j * (xi[2] * F[0] - xi[0] * F[2]),
            1j * (xi[0] * F[1] - xi[1] * F[0]),
        ])
        assert np.max(np.abs(curl)) < 1e-10 * np.max(np.abs(F))


class TestEvolve:
    def test_shear_plane_wave(self):
        g = GridSpec(2, 64, np.pi)
        params = LameParams(1.0, 1.0)
        xi0, d = np.array([2.0, 0.0]), np.array([0.0, 1.0])
        state, phase = plane_wave_state(g, params, xi0, d, params.shear_speed)
        for t in np.linspace(0.0, 4.0, 9):
            u = evolve(state, params, t)
            expected = np.stack(
                [d[i] * np.cos(phase - params.shear_speed * np.linalg.norm(xi0) * t) for i in range(2)]
            )
            assert np.max(np.abs(u.values - expected)) < 1e-10

    def test_pressure_plane_wave(self):
        g = GridSpec(2, 64, np.pi)
        params = LameParams(-0.5, 1.0)
        xi0, d = np.array([0.0, 3.0]), np.array([0.0, 1.0])  # d parallel to xi0
        state, phase = plane_wave_state(g, params, xi0, d, params.pressure_speed)
        for t in np.linspace(0.0, 4.0, 9):
            u = evolve(state, params, t)
            expected = np.stack(
                [d[i] * np.cos(phase - params.pressure_speed * np.linalg.norm(xi0) * t) for i in range(2)]
            )
            assert np.max(np.abs(u.values - expected)) < 1e-10

    def test_initial_conditions(self, rng):
        g = GridSpec(2, 16, 2.0)
        params = LameParams(0.3, 0.9)
        f = smooth_random_field(g, rng)
        gv = smooth_random_field(g, rng, mean_zero=True)
        state = ElasticState(f, gv)
        prop = ElasticPropagator(state, params)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(prop.displacement(0.0).values - f.values)) < 1e-12 * scale
        assert np.max(np.abs(prop.velocity(0.0).values - gv.values)) < 1e-12 * np.max(
            np.abs(gv.values)
        )

    def test_strong_continuity(self, rng):
        g = GridSpec(2, 16, 2.0)
        params = LameParams(1.0, 1.0)
        state = ElasticState(
            smooth_random_field(g, rng), smooth_random_field(g, rng, mean_zero=True)
        )
        prop = ElasticPropagator(state, params)
        u0 = prop.displacement(0.8).values
        gaps = [
            np.max(np.abs(prop.displacement(0.8 + eps).values - u0)) for eps in (1e-3, 1e-6)
        ]
        assert gaps[1] < 1e-2 * gaps[0]  # shrinks with the step

    def test_zero_mode_drift(self):
        # nonzero-mean f stays constant (g is mean-zero by invariant)
        g = GridSpec(2, 8, 1.0)
        params = LameParams(1.0, 1.0)
        fv = np.ones((2, 8, 8), dtype=complex)
        state = make_state(g, fv)
        u = evolve(state, params, 2.0)
        np.testing.assert_allclose(u.values, fv, atol=1e-13)

    def test_mean_zero_velocity_enforced(self):
        g = GridSpec(2, 8, 1.0)
        fv = np.zeros((2, 8, 8), dtype=complex)
        gv = np.ones((2, 8, 8), dtype=complex)
        with pytest.raises(DomainError):
            make_state(g, fv, gv)

    def test_solenoidal_state_decouples_to_scalar_waves(self, rng):
        # evolve on a divergence-free state == componentwise scalar-wave
        # evolution at the shear speed, assembled from two half-waves
        g = GridSpec(2, 16, 2.0)
        params = LameParams(0.4, 1.2)
        raw = smooth_random_field(g, rng, mean_zero=True)
        _, f_S = helmholtz_split(raw)
        raw_g = smooth_random_field(g, rng, mean_zero=True)
        _, g_S = helmholtz_split(raw_g)
        state = ElasticState(f_S, g_S)
        t = 0.9
        u = evolve(state, params, t)

        c = params.shear_speed
        xin = g.xi_norm()
        for comp in range(2):
            F = forward_values(f_S.values[comp], g)
            G = forward_values(g_S.values[comp], g)
            with np.errstate(invalid="ignore", divide="ignore"):
                Gq = np.where(xin > 0, G / np.where(xin > 0, 1j * c * xin, 1.0), 0.0)
            wp = inverse_values(F / 2 + Gq / 2, g)
            wm = inverse_values(F / 2 - Gq / 2, g)
            scalar = half_wave(wp, g, c, t) + half_wave(wm, g, c, -t) + t * G.flat[0] * (
                g.dxi / (2 * np.pi)
            ) ** 2
            assert np.max(np.abs(u.values[comp] - scalar)) < 1e-12 * max(
                np.max(np.abs(u.values)), 1.0
            )


class TestHalfWave:
    def test_identity_at_zero_time(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        np.testing.assert_allclose(half_wave(f, g, 1.0, 0.0), f, atol=1e-13)

    def test_single_mode_phase(self):
        g = GridSpec(2, 16, 2.0)
        X = g.x_grids()
        xi0 = np.array([g.xi_axis[1], g.xi_axis[3]])
        f = np.exp(1j * (xi0[0] * X[0] + xi0[1] * X[1]))
        c, t = 1.7, 0.45
        out = half_wave(f, g, c, t)
        expected = np.exp(1j * t * c * np.linalg.norm(xi0)) * f
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_modulus_preserved_per_mode(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        F_in = forward_values(f.astype(complex), g)
        F_out = forward_values(half_wave(f, g, 2.0, 0.61), g)
        np.testing.assert_allclose(np.abs(F_out), np.abs(F_in), rtol=1e-13)

    def test_group_law(self, rng):
        g = GridSpec(2, 16, 1.0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        c = 1.3
        once = half_wave(half_wave(f, g, c, 0.7), g, c, 0.9)
        direct = half_wave(f, g, c, 1.6)
        assert np.max(np.abs(once - direct)) < 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_l2_conservation(self, t, rng):
        g = GridSpec(2, 16, 1.0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        before = np.sqrt(np.sum(np.abs(f) ** 2))
        after = np.sqrt(np.sum(np.abs(half_wave(f, g, 1.0, t)) ** 2))
        assert after == pytest.approx(before, rel=1e-12)

    def test_speed_must_be_positive(self):
        g = GridSpec(2, 8, 1.0)
        with pytest.raises(DomainError):
            half_wave(np.zeros(g.shape), g, 0.0, 1.0)


class TestEnergy:
    def test_zero_state(self):
        g = GridSpec(2, 8, 1.0)
        z = VectorField(g, np.zeros((2, 8, 8), dtype=complex))
        assert elastic_energy(z, z, LameParams(1.0, 1.0)) == 0.0

    def test_single_shear_mode_constant(self):
        g = GridSpec(2, 16, np.pi)
        params = LameParams(1.0, 1.0)
        amp = 0.6
        xi0, d = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        state, _ = plane_wave_state(g, params, xi0, d, params.shear_speed)
        state = make_state(g, amp * state.f.values, amp * state.g.values)
        prop = ElasticPropagator(state, params)
        energies = [elastic_energy(*prop.pair(t), params) for t in np.linspace(0, 5, 11)]
        box = (2 * g.half_width) ** 2
        # cos + traveling-wave velocity data: E = |box| * amp^2 * mu |xi|^2
        assert energies[0] == pytest.approx(box * amp**2 * params.mu, rel=1e-12)
        assert max(energies) - min(energies) < 1e-12 * energies[0]

    def test_per_mode_energy_constant(self, rng):
        # |uhat_t|^2 + <L(xi) uhat, uhat> is a constant of motion mode by mode
        g = GridSpec(2, 16, 3.0)
        params = LameParams(0.6, 1.1)
        state = ElasticState(
            smooth_random_field(g, rng), smooth_random_field(g, rng, mean_zero=True)
        )
        prop = ElasticPropagator(state, params)
        xi = g.xi_open()
        nsq = g.xi_norm() ** 2

        def mode_density(t):
            u, ut = prop.pair(t)
            U = forward_values(u.values, g)
            Ut = forward_values(ut.values, g)
            dot = xi[0] * U[0] + xi[1] * U[1]
            return (
                np.sum(np.abs(Ut) ** 2, axis=0)
                + params.mu * nsq * np.sum(np.abs(U) ** 2, axis=0)
                + (params.lam + params.mu) * np.abs(dot) ** 2
            )

        d0 = mode_density(0.0)
        scale = np.max(d0)
        for t in (0.7, 2.3, 5.1):
            assert np.max(np.abs(mode_density(t) - d0)) < 1e-12 * scale

    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (-0.5, 1.0)])
    def test_conservation_random_gaussian(self, lam, mu, rng):
        g = GridSpec(2, 32, 14.0, time_samples=65, time_horizon=8.0)
        params = LameParams(lam, mu)
        state = ElasticState(
            smooth_random_field(g, rng, width=1.0),
            smooth_random_field(g, rng, width=1.0, mean_zero=True),
        )
        prop = ElasticPropagator(state, params)
        energies = [elastic_energy(*prop.pair(float(t)), params) for t in np.linspace(0, 8, 65)]
        drift = (max(energies) - min(energies)) / energies[0]
        assert drift < 1e-10


class TestPdeResidual:
    def test_second_order_convergence_plane_wave(self):
        g = GridSpec(2, 32, np.pi)
        params = LameParams(1.0, 1.0)
        state, _ = plane_wave_state(
            g, params, np.array([2.0, 1.0]), np.array([1.0, -2.0]) / np.sqrt(5), params.shear_speed
        )
        r1 = pde_residual(state, params, 0.6, 2e-3)
        r2 = pde_residual(state, params, 0.6, 1e-3)
        assert 3.5 < r1 / r2 < 4.5

    def test_zero_state_guarded(self):
        g = GridSpec(2, 8, 1.0)
        state = make_state(g, np.zeros((2, 8, 8), dtype=complex))
        assert pde_residual(state, LameParams(1.0, 1.0), 0.5, 1e-3) == 0.0

    def test_gaussian_residual_small(self):
        g = GridSpec(2, 64, 8.0)
        params = LameParams(1.0, 1.0)
        envelope = np.exp(-(g.x_norm() ** 2) / 2.0)
        fv = np.zeros((2,) + g.shape, dtype=complex)
        fv[0] = envelope
        state = make_state(g, fv)
        assert pde_residual(state, params, 0.5, 1e-3) < 1e-4

    def test_dt_precondition(self):
        g = GridSpec(2, 64, 1.0)
        state = make_state(g, np.zeros((2,) + g.shape, dtype=complex))
        with pytest.raises(DomainError):
            pde_residual(state, LameParams(1.0, 1.0), 0.5, 0.1)
