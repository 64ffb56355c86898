"""Oscillatory-kernel quadrature: symmetries, scaling, brute-force and scipy oracles,
decay fits, and the node budget and block size of the trapezoid rule."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from morawetz_lab import (
    OFF_CONE,
    ON_CONE,
    AccuracyError,
    DecayFit,
    DomainError,
    KernelQuery,
    decay_fit,
    kernel,
    kernel_value,
)
from morawetz_lab.cutoff import default_cutoff

from kernel_oracle import kernel_value_bruteforce


class TestKernelValue:
    def test_origin_value_matches_scaling_identity(self):
        # I_k(0,0) = 2^{nk} int phi(|xi|)^2 dxi, radial oracle by scipy quad
        phi = default_cutoff()
        for n, prefactor, power in ((2, 2 * np.pi, 1), (3, 4 * np.pi, 2)):
            base, err = quad(lambda r: phi(r) ** 2 * r**power, 0.5, 2.0, limit=200)
            assert err < 1e-8  # quad's conservative estimate; agreement asserted below
            for k in (0, 2):
                v = kernel_value(KernelQuery(z=(0.0,), tau=0.0, k=k, n=n))
                assert abs(v.imag) < 1e-12 * abs(v.real)
                assert v.real > 0
                assert v.real == pytest.approx(2.0 ** (n * k) * prefactor * base, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dyadic_scaling_identity(self, n, rng):
        for _ in range(6):
            k = int(rng.integers(-2, 5))
            za = float(rng.uniform(0.1, 3.0))
            tau = float(rng.uniform(-2.0, 2.0))
            v_k = kernel_value(KernelQuery(z=(za,), tau=tau, k=k, n=n))
            v_0 = kernel_value(KernelQuery(z=(2.0**k * za,), tau=2.0**k * tau, k=0, n=n))
            assert abs(v_k - 2.0 ** (n * k) * v_0) <= 1e-8 * max(abs(v_k), 1e-12)

    def test_against_brute_force_specific(self):
        q = KernelQuery(z=(0.7, 0.0), tau=0.3, k=0, n=2)
        v = kernel_value(q)
        vb = kernel_value_bruteforce(q)
        assert abs(v - vb) < 1e-5 * abs(v)

    def test_against_brute_force_random(self, rng):
        for _ in range(20):
            z = tuple(rng.uniform(-1.5, 1.5, 2))
            tau = float(rng.uniform(-1.0, 1.0))
            k = int(rng.integers(-1, 2))
            q = KernelQuery(z=z, tau=tau, k=k, n=2)
            v, vb = kernel_value(q), kernel_value_bruteforce(q)
            assert abs(v - vb) < 1e-5 * max(abs(v), 2.0 ** (2 * k))

    def test_brute_force_3d(self):
        q = KernelQuery(z=(0.4, 0.2, -0.1), tau=0.5, k=0, n=3)
        v, vb = kernel_value(q), kernel_value_bruteforce(q, points_per_axis=160)
        assert abs(v - vb) < 1e-4 * abs(v)

    def test_conjugate_symmetry(self):
        q_plus = KernelQuery(z=(0.9, 0.4), tau=0.6, k=0, n=2)
        q_minus = KernelQuery(z=(0.9, 0.4), tau=-0.6, k=0, n=2)
        v_plus, v_minus = kernel_value(q_plus), kernel_value(q_minus)
        assert abs(v_minus - np.conj(v_plus)) < 1e-10 * abs(v_plus)

    def test_rotation_invariance(self, rng):
        theta = 0.77
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        z = np.array([1.1, -0.3])
        v1 = kernel_value(KernelQuery(z=tuple(z), tau=0.4, k=0, n=2))
        v2 = kernel_value(KernelQuery(z=tuple(R @ z), tau=0.4, k=0, n=2))
        assert abs(v1 - v2) < 1e-8 * abs(v1)

    def test_bounded_by_origin_value(self, rng):
        peak = abs(kernel_value(KernelQuery(z=(0.0,), tau=0.0, k=0, n=2)))
        for _ in range(10):
            q = KernelQuery(
                z=tuple(rng.uniform(-4, 4, 2)), tau=float(rng.uniform(-4, 4)), k=0, n=2
            )
            assert abs(kernel_value(q)) <= peak * (1 + 1e-10)

    def test_brute_force_cost_guard(self):
        with pytest.raises(DomainError, match="cost"):
            kernel_value_bruteforce(KernelQuery(z=(1.0,), tau=0.0, k=3, n=2))

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(-1, 2), st.floats(0.0, 8.0),
           st.floats(-8.0, 8.0))
    def test_against_scipy_quad(self, n, k, za, tau):
        q = KernelQuery(z=(za,), tau=tau, k=k, n=n)
        f = kernel._radial_integrand(n, k)
        a, b = 2.0 ** (k - 1), 2.0 ** (k + 1)
        re, im = (quad(lambda r: part(f(r, za, tau)), a, b, epsabs=0.0, epsrel=1e-11,
                       limit=200)[0]
                  for part in (np.real, np.imag))
        prefactor = 2 * np.pi if n == 2 else 4 * np.pi
        ref = prefactor * complex(re, im)
        floor = prefactor * 1e-13 * 2.0 ** (n * k)  # kernel_value's absolute floor
        assert abs(kernel_value(q) - ref) <= 1e-8 * abs(ref) + floor

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            KernelQuery(z=(1.0,), tau=0.0, k=0, n=4)


class TestDecayFit:
    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_on_cone_stationary_phase_rate(self, n, k):
        distances = np.logspace(1, 3, 13)
        fit = decay_fit(ON_CONE, k, n, distances)
        assert fit.slope == pytest.approx(-(n - 1) / 2.0, abs=0.15)
        assert fit.r2 > 0.99
        assert fit.sample_range >= 2.0
        assert fit.below_floor == 0

    def test_off_cone_superpolynomial(self):
        distances = np.logspace(1, 3, 13)
        fit = decay_fit(OFF_CONE, 0, 2, distances, tau=0.0)
        assert fit.slope <= -4.0
        # at distance 1000 |I_0| ~ 9e-15 lies under the floor 1e-13 * 2^(nk):
        # cancellation noise, flagged but still fitted
        assert fit.values[-1] < kernel.ABS_FLOOR <= min(fit.values[:-1])
        assert fit.below_floor == 1
        assert len(fit.values) == len(distances)

    def test_off_cone_with_fixed_tau(self):
        distances = np.logspace(1, 3, 9)
        fit = decay_fit(OFF_CONE, 0, 2, distances, tau=2.0)
        assert fit.slope <= -4.0

    def test_insufficient_decades_rejected(self):
        with pytest.raises(DomainError, match="decade"):
            decay_fit(ON_CONE, 0, 2, np.linspace(10, 90, 9))

    def test_off_cone_geometry_validated(self):
        with pytest.raises(DomainError, match="2"):
            decay_fit(OFF_CONE, 0, 2, [1.0, 10.0, 100.0], tau=5.0)

    def test_unknown_regime(self):
        with pytest.raises(DomainError):
            decay_fit("lightlike", 0, 2, np.logspace(1, 3, 9))

    def test_fit_fields_populated(self):
        fit = decay_fit(ON_CONE, 0, 2, np.logspace(1, 3, 9))
        assert isinstance(fit, DecayFit)
        assert len(fit.distances) == len(fit.values) == 9
        assert np.isfinite(fit.intercept)


class TestPassBudget:
    def test_first_pass_over_budget_is_a_domain_error(self, pass_nodes):
        with pytest.raises(DomainError, match="budget"):
            kernel_value(KernelQuery(z=(10.0,), tau=10.0, k=40, n=2))
        assert pass_nodes == []

    @pytest.mark.parametrize("z,tau", [((np.inf,), 0.0), ((1.0,), np.nan)])
    def test_non_finite_first_pass_is_a_domain_error(self, pass_nodes, z, tau):
        with pytest.raises(DomainError, match="budget"):
            kernel_value(KernelQuery(z=z, tau=tau, k=0, n=2))
        assert pass_nodes == []

    def test_doubling_over_budget_is_an_accuracy_error(self, pass_nodes, monkeypatch):
        q = KernelQuery(z=(10.0,), tau=10.0, k=0, n=2)
        kernel_value(q)
        first = pass_nodes[0]
        assert len(pass_nodes) > 1 and max(pass_nodes) <= kernel.MAX_PASS_NODES
        pass_nodes.clear()
        monkeypatch.setattr(kernel, "MAX_PASS_NODES", 2 * first - 1)
        with pytest.raises(AccuracyError, match="nodes per pass") as exc:
            kernel_value(q)
        assert exc.value.achieved is None  # no doubling fit in the budget
        assert pass_nodes == [first]

    def test_far_on_cone_query_is_cheap(self, pass_nodes):
        c = 1250.0 / np.sqrt(2.0)
        kernel_value(KernelQuery(z=(c,), tau=c, k=3, n=2))
        assert sum(pass_nodes) < 40_000

    def test_no_integrand_call_exceeds_a_block(self, monkeypatch):
        sizes = []
        make = kernel._radial_integrand

        def recording(n, k):
            f = make(n, k)

            def g(r, za, tau):
                assert r.shape == za.shape == tau.shape
                sizes.append(r.size)
                return f(r, za, tau)

            return g

        monkeypatch.setattr(kernel, "_radial_integrand", recording)
        c = 1000.0 / np.sqrt(2.0)  # the far end of a default kernel-decay at k = 8
        kernel_value(KernelQuery(z=(c,), tau=c, k=8, n=2))
        assert max(sizes) <= kernel.BLOCK_NODES < sum(sizes)
        # a fit packs the passes of all its distances into calls of at most a
        # block, and counts every node and call it makes
        sizes.clear()
        fit = decay_fit(ON_CONE, 3, 2, np.logspace(1, 3, 13))
        assert max(sizes) <= kernel.BLOCK_NODES
        assert (fit.nodes, fit.calls) == (sum(sizes), len(sizes))
        assert fit.calls < fit.nodes / 1000

    # the benchmark's three fits at its warm-up point, and an off-cone fit at
    # tau 2 whose distances take different numbers of doublings
    @pytest.mark.parametrize("regime, k, n, tau", [
        (ON_CONE, 3, 2, 0.0), (ON_CONE, 3, 3, 0.0), (OFF_CONE, 0, 2, 0.0), (OFF_CONE, 0, 2, 2.0),
    ])
    def test_a_fit_is_one_kernel_value_per_distance(self, pass_nodes, regime, k, n, tau):
        lg = np.log10(11.25)
        distances = np.logspace(lg, lg + 2.0 + 1e-9, 13)
        fit = decay_fit(regime, k, n, distances, tau=tau)
        lockstep = list(pass_nodes)
        pass_nodes.clear()
        alone = []
        for d in fit.distances:
            z, t = (d / np.sqrt(2.0), d / np.sqrt(2.0)) if regime == ON_CONE else (d, tau)
            alone.append(abs(kernel_value(KernelQuery(z=(z,), tau=t, k=k, n=n))))
        assert list(fit.values) == alone  # bit for bit
        assert sorted(lockstep) == sorted(pass_nodes)  # the same passes
        assert fit.nodes == sum(pass_nodes)

    @pytest.mark.parametrize("budget, distances, error", [
        # the far distance needs more nodes in its first pass than allowed
        (256, [10.0, 20.0, 1000.0], DomainError),
        # the middle one cannot double within the budget, and the far one
        # still fails its first pass
        (256, [10.0, 100.0, 1000.0], AccuracyError),
        # the nearest one cannot double within the budget
        (65, [10.0, 100.0, 1000.0], AccuracyError),
    ])
    def test_a_fit_raises_the_error_of_its_nearest_failing_distance(self, monkeypatch, budget,
                                                                     distances, error):
        monkeypatch.setattr(kernel, "MAX_PASS_NODES", budget)
        with pytest.raises(error) as fit_error:
            decay_fit(ON_CONE, 0, 2, distances)
        for d in distances:
            c = d / np.sqrt(2.0)
            try:
                kernel_value(KernelQuery(z=(c,), tau=c, k=0, n=2))
            except (AccuracyError, DomainError) as exc:
                first = exc
                break
        assert type(first) is error and str(fit_error.value) == str(first)
        assert getattr(fit_error.value, "achieved", None) == getattr(first, "achieved", None)

    def test_kernel_decay_at_k8_exits_0(self, tmp_path):
        from morawetz_lab.cli import main

        out = tmp_path / "k8"
        assert main(["kernel-decay", "--k", "8", "--out", str(out)]) == 0
        slope = json.loads((out / "manifest.json").read_text())["summary"]["slope"]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_cli_exits_2_and_3_without_traceback(self, pass_nodes, monkeypatch, tmp_path,
                                                capsys):
        from morawetz_lab.cli import main

        assert main(["kernel-decay", "--k", "40", "--out", str(tmp_path / "k40")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        out = tmp_path / "fits"  # a two-decade fit at k = 3 stays within the budget
        assert main(["kernel-decay", "--k", "3", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["summary"]["slope"] < 0
        near = 10.0 / np.sqrt(2.0)  # the first on-cone query of the fit below
        pass_nodes.clear()
        kernel_value(KernelQuery(z=(near,), tau=near, k=0, n=2))
        monkeypatch.setattr(kernel, "MAX_PASS_NODES", 2 * pass_nodes[0] - 1)
        assert main(["kernel-decay", "--points", "3", "--out", str(tmp_path / "tight")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical accuracy failure") and "Traceback" not in err
        assert not (tmp_path / "tight" / "results.csv").exists()
