"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  All
tolerances are fixed here; the experiment grids were chosen so that every
probe satisfies the wrap-around margin and the time window is converged.
"""

from math import gamma

import numpy as np
import pytest
from scipy.integrate import quad

from morawetz_lab import (
    Cube,
    DataFamily,
    ElasticPropagator,
    ElasticState,
    GridSpec,
    KernelQuery,
    LameParams,
    QuadratureConfig,
    RegionQuery,
    VectorField,
    WeightSpec,
    a2_product,
    decay_fit,
    elastic_energy,
    forward_transform,
    frequency_constant_scan,
    helmholtz_split,
    hs_norm,
    inverse_transform,
    kernel_value,
    lp_level_range,
    lp_project,
    pde_residual,
    scale_covariance_test,
    weighted_spacetime_norm,
)
from morawetz_lab.cli import main as cli_main
from morawetz_lab.cutoff import default_cutoff
from morawetz_lab.elastic import projection_matrices
from morawetz_lab.kernel import OFF_CONE, ON_CONE
from morawetz_lab.spectral import frequency_lattice
from morawetz_lab.weights import SPACETIME_POWER, SPATIAL_POWER

from conftest import random_vector_field, smooth_random_field
from pyramid_oracle import cube_moment_oracle
from test_spectral import brute_force_forward


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_spectral_correctness(rng):
    worst_rt, worst_pv = 0.0, 0.0
    for dim, N in ((2, 16), (3, 8)):
        g = GridSpec(dim, N, 1.9)
        f = random_vector_field(g, rng)
        F = forward_transform(f)
        back = inverse_transform(F)
        worst_rt = max(
            worst_rt, np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        )
        lhs = g.dx**dim * np.sum(np.abs(f.values) ** 2)
        rhs = (g.dxi**dim / (2 * np.pi) ** dim) * np.sum(np.abs(F.coeffs) ** 2)
        worst_pv = max(worst_pv, abs(lhs - rhs) / lhs)

    g8 = GridSpec(2, 8, 1.3)
    f8 = random_vector_field(g8, rng)
    direct = brute_force_forward(f8)
    oracle_err = np.max(np.abs(forward_transform(f8).coeffs - direct)) / np.max(np.abs(direct))

    ok = worst_rt < 1e-12 and worst_pv < 1e-12 and oracle_err < 1e-12
    report(
        "1 spectral correctness",
        ok,
        f"round-trip {worst_rt:.2e}, Parseval {worst_pv:.2e}, DFT oracle {oracle_err:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_2_propagator_exactness():
    g = GridSpec(2, 64, np.pi)
    worst = 0.0
    for params, xi0, d, speed in (
        (LameParams(1.0, 1.0), np.array([2.0, 0.0]), np.array([0.0, 1.0]), 1.0),
        (LameParams(1.0, 1.0), np.array([0.0, 3.0]), np.array([0.0, 1.0]), np.sqrt(3.0)),
    ):
        X = g.x_grids()
        phase = xi0[0] * X[0] + xi0[1] * X[1]
        fv = np.stack([d[i] * np.cos(phase) for i in range(2)]).astype(complex)
        gv = np.stack(
            [d[i] * speed * np.linalg.norm(xi0) * np.sin(phase) for i in range(2)]
        ).astype(complex)
        state = ElasticState(VectorField(g, fv), VectorField(g, gv))
        prop = ElasticPropagator(state, params)
        for t in np.linspace(0.0, 4.0, 9):
            u = prop.displacement(float(t))
            expected = np.stack(
                [d[i] * np.cos(phase - speed * np.linalg.norm(xi0) * t) for i in range(2)]
            )
            worst = max(worst, float(np.max(np.abs(u.values - expected))))

    g2 = GridSpec(2, 64, 8.0)
    envelope = np.exp(-(g2.x_norm() ** 2) / 2.0)
    fv = np.zeros((2,) + g2.shape, dtype=complex)
    fv[0] = envelope
    state = ElasticState(VectorField(g2, fv), VectorField(g2, np.zeros_like(fv)))
    r1 = pde_residual(state, LameParams(1.0, 1.0), 0.6, 2e-3)
    r2 = pde_residual(state, LameParams(1.0, 1.0), 0.6, 1e-3)
    ratio = r1 / r2

    ok = worst < 1e-10 and 3.5 <= ratio <= 4.5
    report(
        "2 propagator exactness",
        ok,
        f"plane-wave error {worst:.2e} (tol 1e-10), residual halving ratio {ratio:.3f} (4 +- 0.5)",
    )
    assert ok


def test_criterion_3_energy_conservation(rng):
    worst = 0.0
    for lam, mu in ((1.0, 1.0), (-0.5, 1.0)):
        params = LameParams(lam, mu)
        g = GridSpec(2, 32, 14.0)
        state = ElasticState(
            smooth_random_field(g, rng, width=1.0),
            smooth_random_field(g, rng, width=1.0, mean_zero=True),
        )
        prop = ElasticPropagator(state, params)
        energies = [
            elastic_energy(*prop.pair(float(t)), params) for t in np.linspace(0.0, 8.0, 65)
        ]
        worst = max(worst, (max(energies) - min(energies)) / energies[0])
    ok = worst < 1e-10
    report("3 energy conservation", ok, f"max drift {worst:.2e} over 65 samples (tol 1e-10)")
    assert ok


def test_criterion_4_helmholtz_algebra(rng):
    worst_proj = 0.0
    for dim, N in ((2, 16), (3, 8)):
        g = GridSpec(dim, N, 1.4)
        I = np.eye(dim)
        for xi in frequency_lattice(g).xi:
            if not np.any(xi):
                continue
            P, Q = projection_matrices(xi)
            worst_proj = max(
                worst_proj,
                np.max(np.abs(P @ P - P)),
                np.max(np.abs(Q @ Q - Q)),
                np.max(np.abs(P @ Q)),
                np.max(np.abs(P + Q - I)),
            )

    worst_gap = 0.0
    g = GridSpec(2, 16, 2.0)
    for _ in range(100):
        f = random_vector_field(g, rng)
        f_P, f_S = helmholtz_split(f)
        for s in (0.0, 0.5):  # L2 and a fractional order
            total = hs_norm(f, s) ** 2
            gap = abs(hs_norm(f_P, s) ** 2 + hs_norm(f_S, s) ** 2 - total) / total
            worst_gap = max(worst_gap, gap)

    ok = worst_proj < 1e-14 and worst_gap < 1e-12
    report(
        "4 Helmholtz algebra",
        ok,
        f"projector identities {worst_proj:.2e} (tol 1e-14), "
        f"Pythagoras gap {worst_gap:.2e} over 100 fields (tol 1e-12)",
    )
    assert ok


def test_criterion_5_littlewood_paley(rng):
    phi = default_cutoff()
    t = np.logspace(np.log10(2.0**-10), np.log10(2.0**10), 1000)
    partition = float(np.max(phi.partition_deviation(t)))

    g = GridSpec(2, 32, np.pi)
    f = random_vector_field(g, rng)
    scale = np.max(np.abs(f.values))
    annihilation = np.max(np.abs(lp_project(lp_project(f, 0), 2).values)) / scale

    recon = np.zeros_like(f.values)
    for k in lp_level_range(g):
        recon += lp_project(f, k).values
    F = forward_transform(f).coeffs
    mean = F[(slice(None),) + (0,) * g.dim] / (2 * g.half_width) ** g.dim
    recon_err = np.max(np.abs(recon - (f.values - mean.reshape((2, 1, 1))))) / scale

    ok = partition < 1e-12 and annihilation < 1e-12 and recon_err < 1e-10
    report(
        "5 Littlewood-Paley",
        ok,
        f"partition {partition:.2e} (1e-12), annihilation {annihilation:.2e} (1e-12), "
        f"reconstruction {recon_err:.2e} (1e-10)",
    )
    assert ok


def test_criterion_6_norm_oracles():
    g = GridSpec(2, 128, 30.0)
    vals = np.zeros((2,) + g.shape, dtype=complex)
    vals[0] = np.exp(-(g.x_norm() ** 2) / 2.0)
    f = VectorField(g, vals)
    oracle_sq, _ = quad(lambda r: 2 * np.pi * r**2 * np.exp(-(r**2)), 0, 30)
    oracle = float(np.sqrt(oracle_sq))
    hs_err = abs(hs_norm(f, 0.5) - oracle) / oracle

    g2 = GridSpec(2, 32, 4.0, time_samples=9, time_horizon=1.0)
    profile = np.exp(-(g2.x_norm() ** 2) / 1.28).astype(complex)
    tol = 1e-9
    norms = {}
    for refinement in (8, 16):
        quad_cfg = QuadratureConfig(singular_cell_refinement=refinement)
        norms[refinement] = weighted_spacetime_norm(
            lambda t: profile, WeightSpec(SPATIAL_POWER, 1.5), g2, quad_cfg
        )
    stability = abs(norms[16] - norms[8]) / norms[16]

    ok = hs_err < 1e-6 and stability < 2 * tol
    report(
        "6 norm oracles",
        ok,
        f"Gaussian Hdot^0.5 vs radial oracle {hs_err:.2e} (tol 1e-6), "
        f"refinement-doubling change {stability:.2e} (tol {2 * tol:.0e})",
    )
    assert ok


SCALE_COVARIANCE_CASES = [
    # (n, N, L, T, M, width, alpha, s, kind, expected slope)
    (2, 128, 20.0, 12.0, 97, 0.75, 2.0, 0.5, SPATIAL_POWER, 0.0),
    (2, 128, 20.0, 12.0, 97, 0.75, 3.0, 0.75, SPACETIME_POWER, 0.25),
    (3, 64, 16.0, 6.5, 53, 0.9, 2.0, 0.5, SPACETIME_POWER, 0.0),
]


@pytest.mark.parametrize("n,N,L,T,M,width,alpha,s,kind,expected", SCALE_COVARIANCE_CASES)
def test_criterion_7_scale_covariance(n, N, L, T, M, width, alpha, s, kind, expected):
    g = GridSpec(n, N, L, M, T)
    family = DataFamily(kind="gaussian", width=width)
    res = scale_covariance_test(family, RegionQuery(alpha, s, n, kind), g)
    assert res.target == pytest.approx(expected, abs=1e-12)
    err = res.slope - res.target
    ok = abs(err) <= 0.05 and not res.dropped
    report(
        "7 scale covariance",
        ok,
        f"n={n} alpha={alpha} s={s} {kind}: slope {res.slope:+.4f} vs {res.target:+.2f} "
        f"(err {err:+.4f}, tol 0.05)",
    )
    assert ok


def test_criterion_8_kernel_decay(rng):
    details = []
    ok = True
    for n in (2, 3):
        for k in (0, 1):
            fit = decay_fit(ON_CONE, k, n, np.logspace(1, 3, 13))
            err = fit.slope + (n - 1) / 2.0
            ok &= abs(err) <= 0.15
            details.append(f"oncone n={n} k={k}: {fit.slope:+.3f}")
    off = decay_fit(OFF_CONE, 0, 2, np.logspace(1, 3, 13), tau=0.0)
    ok &= off.slope <= -4.0
    details.append(f"offcone: {off.slope:+.2f}")

    worst_scaling = 0.0
    for _ in range(5):
        k = int(rng.integers(-2, 5))
        za, tau = float(rng.uniform(0.2, 2.0)), float(rng.uniform(-1.5, 1.5))
        v_k = kernel_value(KernelQuery(z=(za,), tau=tau, k=k, n=2))
        v_0 = kernel_value(KernelQuery(z=(2.0**k * za,), tau=2.0**k * tau, k=0, n=2))
        worst_scaling = max(worst_scaling, abs(v_k - 4.0**k * v_0) / max(abs(v_k), 1e-12))
    ok &= worst_scaling < 1e-8
    details.append(f"scaling {worst_scaling:.1e}")

    report("8 kernel decay", ok, "; ".join(details) + " (slopes +-0.15, offcone <= -4, scaling 1e-8)")
    assert ok


A2_DIM = 3  # n = 2 space dimensions + time


def _a2_origin(alpha: float) -> float:
    return a2_product(alpha, A2_DIM, Cube((0.0,) * A2_DIM, 1.0))


def test_criterion_9_a2_estimator():
    exact_one = _a2_origin(0.0) == 1.0

    sides = [_a2_origin_side(1.8, side) for side in (0.5, 1.0, 2.0)]
    scale_inv = max(abs(v - sides[1]) / sides[1] for v in sides) < 1e-6

    alphas = [0.0, 0.3 * A2_DIM, 0.6 * A2_DIM, 0.9 * A2_DIM]
    values = [_a2_origin(a) for a in alphas]
    monotone = all(a < b for a, b in zip(values, values[1:]))

    ok = exact_one and scale_inv and monotone
    report(
        "9 A2 estimator",
        ok,
        f"alpha=0 exactly 1: {exact_one}; scale invariance 1e-6: {scale_inv}; "
        f"strict growth on {alphas}: {monotone} (values {[f'{v:.3f}' for v in values]})",
    )
    assert ok


def _a2_origin_side(alpha: float, side: float) -> float:
    return a2_product(alpha, A2_DIM, Cube((0.0,) * A2_DIM, side))


def test_criterion_9_a2_growth_ratio():
    # Growth of the origin-cube A2 product of |z|^-alpha toward the edge
    # alpha -> d.  The pyramid reduction gives, exactly,
    #   A2(alpha) = d^2/(d^2 - alpha^2) * avg_face|y|^-alpha * avg_face|y|^alpha,
    # and |y| lies in [h, h sqrt(d)] on a face, so
    #   d^2/(d^2 - alpha^2) <= A2(alpha) <= d^2/(d^2 - alpha^2) * d^(alpha/2).
    # Hence A2(0.9d)/A2(0.3d) < d^(0.45d) (1 - 0.09)/(1 - 0.81) (21.1 at d = 3):
    # a 100x growth between those alphas is out of reach for any correct
    # estimator.  What does hold is the edge law
    #   (d - alpha) A2(alpha) -> C_d = sigma_(d-1) * integral_Q |z|^d
    # (Q the unit cube, sigma_(d-1) the area of the unit sphere), so 100x is
    # reached once d - alpha < C_d / (100 A2(0.3d)).
    d = A2_DIM
    h = 0.5
    volume = (2 * h) ** d
    oracle_exact = (
        abs(cube_moment_oracle(0.0, d, h) - volume) < 1e-12
        and abs(cube_moment_oracle(2.0, d, h) - d * volume * h * h / 3.0) < 1e-12
    )

    fracs = (0.3, 0.9, 0.99, 0.999)
    alphas = [f * d for f in fracs]
    values = [_a2_origin(a) for a in alphas]
    exact = [
        cube_moment_oracle(-a, d, h) * cube_moment_oracle(a, d, h) / volume**2 for a in alphas
    ]
    worst_rel = max(abs(v - e) / e for v, e in zip(values, exact))
    matches = worst_rel < 1e-8

    ratio = values[1] / values[0]
    bound = d ** (0.45 * d) * (1 - 0.3**2) / (1 - 0.9**2)
    below_bound = ratio < bound

    sigma = 2 * np.pi ** (d / 2) / gamma(d / 2)
    c_d = sigma * cube_moment_oracle(float(d), d, h) / volume
    edge = [(d - a) * v for a, v in zip(alphas[1:], values[1:])]
    gaps = [abs(e - c_d) / c_d for e in edge]
    converges = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-3

    growth = values[-1] / values[0]
    reaches_100 = growth > 100.0

    ok = oracle_exact and matches and below_bound and converges and reaches_100
    report(
        "9 A2 growth ratio",
        ok,
        f"oracle exact at p=0,2: {oracle_exact}; pyramid oracle rel err {worst_rel:.1e} "
        f"(1e-8) at alpha {[round(a, 3) for a in alphas]}; "
        f"product({alphas[1]:.1f}) / product({alphas[0]:.1f}) = {ratio:.2f} "
        f"(bound {bound:.1f}); (d-alpha)*A2 = {[f'{e:.6f}' for e in edge]} "
        f"-> C_{d} = {c_d:.7f}, rel gaps {[f'{g:.1e}' for g in gaps]} (last < 1e-3); "
        f"product({alphas[-1]:.3f}) / product({alphas[0]:.1f}) = {growth:.0f} (required > 100)",
    )
    assert ok


def test_criterion_10_frequency_constant_scan():
    g = GridSpec(2, 128, 20.0, 65, 8.0)
    details = []
    ok = True
    for alpha, tol in ((2.0, 0.1), (2.5, 0.1)):
        q = RegionQuery(alpha, (alpha - 1) / 2.0, 2, SPACETIME_POWER)
        res = frequency_constant_scan((0, 1, 2), q, g)
        err = res.slope - res.dilation_target
        ok &= abs(err) <= tol
        details.append(
            f"alpha={alpha}: slope {res.slope:+.4f} vs {res.dilation_target:+.2f} "
            f"(reference growth exponent s={res.reference_exponent}, p={res.implied_p:.3f})"
        )
    q0 = RegionQuery(0.0, 0.5, 2, SPACETIME_POWER)
    res0 = frequency_constant_scan((0, 1, 2), q0, g)
    ok &= abs(res0.slope) <= 0.05
    details.append(f"alpha=0: slope {res0.slope:+.5f} (tol 0.05)")
    report("10 frequency-constant scan", ok, "; ".join(details))
    assert ok


def test_criterion_11_determinism(tmp_path):
    args = [
        "scan-ratio", "--alpha", "1.5", "--s", "0.25", "--grid", "32", "--box", "10.0",
        "--horizon", "4.0", "--samples", "17", "--width", "0.5", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    report("11 determinism", same, "repeated scan-ratio runs produce byte-identical CSV")
    assert same
