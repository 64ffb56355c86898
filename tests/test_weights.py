"""Weighted space-time norms with singular-cell quadrature, and the A2 estimator."""

import itertools
from math import gamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morawetz_lab import (
    AccuracyError,
    Cube,
    DomainError,
    GridSpec,
    QuadratureConfig,
    WeightSpec,
    a2_product,
    a2_scan,
    weighted_spacetime_norm,
)
from morawetz_lab import weights as W
from morawetz_lab.weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    default_cube_family,
    singular_cell_report,
)

from conftest import constant_sampler
from pyramid_oracle import box_moment_oracle, cube_moment_oracle


def static_gaussian_sampler(grid, width=1.0, center=None):
    if center is None:
        x2 = grid.x_norm() ** 2
    else:
        x2 = sum((grid.x_grids()[i] - center[i]) ** 2 for i in range(grid.dim))
    return constant_sampler(np.exp(-x2 / (2 * width**2)), grid)


class TestWeightSpec:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            WeightSpec("powerlaw", 1.0)
        with pytest.raises(DomainError):
            WeightSpec(SPATIAL_POWER, -0.5)
        with pytest.raises(DomainError):
            WeightSpec("log_spatial", 1.0)  # only power weights remain

    def test_admissible_range_per_grid(self):
        g = GridSpec(2, 16, 1.0)
        WeightSpec(SPATIAL_POWER, 2.0).validate_for(g)  # boundary allowed
        WeightSpec(SPACETIME_POWER, 3.0).validate_for(g)
        with pytest.raises(DomainError):
            WeightSpec(SPATIAL_POWER, 2.1).validate_for(g)
        with pytest.raises(DomainError):
            WeightSpec(SPACETIME_POWER, 3.1).validate_for(g)


class TestWeightedNorm:
    def test_alpha_zero_is_plain_l2(self):
        g = GridSpec(2, 32, 6.0, time_samples=9, time_horizon=2.0)
        sampler = static_gaussian_sampler(g)
        val = weighted_spacetime_norm(sampler, WeightSpec(SPATIAL_POWER, 0.0))
        profile = sampler(0.0)
        closed = np.sqrt(2 * g.time_horizon * g.dx**2 * np.sum(np.abs(profile) ** 2))
        assert val == pytest.approx(closed, rel=1e-10)

    def test_zero_field(self):
        g = GridSpec(2, 16, 2.0, time_samples=5)
        zero = np.zeros(g.shape, dtype=complex)
        for spec in (WeightSpec(SPATIAL_POWER, 1.0), WeightSpec(SPACETIME_POWER, 1.5)):
            assert weighted_spacetime_norm(constant_sampler(zero, g), spec) == 0.0

    def test_smoothed_indicator_against_refined_grid_oracle(self):
        # static smoothed box indicator; the double-resolution grid is the oracle
        def norm_at(N):
            g = GridSpec(2, N, 4.0, time_samples=5, time_horizon=1.0)
            X = g.x_grids()
            smooth = 1.0
            for i in range(2):
                smooth = smooth * 0.5 * (np.tanh(2 * (X[i] + 1)) - np.tanh(2 * (X[i] - 1)))
            sampler = constant_sampler(smooth, g)
            return weighted_spacetime_norm(sampler, WeightSpec(SPATIAL_POWER, 1.0))

        coarse, oracle = norm_at(256), norm_at(512)
        assert abs(coarse - oracle) / oracle < 1e-4

    @pytest.mark.parametrize("kind,alpha", [(SPATIAL_POWER, 1.5), (SPACETIME_POWER, 2.0)])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_substitution_law_on_nested_grids(self, kind, alpha, lam):
        # v(x,t) = u(lam x, lam t) on the (L, T) grid matches u on the
        # (lam L, lam T) grid: norm(v) = lam^{(alpha - n - 1)/2} norm(u)
        n, N, L, T, M, width = 2, 64, 8.0, 2.0, 17, 1.0
        g1 = GridSpec(n, N, L, M, T)
        v = np.exp(-((lam * g1.x_norm()) ** 2) / (2 * width**2)).astype(complex)
        norm_v = weighted_spacetime_norm(constant_sampler(v, g1), WeightSpec(kind, alpha))
        g2 = GridSpec(n, N, lam * L, M, lam * T)
        u = np.exp(-(g2.x_norm() ** 2) / (2 * width**2)).astype(complex)
        norm_u = weighted_spacetime_norm(constant_sampler(u, g2), WeightSpec(kind, alpha))
        assert norm_v == pytest.approx(lam ** ((alpha - n - 1) / 2.0) * norm_u, rel=0.01)

    def test_refinement_doubling_stability(self):
        g = GridSpec(2, 32, 4.0, time_samples=9, time_horizon=1.0)
        sampler = static_gaussian_sampler(g, width=0.8)
        tol = 1e-9
        vals = {}
        for refinement in (8, 16):
            quad = QuadratureConfig(singular_cell_refinement=refinement)
            vals[refinement] = weighted_spacetime_norm(
                sampler, WeightSpec(SPATIAL_POWER, 1.5), quad
            )
        assert abs(vals[16] - vals[8]) < 2 * tol * vals[16]

    def test_boundary_alpha_is_depth_capped(self):
        g = GridSpec(2, 32, 4.0, time_samples=9, time_horizon=1.0)
        report = singular_cell_report(WeightSpec(SPATIAL_POWER, 2.0), g)
        assert report["truncated"] is True
        interior = singular_cell_report(WeightSpec(SPATIAL_POWER, 1.5), g)
        assert interior["truncated"] is False
        # at alpha = n and n + 1 every dyadic shell of the cell carries the
        # same ln 2 * flux, so the regularized value is linear in the depth
        for spec in (WeightSpec(SPATIAL_POWER, 2.0), WeightSpec(SPACETIME_POWER, 3.0)):
            cells = {}
            for depth in (8, 16):
                cells[depth] = singular_cell_report(spec, g, QuadratureConfig(depth))
                assert cells[depth]["truncated"] is True
            assert cells[16]["origin_cell"] == pytest.approx(
                2 * cells[8]["origin_cell"], rel=1e-14)
        # just inside the edge the cell is finite and exact, however large
        near = singular_cell_report(WeightSpec(SPATIAL_POWER, 2.0 - 1e-4), g)
        assert near["truncated"] is False
        h = g.dx / 2
        exact = 4 * box_moment_oracle(-(2.0 - 1e-4), [0.0, 0.0], [h, h])
        assert near["origin_cell"] == pytest.approx(exact, rel=1e-12)

    def test_inadmissible_alpha_rejected(self):
        g = GridSpec(2, 16, 2.0, time_samples=3)
        sampler = static_gaussian_sampler(g)
        with pytest.raises(DomainError):
            weighted_spacetime_norm(sampler, WeightSpec(SPATIAL_POWER, 2.5))


class TestA2Product:
    def test_alpha_zero_is_exactly_one(self):
        for d in (2, 3, 4):
            cube = Cube((0.0,) * d, 1.7)
            assert a2_product(0.0, d, cube) == 1.0

    def test_scale_invariance_origin_cubes(self):
        for side in (0.25, 1.0, 4.0):
            val = a2_product(1.5, 3, Cube((0.0, 0.0, 0.0), side))
            ref = a2_product(1.5, 3, Cube((0.0, 0.0, 0.0), 1.0))
            assert val == pytest.approx(ref, rel=1e-6)

    def test_against_dual_method_oracle(self):
        # deterministic oracle: the exact pyramid reduction of the cube moments,
        # also right at the edge alpha -> d; stochastic cross-check: plain Monte Carlo
        d = 3
        for alpha in (1.5, 2.999, 2.9999):
            val = a2_product(alpha, d, Cube((0.0, 0.0, 0.0), 1.0))
            oracle = cube_moment_oracle(-alpha, d, 0.5) * cube_moment_oracle(alpha, d, 0.5)
            assert val == pytest.approx(oracle, rel=1e-12), alpha

        alpha = 1.5
        val = a2_product(alpha, d, Cube((0.0, 0.0, 0.0), 1.0))
        rng = np.random.default_rng(4)
        z = rng.uniform(-0.5, 0.5, size=(400000, 3))
        r = np.linalg.norm(z, axis=1)
        mc = np.mean(r**-alpha) * np.mean(r**alpha)
        assert val == pytest.approx(mc, rel=2e-2)

    def test_at_least_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            alpha = float(rng.uniform(0.1, d - 0.2))
            center = tuple(rng.uniform(-1, 1, d))
            assert a2_product(alpha, d, Cube(center, float(rng.uniform(0.5, 2)))) >= 1.0 - 1e-9

    def test_inadmissible_alpha(self):
        with pytest.raises(DomainError):
            a2_product(3.0, 3, Cube((0.0, 0.0, 0.0), 1.0))
        with pytest.raises(DomainError):
            a2_product(-3.5, 3, Cube((0.0, 0.0, 0.0), 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            a2_product(1.0, 3, Cube((0.0, 0.0), 1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the moments
    def test_overflowing_moments_are_an_accuracy_error(self):
        # the volume 1e180 is finite, the moment of |z|^2.7 is not
        huge = Cube((0.0, 0.0, 0.0), 1e60)
        with pytest.raises(AccuracyError, match="not finite"):
            a2_product(2.7, 3, huge)
        with pytest.raises(AccuracyError, match="not finite"):
            a2_scan([1.0, 2.7], 3, [("huge", huge)])


class TestA2Scan:
    def test_alpha_zero_row_all_ones(self):
        rows = [r for r in a2_scan([0.0], 3, default_cube_family(3)) if r.alpha == 0.0]
        assert rows and all(r.product == 1.0 for r in rows)

    def test_monotone_in_alpha_origin_cubes(self):
        alphas = [0.0, 1.5, 2.7]
        vals = [a2_product(a, 3, Cube((0.0, 0.0, 0.0), 1.0)) for a in alphas]
        assert vals[0] < vals[1] < vals[2]

    def test_far_offset_cubes_tend_to_one(self):
        fam = default_cube_family(3)
        rows = a2_scan([1.5], 3, fam)
        by_label = {r.label: r.product for r in rows}
        assert by_label["offset-4.0"] < by_label["offset-2.0"] < by_label["origin"]
        assert by_label["offset-4.0"] == pytest.approx(1.0, abs=5e-2)

    def test_scan_max(self):
        rows = a2_scan([0.0, 1.5], 3, default_cube_family(3))
        sup = {a: max(r.product for r in rows if r.alpha == a) for a in (0.0, 1.5)}
        assert sup[0.0] == 1.0
        assert sup[1.5] > 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_equal_single_products(self, d):
        # one batched integral per cube gives each (alpha, cube) its own product
        alphas = [0.0, 0.3 * d, -0.6 * d, 0.95 * d]
        fam = default_cube_family(d, 0.7)
        rows = a2_scan(alphas, d, fam)
        assert [(r.alpha, r.label) for r in rows] == [(a, lab) for a in alphas for lab, _ in fam]
        for row in rows:
            single = a2_product(row.alpha, d, Cube(row.center, row.side))
            assert row.product == pytest.approx(single, rel=1e-13), (row.alpha, row.label)

    def test_validates_every_entry_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before validation")

        monkeypatch.setattr(W, "_gauss_box", no_quadrature)
        with pytest.raises(DomainError, match="alpha"):
            a2_scan([1.0, 5.0], 4, default_cube_family(4))
        with pytest.raises(DomainError, match="dim"):
            a2_scan([1.0], 4, default_cube_family(4) + [("flat", Cube((0.0,) * 3, 1.0))])
        with pytest.raises(DomainError, match="volume"):
            a2_scan([1.0], 4, default_cube_family(4) + [("huge", Cube((0.0,) * 4, 1e100))])


def test_spacetime_norm_even_time_samples():
    # with no t = 0 node there is no singular node; all weights stay finite
    # and the cell treatment is skipped
    g_even = GridSpec(2, 32, 6.0, time_samples=8, time_horizon=1.0)
    g_odd = GridSpec(2, 32, 6.0, time_samples=9, time_horizon=1.0)
    profile = np.exp(-(g_even.x_norm() ** 2)).astype(complex)
    spec = WeightSpec(SPACETIME_POWER, 2.0)
    v_even = weighted_spacetime_norm(constant_sampler(profile, g_even), spec)
    v_odd = weighted_spacetime_norm(constant_sampler(profile, g_odd), spec)
    assert np.isfinite(v_even) and v_even > 0
    assert v_even == pytest.approx(v_odd, rel=0.2)  # same quantity, coarser rule


def _box_moments(lo, hi):
    """Closed-form integrals of r^2 and r^4 over the box prod [lo_i, hi_i]."""
    length = hi - lo
    m2 = length * (lo * lo + lo * hi + hi * hi) / 3.0
    m4 = length * (lo**4 + lo**3 * hi + (lo * hi) ** 2 + lo * hi**3 + hi**4) / 5.0
    vol = np.prod(length)
    r2 = sum(m2[i] * vol / length[i] for i in range(len(lo)))
    r4 = sum(m4[i] * vol / length[i] for i in range(len(lo)))
    r4 += 2 * sum(m2[i] * m2[j] * vol / (length[i] * length[j])
                  for i in range(len(lo)) for j in range(i + 1, len(lo)))
    return r2, r4


@st.composite
def _boxes(draw):
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, 6))
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    width = st.floats(0.05, 2.0, allow_nan=False, allow_infinity=False)
    lo = np.array(draw(st.lists(coord, min_size=k * d, max_size=k * d))).reshape(k, d)
    widths = np.array(draw(st.lists(width, min_size=k * d, max_size=k * d))).reshape(k, d)
    return lo, lo + widths


@settings(max_examples=60, deadline=None)
@given(_boxes())
def test_batched_gauss_box_is_exact_on_even_polynomials(boxes):
    # 6-point Gauss is exact per axis up to degree 11, so r^2 and r^4 come
    # out exact; each batch entry equals the same box evaluated alone
    lo, hi = boxes
    for radial, which in ((lambda r2: r2, 0), (lambda r2: r2 * r2, 1)):
        batch = W._gauss_box(radial, lo, hi)
        assert batch.shape == (len(lo),)
        for i in range(len(lo)):
            exact = _box_moments(lo[i], hi[i])[which]
            assert batch[i] == pytest.approx(exact, rel=1e-13)
            assert W._gauss_box(radial, lo[i:i + 1], hi[i:i + 1])[0] == batch[i]


def test_spacetime_patch_is_even_and_matches_direct_cell_averages():
    g = GridSpec(2, 32, 4.0, time_samples=17, time_horizon=2.0)
    spec = WeightSpec(SPACETIME_POWER, 2.2)
    patch, _ = W._weight_patch(spec, g, QuadratureConfig())
    for axis in range(patch.ndim):
        assert np.array_equal(patch, np.flip(patch, axis=axis))
    rings = np.array(patch.shape) // 2
    steps = np.array([g.time_nodes()[1] - g.time_nodes()[0]] + [g.dx] * g.dim)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 12:
        offs = rng.integers(-rings, rings + 1)
        if not np.any(offs < 0):
            continue  # the orthant itself is integrated directly
        center = offs * steps
        direct = W._gauss_box(spec.radial(), [center - steps / 2], [center + steps / 2])[0]
        assert patch[tuple(offs + rings)] == pytest.approx(direct / np.prod(steps), rel=1e-13)
        checked += 1


def test_shared_weight_caches_are_read_only():
    g = GridSpec(2, 16, 2.0, time_samples=5)
    quad = QuadratureConfig()
    spatial, spatial_info = W._weight_patch(WeightSpec(SPATIAL_POWER, 1.0), g, quad)
    spacetime, spacetime_info = W._weight_patch(WeightSpec(SPACETIME_POWER, 1.5), g, quad)
    memo = [g.x_norm(), g.x_grids()[0], g.xi_norm(), g.time_nodes(), g.trapezoid_weights()]
    for arr in [spatial, spacetime] + memo:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    # every caller gets the same cell info: a write would reach every later report
    for weight, info in ((WeightSpec(SPATIAL_POWER, 1.0), spatial_info),
                         (WeightSpec(SPACETIME_POWER, 1.5), spacetime_info)):
        report = W.singular_cell_report(weight, g, quad)
        with pytest.raises(TypeError):
            info["origin_cell"] = 0.0
        with pytest.raises(TypeError):
            del info["truncated"]
        assert W.singular_cell_report(weight, g, quad) == report


def _assert_even(a: np.ndarray, dim: int, label: str) -> None:
    """a is unchanged by each reflection m_i -> -m_i mod N of its last dim axes."""
    for axis in range(a.ndim - dim, a.ndim):
        head = (slice(None),) * axis
        np.testing.assert_array_equal(a[head + (slice(1, None),)],
                                      a[head + (slice(None, 0, -1),)], err_msg=label)


@pytest.mark.parametrize("dim, n, edge", [(2, 32, False), (3, 16, False), (2, 8, True),
                                          (3, 8, True)])
def test_lattice_weights_are_even_and_read_on_the_block(dim, n, edge):
    # the pass reads every weight and mask on the block of its free axes,
    # [:N/2 + 1] on the others, which holds them only if they are even in
    # each axis; edge: the ring patch is clipped to N/4 cells and covers
    # half the grid
    g = GridSpec(dim, n, 6.0, 5 if edge else 17, 2.0)
    masks = list(itertools.product([False, True], repeat=dim))
    quad = QuadratureConfig()
    # the spatial weight on the lattice: the fill at t = 0 with its patch laid over it
    patch, _ = W._weight_patch(WeightSpec(SPATIAL_POWER, 0.7 * dim), g, quad)
    w = W._spacetime_pointwise(g, 0.7 * dim, 0.0, np.empty(g.shape))
    w[W._ring_index(patch.shape[0] // 2, g)[0]] = patch
    _assert_even(w, dim, "spatial")
    patch, _ = W._weight_patch(WeightSpec(SPACETIME_POWER, 0.7 * (dim + 1)), g, quad)
    ring = patch.shape[1] // 2
    for k in range(patch.shape[0]):
        for axis in range(dim):
            np.testing.assert_array_equal(patch[k], np.flip(patch[k], axis), err_msg="ring")
        full, part = W._ring_index(ring, g)
        lattice = np.zeros(g.shape)
        lattice[full] = patch[k][part]
        _assert_even(lattice, dim, "ring on the lattice")
        for free in masks:
            cells, orthant = W._ring_index(ring, g, free)
            on_block = np.zeros(g.block_shape(free))
            on_block[cells] = patch[k][orthant]
            np.testing.assert_array_equal(on_block, lattice[g.block(free)], err_msg=str(free))
    for t in (0.0, 0.5, -1.25):
        fill = W._spacetime_pointwise(g, 2.2, t, np.empty(g.shape))
        _assert_even(fill, dim, f"fill at t = {t}")
        for free in masks:
            np.testing.assert_array_equal(
                W._spacetime_pointwise(g, 2.2, t, np.empty(g.block_shape(free)), free),
                fill[g.block(free)])
    for R in (1.0, 2.0, 4.0):
        _assert_even((np.sqrt(g.x_sq_fft()) < R).astype(float), dim, f"ball {R}")
    # a sum over the lattice of an even array is its block sum times the orbit sizes
    for free in masks:
        sizes = g.orbit_sizes(free)
        assert sizes.shape == g.block_shape(free) and sizes.sum() == g.mode_count
        assert np.sum(w) == pytest.approx(np.sum(w[g.block(free)] * sizes), rel=1e-13)
    assert g.orbit_sizes().shape == g.even_shape


@st.composite
def _oracle_boxes(draw):
    """Boxes in [-2, 2]^d that straddle, touch or avoid the origin per axis,
    aspect ratio <= 10, every face through the origin or >= 0.05 widths from it."""
    d = draw(st.integers(2, 3))
    width = draw(st.floats(0.1, 1.9))
    lo, hi = np.empty(d), np.empty(d)
    for i in range(d):
        w = width if i == 0 else draw(st.floats(width / 10, width))
        kind = draw(st.sampled_from(["straddle", "touch", "avoid"]))
        if kind == "straddle":
            a = 0.05 * width + draw(st.floats(0.0, 1.0)) * (w - 0.1 * width)
            lo[i], hi[i] = -a, w - a
        elif kind == "touch":
            lo[i], hi[i] = 0.0, w
        else:
            gap = draw(st.floats(0.05 * width, 2.0 - w))
            lo[i], hi[i] = gap, gap + w
        if draw(st.booleans()):
            lo[i], hi[i] = -hi[i], -lo[i]
    p = draw(st.floats(-(d - 0.05), float(d)))
    return p, lo, hi


@settings(max_examples=40, deadline=None)
@given(_oracle_boxes())
def test_box_integral_matches_face_oracle(case):
    p, lo, hi = case
    [(value, truncated)] = W._box_integral([p], lo, hi, 24)
    assert not truncated
    assert value == pytest.approx(box_moment_oracle(p, lo, hi), rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(_oracle_boxes(), st.lists(st.floats(-1.95, 3.0), min_size=1, max_size=7))
def test_batched_exponents_match_single_exponent_calls(case, more):
    # every exponent is summed from one node set, in chunks sized by the
    # number of exponents; each equals its own one-exponent integral
    p, lo, hi = case
    ps = [p] + more
    batch = W._box_integral(ps, lo, hi, 24)
    assert len(batch) == len(ps)
    for q, (value, truncated) in zip(ps, batch):
        [(single, single_truncated)] = W._box_integral([q], lo, hi, 24)
        assert truncated == single_truncated
        assert value == pytest.approx(single, rel=1e-13), q


def test_thin_box_is_cheap_and_additive(monkeypatch):
    # a 4-d cube whose face x_0 = 1e-6 passes 1e-6 from the origin: the face
    # tiles grow with log(1/c), not with a power of it
    nodes = []
    gauss_box = W._gauss_box

    def counted(fn, lo, hi):
        nodes.append(len(lo) * W._GAUSS_N ** np.shape(lo)[1])
        return gauss_box(fn, lo, hi)

    monkeypatch.setattr(W, "_gauss_box", counted)
    p = -3.6
    lo, hi = np.array([1e-6, -0.5, -0.5, -0.5]), np.array([1.0 + 1e-6, 0.5, 0.5, 0.5])
    [(whole, truncated)] = W._box_integral([p], lo, hi, 24)
    assert not truncated
    assert 0 < sum(nodes) < 2e6
    monkeypatch.undo()

    def split(axis, at):
        upper, lower = lo.copy(), hi.copy()
        upper[axis], lower[axis] = at, at
        return W._box_integral([p], lo, lower, 24)[0][0] + W._box_integral([p], upper, hi, 24)[0][0]

    assert split(1, 0.0) == pytest.approx(whole, rel=1e-12)  # halves at the origin
    assert split(0, 0.5) == pytest.approx(whole, rel=1e-12)  # halves of the thin axis
    # independent of the tiling: the slab [0, eps] x [-1/2, 1/2]^3 between the
    # touching cube and this one holds K eps^(p+4) / (p+4) + O(eps), with
    # K = integral over R^3 of (1 + |w|^2)^(p/2) = 2 pi B(3/2, -(p+3)/2)
    [(touching, _)] = W._box_integral([p], np.array([0.0, -0.5, -0.5, -0.5]),
                                      hi - [1e-6, 0, 0, 0], 24)
    K = 2 * np.pi * gamma(1.5) * gamma(-(p + 3) / 2) / gamma(-p / 2)
    assert (touching - whole) / (K * 1e-6 ** (p + 4) / (p + 4)) == pytest.approx(1.0, abs=1e-3)


# -- one Gauss panel per permutation orbit --------------------------------------


def _every_panel(count, classes):
    """The orbits of the identity alone: every index tuple its own orbit."""
    m = len(classes)
    tuples = np.array(list(itertools.product(range(count), repeat=m)),
                      dtype=np.intp).reshape(count**m, m)
    return tuples, np.arange(len(tuples)), np.ones(len(tuples), dtype=np.intp)


@pytest.mark.parametrize("classes, kept", [
    ((0, 0, 0), 20), ((0, 0, 2), 40), ((0, 1, 0), 40), ((0, 1, 1), 40), ((0, 1, 2), 64),
])
def test_orbits_hold_every_tuple_once(classes, kept):
    reps, orbit, sizes = W._orbits(W._PANELS, classes)
    every = _every_panel(W._PANELS, classes)[0]
    assert len(reps) == kept and sizes.sum() == len(every) == 64
    assert np.array_equal(np.bincount(orbit), sizes)
    # a tuple's representative holds its indices sorted within each class
    for label in set(classes):
        axes = [i for i, c in enumerate(classes) if c == label]
        assert np.array_equal(reps[orbit][:, axes], np.sort(every[:, axes], axis=1))
    with pytest.raises(ValueError):
        reps[0, 0] = 1  # shared through the cache


def test_origin_patch_cells_are_one_per_orbit():
    # the cells the patch integrates, and how it scatters them, are those of
    # its own construction before the shared helper, so its cell averages keep
    # their bits: ascending index tuples in lexicographic order
    for count, m in ((5, 1), (4, 2), (3, 3)):
        orbits = list(itertools.combinations_with_replacement(range(count), m))
        where = {cell: k for k, cell in enumerate(orbits)}
        scatter = [where[tuple(sorted(cell))]
                   for cell in itertools.product(range(count), repeat=m)]
        reps, orbit, _ = W._orbits(count, (0,) * m)
        assert reps.tolist() == [list(cell) for cell in orbits]
        assert orbit.tolist() == scatter


def test_a_face_tile_keeps_one_panel_per_orbit(monkeypatch):
    # of the 4^3 Gauss panels of a 4-d face tile, one per permutation orbit of
    # its axes with equal intervals is integrated: 20 with three equal, 40 with
    # two, all 64 with none
    tiles, panels = [], []
    face_tiles, gauss_box = W._face_tiles, W._gauss_box

    def spy_tiles(c, lo, hi):
        out = face_tiles(c, lo, hi)
        tiles.extend(zip(*out))
        return out

    def spy_panels(fn, lo, hi):
        panels.append(len(lo))
        return gauss_box(fn, lo, hi)

    monkeypatch.setattr(W, "_face_tiles", spy_tiles)
    monkeypatch.setattr(W, "_gauss_box", spy_panels)
    kept = {1: 20, 2: 40, 3: 64}  # by the number of distinct intervals of a tile
    family = [(np.array(cube.center) - 0.5, np.array(cube.center) + 0.5)
              for _, cube in default_cube_family(4)]
    seen = set()
    for lo, hi in family + [(np.array([-0.3, -0.5, 0.1, 0.2]), np.array([0.7, 0.4, 0.9, 1.3]))]:
        tiles.clear()
        panels.clear()
        W._box_integral([-1.5, 1.5], lo, hi, 0)
        distinct = [len(set(zip(l.tolist(), h.tolist()))) for l, h in tiles]
        assert sum(panels) == sum(kept[k] for k in distinct)
        seen.update(distinct)
    assert seen == {1, 2, 3}


@st.composite
def _repeated_boxes(draw):
    """Boxes in 3 or 4 dimensions whose axes draw from two intervals, which
    straddle, touch or avoid the origin, so that faces and tiles repeat."""
    d = draw(st.integers(3, 4))
    intervals = []
    for _ in range(2):
        w = draw(st.floats(0.1, 2.0))
        start = draw(st.sampled_from([-0.5, 0.0, 0.3])) * w
        intervals.append((start, start + w))
    axes = draw(st.lists(st.sampled_from(intervals), min_size=d, max_size=d))
    lo, hi = (np.array(side) for side in zip(*axes))
    return lo, hi, draw(st.floats(-(d - 0.05), float(d)))


@settings(max_examples=30, deadline=None)
@given(_repeated_boxes())
def test_orbit_panels_match_the_full_tensor_rule(case):
    lo, hi, p = case
    ps = [p, 1.0, -1.0]
    reduced = W._box_integral(ps, lo, hi, 24)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_orbits", _every_panel)
        full = W._box_integral(ps, lo, hi, 24)
    for (value, truncated), (reference, full_truncated) in zip(reduced, full):
        assert truncated == full_truncated
        assert value == pytest.approx(reference, rel=1e-13)


def test_default_cube_family_takes_460_panels(monkeypatch):
    # 460 panels where every tile's 64 would make 1024
    panels = []
    gauss_box = W._gauss_box

    def spy(fn, lo, hi):
        panels.append(len(lo))
        return gauss_box(fn, lo, hi)

    monkeypatch.setattr(W, "_gauss_box", spy)
    a2_scan([0.6, 1.35, 2.25, 3.15], 4, default_cube_family(4))
    assert sum(panels) == 460
    monkeypatch.setattr(W, "_orbits", _every_panel)
    panels.clear()
    a2_scan([0.6, 1.35, 2.25, 3.15], 4, default_cube_family(4))
    assert sum(panels) == 1024
