"""Region classification, ratio records, dilation fits, and decomposition checks."""

import collections
import gc
import math
import weakref

import numpy as np
import pytest

from morawetz_lab import (
    AccuracyError,
    ConfigurationError,
    DataFamily,
    ElasticPropagator,
    ElasticState,
    GridSpec,
    LameParams,
    Member,
    Region,
    RegionQuery,
    VectorField,
    classify_region,
    compute_ratio,
    decomposition_check,
    frequency_constant_scan,
    helmholtz_split,
    scale_covariance_test,
)
from morawetz_lab.analysis import _BATCH_BYTES
from morawetz_lab.elastic import halfwave_sampler
from morawetz_lab.harness import worker_count
from morawetz_lab.spectral import EVEN, FREE, forward_values, inverse_values
from morawetz_lab.weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    QuadratureConfig,
    WeightSpec,
    weighted_spacetime_norm,
)

from conftest import smooth_random_field


def classify_reference(alpha, s, n, kind):
    """Independent re-statement of the admissible-index predicates."""
    if kind == SPATIAL_POWER:
        on_line = abs(alpha - (1 + 2 * s)) < 1e-12
        return Region.ON_THEOREM1_SEGMENT if (0 < s < (n - 1) / 2 and on_line) else Region.OUTSIDE
    inside = (0.5 < s < (n + 1) / 4) and (1 + 2 * s < alpha < 4 * s)
    return Region.IN_THEOREM2_TRIANGLE if inside else Region.OUTSIDE


class TestClassifyRegion:
    def test_spatial_segment_example(self):
        q = RegionQuery(alpha=2.0, s=0.5, n=3, weight_kind=SPATIAL_POWER)
        assert classify_region(q) == Region.ON_THEOREM1_SEGMENT

    def test_spacetime_triangle_example(self):
        q = RegionQuery(alpha=2.8, s=0.8, n=3, weight_kind=SPACETIME_POWER)
        assert classify_region(q) == Region.IN_THEOREM2_TRIANGLE

    def test_outside_example(self):
        q = RegionQuery(alpha=2.6, s=0.8, n=2, weight_kind=SPATIAL_POWER)
        assert classify_region(q) == Region.OUTSIDE

    def test_property_against_reference(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 4))
            alpha = float(rng.uniform(-0.5, 4.5))
            s = float(rng.uniform(-0.5, 2.0))
            kind = SPATIAL_POWER if rng.random() < 0.5 else SPACETIME_POWER
            if rng.random() < 0.3:
                alpha = 1 + 2 * s  # exercise the segment branch
            q = RegionQuery(alpha=alpha, s=s, n=n, weight_kind=kind)
            assert classify_region(q) == classify_reference(alpha, s, n, kind)


def scalar_gaussian_member(grid, width=1.0, center=None, member_id="probe"):
    if center is None:
        x2 = grid.x_norm() ** 2
    else:
        x2 = sum((grid.x_grids()[i] - center[i]) ** 2 for i in range(grid.dim))
    f = np.exp(-x2 / (2 * width**2)).astype(complex)
    return Member(member_id, f, None, 5.0 * width + (np.linalg.norm(center) if center is not None else 0.0), True)


class TestComputeRatio:
    def test_zero_data_rejected(self):
        g = GridSpec(2, 16, 8.0, 9, 2.0)
        member = Member("void", np.zeros(g.shape, dtype=complex), None, 0.1, True)
        q = RegionQuery(0.0, 0.0, 2, SPATIAL_POWER)
        with pytest.raises(ConfigurationError, match="zero"):
            compute_ratio(member, q, 1.0, g)

    def test_unweighted_unitary_ratio(self):
        # alpha = 0, s = 0: numerator = sqrt(2T) ||f||, so the ratio is sqrt(2T)
        g = GridSpec(2, 64, 12.0, 33, 3.0)
        member = scalar_gaussian_member(g, width=1.0)
        q = RegionQuery(0.0, 0.0, 2, SPATIAL_POWER)
        rec = compute_ratio(member, q, 1.0, g)
        assert rec.ratio == pytest.approx(np.sqrt(2 * g.time_horizon), rel=0.01)
        assert rec.margin > 0
        assert rec.denominator > 0

    def test_elastic_solenoidal_matches_scalar_at_shear_speed(self, rng):
        # matched-velocity solenoidal state: each component evolves as the
        # scalar half-wave at speed sqrt(mu), so the ratios agree up to rounding
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        params = LameParams(0.5, 1.3)
        raw = smooth_random_field(g, rng, width=1.2, mean_zero=True)
        _, f_S = helmholtz_split(raw)
        fam_like = f_S.values * np.exp(-(g.x_norm() ** 2) / 8.0)  # localized
        f_vec = VectorField(g, fam_like)
        _, f_vec_S = helmholtz_split(f_vec)

        # the velocity that turns each Helmholtz part into one outgoing half-wave
        from morawetz_lab.elastic import _split_spectrum

        pot, sol = _split_spectrum(forward_values(f_vec_S.values, g), g)
        G = 1j * g.xi_norm() * (params.shear_speed * sol + params.pressure_speed * pot)
        g_vec = VectorField(g, inverse_values(G, g))
        member_e = Member("el", f_vec_S, g_vec, 5.0, False)
        q = RegionQuery(1.0, 0.5, 2, SPATIAL_POWER)
        rec_e = compute_ratio(member_e, q, params, g)

        # scalar route: the half-wave at speed sqrt(mu) of each component,
        # stacked into one one-way term
        quadc = QuadratureConfig()
        from morawetz_lab.analysis import hs_norm
        from morawetz_lab.elastic import WaveSampler

        stacked = WaveSampler(g, [(params.shear_speed, forward_values(f_vec_S.values, g))])
        num = weighted_spacetime_norm(stacked, WeightSpec(SPATIAL_POWER, 1.0), g, quadc)
        den = hs_norm(f_vec_S, 0.5) + hs_norm(member_e.g, -0.5)
        # the two-way elastic pass against the one-way scalar one, both in double
        assert rec_e.ratio == pytest.approx(num / den, rel=1e-12)

    @staticmethod
    def _count_time_pass(monkeypatch, member, query, propagation, grid, lam=1.0):
        """compute_ratio's ``spectrum`` calls, n-d inverse FFTs and the fields
        they transform, 1-d inverse FFTs, and its block transforms, the
        planes they transform and the points of those planes; every inverse
        transform of a ratio of data at rest is the time pass's."""
        from morawetz_lab import analysis, elastic

        calls = {"spectrum": 0, "ifftn": 0, "fields": 0, "ifft": 0, "block": 0, "planes": 0,
                 "points": 0}
        spectrum, ifftn, ifft = elastic.WaveSampler.spectrum, np.fft.ifftn, np.fft.ifft
        block = analysis.block_transform

        def counted_spectrum(self, t, out=None):
            calls["spectrum"] += 1
            return spectrum(self, t, out)

        def counted_ifftn(a, *args, **kwargs):
            calls["ifftn"] += 1
            calls["fields"] += a.size // grid.mode_count
            return ifftn(a, *args, **kwargs)

        def counted_ifft(a, *args, **kwargs):
            calls["ifft"] += 1
            return ifft(a, *args, **kwargs)

        def counted_block(planes, matrices, work, g):
            calls["block"] += 1
            calls["planes"] += planes.size // math.prod(planes.shape[-g.dim:])
            calls["points"] += planes.size
            return block(planes, matrices, work, g)

        monkeypatch.setattr(elastic.WaveSampler, "spectrum", counted_spectrum)
        monkeypatch.setattr(np.fft, "ifftn", counted_ifftn)
        monkeypatch.setattr(np.fft, "ifft", counted_ifft)
        monkeypatch.setattr(analysis, "block_transform", counted_block)
        rec = compute_ratio(member, query, propagation, grid, lam=lam)
        assert rec.numerator > 0
        return calls

    def test_scan_ratio_3d_folds_its_time_pass(self, monkeypatch):
        # the key 3-d scan: real Gaussian data is time-even, so the norm loop
        # takes the spectrum of 27 of the 53 time nodes per lambda; radial
        # data are even in every axis, so it transforms only the 33^3 points
        # of the block, its real and imaginary planes, by the block
        # transform, and the full 64^3 grid never; the data's coefficients
        # and norm come from the block too, with one evenness check and no
        # forward FFT
        from morawetz_lab import elastic

        grid = GridSpec(3, 64, 16.0, 53, 6.5)
        member = DataFamily(kind="gaussian", width=0.9).member(grid, lam=2.0)
        q = RegionQuery(2.0, 0.5, 3, SPACETIME_POWER)
        seen = {"fftn": 0, "is_even": 0}
        fftn, is_even = np.fft.fftn, elastic._is_even

        def counted_fftn(*args, **kwargs):
            seen["fftn"] += 1
            return fftn(*args, **kwargs)

        def counted_is_even(*args):
            seen["is_even"] += 1
            return is_even(*args)

        monkeypatch.setattr(np.fft, "fftn", counted_fftn)
        monkeypatch.setattr(elastic, "_is_even", counted_is_even)
        calls = self._count_time_pass(monkeypatch, member, q, 1.0, grid, lam=2.0)
        # one node's planes fill the pass's batch, so each node is one transform
        assert calls == {"spectrum": 27, "ifftn": 0, "fields": 0, "ifft": 0,
                         "block": 27, "planes": 54, "points": 54 * 33**3}
        assert seen == {"fftn": 0, "is_even": 1}

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_elastic_2d_takes_the_block_pass(self, monkeypatch, lam):
        # the elastic scan: the Helmholtz parts of radial data at rest have a
        # parity in every axis, component 0 even in both and component 1 odd
        # in both, and real coefficients, so each of the 49 of 97 nodes
        # transforms one real 65^2 plane per component, and no full field
        grid = GridSpec(2, 128, 20.0, 97, 6.0)
        member = DataFamily(kind="gaussian", width=0.75, scalar=False).member(grid, lam)
        prop = ElasticPropagator(ElasticState(member.f, member.g), LameParams(1.0, 1.0))
        assert prop.signature.tolist() == [[False, False], [True, True]]
        assert prop.out_shape == (2, 65, 65)
        q = RegionQuery(1.6, 0.3, 2, SPATIAL_POWER)
        calls = self._count_time_pass(monkeypatch, member, q, LameParams(1.0, 1.0), grid, lam)
        # the pass transforms as many nodes at once as its batch holds
        transforms = math.ceil(49 / (_BATCH_BYTES // (8 * 2 * 65**2)))
        assert calls == {"spectrum": 49, "ifftn": 0, "fields": 0, "ifft": 0,
                         "block": transforms, "planes": 98, "points": 98 * 65**2}

    @pytest.mark.parametrize(
        "dim, family, free, planes",
        [
            # three real components with a parity in every axis: one real
            # plane each, on the even block
            (3, DataFamily(kind="gaussian", width=1.2, scalar=False), (), 3),
            # real data with 4e-3 of their spectrum on the Nyquist planes:
            # every axis free, real and imaginary planes of the lattice
            (3, DataFamily(kind="gaussian", width=0.8, scalar=False), (0, 1, 2), 6),
            # complex data with a carrier along the first axis: that axis
            # free, real and imaginary planes; at width 0.8 the odd
            # components' Nyquist planes free the other axis too
            (2, DataFamily(kind="modulated", width=0.8, carrier=1.0, scalar=False), (0, 1), 4),
            (3, DataFamily(kind="modulated", width=1.2, carrier=1.0, scalar=False), (0,), 6),
        ],
        ids=["3d-real", "3d-real-unresolved", "2d-complex", "3d-complex"],
    )
    def test_elastic_time_pass_fields_per_node(self, monkeypatch, dim, family, free, planes):
        # every node's planes are transformed on the block of the free axes
        # (32 points there, 17 on a signed axis), as many nodes at once as
        # the batch holds, with one 1-d FFT per free axis and no n-d FFT
        grid = GridSpec(dim, 32, 12.0, 17, 2.0)
        q = RegionQuery(1.5, 0.25, dim, SPATIAL_POWER)
        member = family.member(grid)
        calls = self._count_time_pass(monkeypatch, member, q, LameParams(1.0, 1.0), grid)
        points = math.prod(32 if i in free else 17 for i in range(dim))
        transforms = math.ceil(9 / min(9, max(1, _BATCH_BYTES // (8 * planes * points))))
        assert calls == {"spectrum": 9, "ifftn": 0, "fields": 0,
                         "ifft": transforms * len(free), "block": transforms,
                         "planes": 9 * planes, "points": 9 * planes * points}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, then inf - inf
    def test_non_finite_result_is_an_accuracy_error(self):
        # the pass runs in double for even data (the even block) and for
        # shifted data (every axis free): data of size 1e160 overflow its
        # squares, data of size 1e40 keep the probe's ratio
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        q = RegionQuery(1.0, 0.5, 2, SPATIAL_POWER)
        for center, even in ((None, True), ((4 * g.dx, 0.0), False)):
            probe = scalar_gaussian_member(g, 0.8, center=center)
            base = compute_ratio(probe, q, 1.0, g).ratio
            assert np.isfinite(base)
            member = Member("huge", 1e160 * probe.f, None, probe.support_radius, True)
            with pytest.raises(AccuracyError, match="not finite"):
                compute_ratio(member, q, 1.0, g)
            member = Member("large", 1e40 * probe.f, None, probe.support_radius, True)
            assert halfwave_sampler(member.f, g, 1.0).even is even
            assert compute_ratio(member, q, 1.0, g).ratio == pytest.approx(base, rel=1e-12)

    def test_translation_invariance_unweighted(self):
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        q = RegionQuery(0.0, 0.5, 2, SPATIAL_POWER)
        base = compute_ratio(scalar_gaussian_member(g, 0.8), q, 1.0, g)
        shift = 4 * g.dx
        moved = compute_ratio(
            scalar_gaussian_member(g, 0.8, center=(shift, 0.0)), q, 1.0, g
        )
        assert moved.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_translation_decreases_singular_numerator(self):
        g = GridSpec(2, 64, 14.0, 17, 2.0)
        q = RegionQuery(1.5, 0.5, 2, SPATIAL_POWER)
        nums = []
        for offset in (0.0, 1.0, 2.0):
            member = scalar_gaussian_member(g, 0.8, center=(offset, 0.0))
            nums.append(compute_ratio(member, q, 1.0, g).numerator)
        assert nums[0] > nums[1] > nums[2]

    def test_scalar_mode_rejects_velocity_data(self):
        g = GridSpec(2, 16, 8.0, 9, 2.0)
        f = np.exp(-g.x_norm() ** 2).astype(complex)
        member = Member("bad", f, f.copy(), 5.0, True)
        with pytest.raises(ConfigurationError, match="half-wave"):
            compute_ratio(member, RegionQuery(0.0, 0.0, 2, SPATIAL_POWER), 1.0, g)

    def test_margin_violation_rejected(self):
        g = GridSpec(2, 16, 4.0, 9, 3.9)
        member = scalar_gaussian_member(g, 1.0)
        with pytest.raises(ConfigurationError, match="margin"):
            compute_ratio(member, RegionQuery(0.0, 0.0, 2, SPATIAL_POWER), 1.0, g)


class TestScaleCovariance:
    def test_degenerate_lambda_list_rejected(self):
        g = GridSpec(2, 32, 10.0, 9, 2.0)
        fam = DataFamily(kind="gaussian", width=0.5)
        with pytest.raises(ConfigurationError, match="two distinct"):
            scale_covariance_test(fam, RegionQuery(1.0, 0.5, 2, SPATIAL_POWER), g, lambdas=(1.0,))

    def test_margin_violations_dropped_and_reported(self):
        g = GridSpec(2, 32, 10.0, 9, 4.0)
        fam = DataFamily(kind="gaussian", width=0.7)  # lam=1/4 support 14 > margin
        res = scale_covariance_test(
            fam, RegionQuery(1.0, 0.5, 2, SPATIAL_POWER), g, lambdas=(0.25, 1.0, 2.0)
        )
        assert res.dropped and res.dropped[0][0] == 0.25
        assert [r.lam for r in res.records] == [1.0, 2.0]

    def test_slope_matches_dilation_exponent_small_grid(self):
        g = GridSpec(2, 64, 12.0, 49, 6.0)
        fam = DataFamily(kind="gaussian", width=0.6)
        q = RegionQuery(1.5, 0.25, 2, SPATIAL_POWER)  # interior alpha
        res = scale_covariance_test(fam, q, g)
        assert res.target == pytest.approx(0.0)
        assert res.slope == pytest.approx(res.target, abs=0.1)
        assert res.stderr >= 0.0


class TestFrequencyScan:
    def test_unweighted_constants_flat(self):
        g = GridSpec(2, 64, 12.0, 33, 4.0)
        res = frequency_constant_scan((0, 1), RegionQuery(0.0, 0.5, 2, SPACETIME_POWER), g)
        assert res.constants[0] == pytest.approx(np.sqrt(2 * g.time_horizon), rel=1e-6)
        assert res.slope == pytest.approx(0.0, abs=1e-6)

    def test_probes_are_band_localized(self):
        g = GridSpec(2, 64, 12.0, 9, 2.0)
        fam = DataFamily(kind="modulated", width=2.0, carrier=1.0, level=0)
        member = fam.member(g, lam=2.0)  # level 1 probe
        F = forward_values(member.f, g)
        xin = g.xi_norm()
        outside = (xin < 1.0 - 1e-9) | (xin > 4.0 + 1e-9)
        assert np.max(np.abs(F[outside])) < 1e-12 * np.max(np.abs(F))

    def test_each_probe_folds_its_time_pass(self, monkeypatch):
        # the probes' coefficients are real to rounding, so each of the six
        # (level, probe) passes on the freq_scan_2t grid takes the spectrum
        # at the 33 nodes with t >= 0 of its 65, on the block of its parities
        from morawetz_lab import elastic

        seen, other, spectrum = [], [], elastic.WaveSampler.spectrum

        def counted_spectrum(self, t, out=None):
            # keeps each sampler, so its id stays its own
            (seen if out is not None else other).append((self, t))
            return spectrum(self, t, out)

        monkeypatch.setattr(elastic.WaveSampler, "spectrum", counted_spectrum)
        g = GridSpec(2, 128, 20.0, 65, 8.0)
        res = frequency_constant_scan((0, 1, 2), RegionQuery(2.25, 0.625, 2, SPACETIME_POWER), g)
        assert len(res.per_probe) == 3 and all(len(v) == 2 for v in res.per_probe)
        assert all(sampler.time_even for sampler, _ in seen)
        counts = collections.Counter(id(sampler) for sampler, _ in seen)
        assert len(seen) == 198 and sorted(counts.values()) == [33] * 6 and not other
        # even in the second axis, free in the carrier's: a 128 x 65 block
        assert all(s.signature.tolist() == [[FREE, EVEN]] and s.out_shape == (2, 128, 65)
                   for s, _ in seen)

    @pytest.mark.parametrize("grid, levels, alpha, constants", [
        (GridSpec(2, 64, 14.0, 33, 5.0), (0, 1), 2.0,
         (1.2325262178112215, 1.7995465626218972)),
        (GridSpec(2, 128, 20.0, 65, 8.0), (0, 1, 2), 2.25,
         (1.251622187548466, 1.9501541132138123, 3.008874717498231)),
    ], ids=["report", "freq_scan_2t"])
    def test_constants_are_pinned(self, grid, levels, alpha, constants):
        # the constants of ``report`` and of the benchmark's scan at one
        # exponent, as the double-precision pass gives them
        query = RegionQuery(alpha, (alpha - 1.0) / 2.0, 2, SPACETIME_POWER)
        res = frequency_constant_scan(levels, query, grid)
        assert res.constants == pytest.approx(constants, rel=1e-12, abs=0.0)

    def test_reference_exponent_reported_not_asserted(self):
        g = GridSpec(2, 64, 12.0, 17, 3.0)
        q = RegionQuery(2.5, 0.9375, 2, SPACETIME_POWER)  # p = 3/(4 s) = 0.8
        res = frequency_constant_scan((0, 1), q, g)
        assert res.reference_exponent == pytest.approx(0.9375)
        assert res.implied_p == pytest.approx((2 + 1) / (4 * 0.9375))
        assert res.lemma_range_ok in (True, False)
        assert res.dilation_target == pytest.approx((2.5 - 1) / 2)


class TestDecomposition:
    def test_solenoidal_state(self, rng):
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        params = LameParams(1.0, 1.0)
        raw = smooth_random_field(g, rng, width=1.0, mean_zero=True)
        envelope = np.exp(-(g.x_norm() ** 2) / 8.0)
        f = VectorField(g, raw.values * envelope)
        _, f_S = helmholtz_split(f)
        gv = VectorField(g, np.zeros_like(f.values))
        state = ElasticState(f_S, gv)
        from morawetz_lab.analysis import hs_norm

        fp, _ = helmholtz_split(f_S)
        assert hs_norm(fp, 0.5) < 1e-10 * hs_norm(f_S, 0.5)

    def test_pythagoras_and_triangle(self, rng):
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        params = LameParams(0.8, 1.1)
        raw = smooth_random_field(g, rng, width=1.0)
        envelope = np.exp(-(g.x_norm() ** 2) / 8.0)
        f = VectorField(g, raw.values * envelope)
        rawg = smooth_random_field(g, rng, width=1.0, mean_zero=True)
        gv = VectorField(g, rawg.values * envelope)
        gv = VectorField(g, gv.values - gv.values.reshape(2, -1).mean(axis=1).reshape(2, 1, 1))
        state = ElasticState(f, gv)
        q = RegionQuery(1.0, 0.5, 2, SPATIAL_POWER)
        check = decomposition_check(state, params, q, g)
        assert check.hs_pythagoras_gap < 1e-12
        assert check.triangle_slack >= -1e-12
        assert check.ratio_solenoidal > 0 and check.ratio_potential > 0

    @pytest.mark.parametrize("at_rest", [True, False], ids=["at_rest", "moving"])
    def test_one_split_matches_the_round_trip(self, at_rest, rng, monkeypatch):
        # each nonzero field is transformed once and split on its
        # coefficients; the norms are those of the parts taken through
        # physical space and propagated one by one
        from morawetz_lab import analysis, elastic, harness
        from morawetz_lab.analysis import hs_norm

        g = GridSpec(2, 32, 12.0, 17, 3.0)
        params = LameParams(0.8, 1.1)
        envelope = np.exp(-(g.x_norm() ** 2) / 8.0)
        f = VectorField(g, smooth_random_field(g, rng).values * envelope)
        gv = VectorField(g, smooth_random_field(g, rng, mean_zero=True).values * envelope)
        gv = VectorField(g, 0 * gv.values if at_rest else
                         gv.values - gv.values.reshape(2, -1).mean(axis=1).reshape(2, 1, 1))
        state = ElasticState(f, gv)
        q = RegionQuery(1.5, 0.5, 2, SPACETIME_POWER)

        calls = collections.Counter()
        for module in (analysis, elastic, harness):
            for name in ("forward_values", "inverse_values"):
                def counted(values, grid, fn=getattr(module, name), name=name):
                    calls[name] += 1
                    return fn(values, grid)

                monkeypatch.setattr(module, name, counted)
        check = decomposition_check(state, params, q, g)
        assert calls == {"forward_values": 1 if at_rest else 2}
        monkeypatch.undo()

        quad, weight = QuadratureConfig(), WeightSpec(q.weight_kind, q.alpha)
        (f_P, f_S), (g_P, g_S) = helmholtz_split(f), helmholtz_split(gv)
        full, sol, pot = (weighted_spacetime_norm(ElasticPropagator(st, params), weight, g, quad)
                          for st in (state, ElasticState(f_S, g_S), ElasticState(f_P, g_P)))
        den = hs_norm(f, q.s) + hs_norm(gv, q.s - 1.0)
        assert check.ratio_solenoidal == pytest.approx(sol / den, rel=1e-12, abs=0)
        assert check.ratio_potential == pytest.approx(pot / den, rel=1e-12, abs=0)
        assert abs(check.triangle_slack - (sol + pot - full)) <= 1e-12 * full
        assert check.hs_pythagoras_gap < 1e-14


class TestInfrastructure:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "0")
        with pytest.raises(ConfigurationError):
            worker_count()
        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "many")
        with pytest.raises(ConfigurationError):
            worker_count()

    def test_parallel_matches_serial(self, monkeypatch):
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        fam = DataFamily(kind="gaussian", width=0.6)
        q = RegionQuery(1.5, 0.25, 2, SPATIAL_POWER)
        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "1")
        serial = scale_covariance_test(fam, q, g)
        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "4")
        parallel = scale_covariance_test(fam, q, g)
        assert serial == parallel  # byte-identical records, scheduler-independent

    def test_pool_workers_share_one_weight_build(self, monkeypatch):
        from morawetz_lab import weights

        monkeypatch.setenv("MORAWETZ_LAB_THREADS", "2")
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        q = RegionQuery(2.2, 0.6, 2, SPACETIME_POWER)
        weights._spacetime_ring_patch.cache_clear()
        frequency_constant_scan((0, 1), q, g)
        assert weights._spacetime_ring_patch.cache_info().misses == 1
        weights._spatial_weight_array.cache_clear()
        fam = DataFamily(kind="gaussian", width=0.6)
        scale_covariance_test(fam, RegionQuery(1.5, 0.25, 2, SPATIAL_POWER), g)
        assert weights._spatial_weight_array.cache_info().misses == 1

    def test_experiments_keep_no_grid_alive(self):
        # every cache is keyed on scalars or memoised on the grid itself, so a
        # grid is freed with its experiments' results
        g = GridSpec(2, 32, 12.0, 17, 3.0)
        fam = DataFamily(kind="gaussian", width=0.6)
        results = [scale_covariance_test(fam, RegionQuery(1.5, 0.25, 2, SPATIAL_POWER), g),
                   scale_covariance_test(fam, RegionQuery(2.2, 0.6, 2, SPACETIME_POWER), g),
                   frequency_constant_scan((0, 1), RegionQuery(2.3, 0.65, 2, SPACETIME_POWER), g)]
        alive = weakref.ref(g)
        del g, results
        gc.collect()
        assert alive() is None

    def test_time_sampling_drift_small(self):
        # halving the time sampling moves the weighted norm by less than 0.5%
        norms = []
        for samples in (33, 17):
            g = GridSpec(2, 32, 12.0, samples, 3.0)
            prof = np.exp(-(g.x_norm() ** 2)).astype(complex)
            norms.append(weighted_spacetime_norm(halfwave_sampler(prof, g, 1.0),
                                                 WeightSpec(SPATIAL_POWER, 1.0), g))
        assert abs(norms[0] - norms[1]) / norms[0] < 5e-3

    def test_family_validation(self):
        with pytest.raises(ConfigurationError):
            DataFamily(kind="bump")
        with pytest.raises(ConfigurationError):
            DataFamily(kind="modulated", width=1.0, carrier=0.0)

    def test_band_localized_member_needs_dyadic_lambda(self):
        g = GridSpec(2, 32, 10.0, 9, 2.0)
        fam = DataFamily(kind="modulated", width=2.0, carrier=1.0, level=0)
        with pytest.raises(ConfigurationError):
            fam.member(g, lam=3.0)
