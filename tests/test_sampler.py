"""The one time sampler: recurrence against direct evaluation, energy, transforms,
and the folded time pass of time-even flows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morawetz_lab import (
    DataFamily,
    ElasticPropagator,
    ElasticState,
    GridSpec,
    LameParams,
    VectorField,
)
from morawetz_lab.analysis import local_smoothing_functional
from morawetz_lab.elastic import (
    WaveSampler,
    _split_spectrum,
    elastic_energy,
    halfwave_sampler,
)
from morawetz_lab.errors import ShapeError
from morawetz_lab.spectral import EVEN, FREE, ODD, forward_values, inverse_values
from morawetz_lab.weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    WeightSpec,
    weighted_spacetime_norm,
)

from spectral_oracle import local_smoothing_oracle, weighted_norm_oracle

REL = 1e-12


@st.composite
def _grids(draw, dims=(2, 3)):
    """Grids of both dimensions with odd and even numbers of time nodes."""
    return GridSpec(
        dim=draw(st.sampled_from(dims)),
        points_per_axis=draw(st.sampled_from([8, 16, 32])),
        half_width=draw(st.floats(4.0, 12.0)),
        time_samples=draw(st.integers(2, 12)),
        time_horizon=draw(st.floats(0.25, 4.0)),
    )


def _schedule(draw, grid: GridSpec) -> list[float]:
    """An ascending pass, the nodes out of order, off-grid times, another pass."""
    nodes = [float(t) for t in grid.time_nodes()]
    T = grid.time_horizon
    shuffled = draw(st.permutations(nodes))
    off_grid = draw(st.lists(st.floats(-T, T), min_size=1, max_size=3))
    return nodes + shuffled + off_grid + nodes


def _white(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _even_data(grid: GridSpec, rng, real: bool = False) -> np.ndarray:
    """Samples whose coefficients are white on the block and even in every
    axis: real-valued for real ones (a real even spectrum)."""
    block = rng.standard_normal(grid.even_shape) if real else _white(rng, grid.even_shape)
    f = inverse_values(grid.unfold(block), grid)
    return f.real.astype(np.complex128) if real else f


def _odd_in_axis(grid: GridSpec, rng, axis: int) -> np.ndarray:
    """Samples whose coefficients are odd in one axis, ``W - R_axis W``."""
    W = _white(rng, grid.shape)
    return inverse_values(W - np.roll(np.flip(W, axis), 1, axis), grid)


def _close(got: np.ndarray, want: np.ndarray, scale: float | None = None) -> bool:
    """Within REL of ``want``'s norm, or of ``scale`` where ``want`` may vanish."""
    return np.linalg.norm(got - want) <= REL * (np.linalg.norm(want) if scale is None else scale)


@settings(max_examples=25, deadline=None)
@given(st.data(), _grids(), st.floats(0.1, 3.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_halfwave_recurrence_matches_direct(data, grid, c, even, seed):
    # even data keep their state on the block; spectrum, rate and samples
    # still come back on the full lattice
    rng = np.random.default_rng(seed)
    f = _even_data(grid, rng) if even else _white(rng, grid.shape)
    F = forward_values(f, grid)
    sampler = halfwave_sampler(f, grid, c)
    assert sampler.even is even
    for t in _schedule(data.draw, grid):
        coeffs = np.exp(1j * t * c * grid.xi_norm()) * F
        assert _close(sampler.spectrum(t), coeffs), t
        assert _close(sampler.rate(t), 1j * c * grid.xi_norm() * coeffs), t
        assert _close(sampler(t), inverse_values(coeffs, grid)), t


def _lame(ratio: float, mu: float) -> LameParams:
    return LameParams(lam=ratio * mu, mu=mu)  # lambda + 2 mu = mu (ratio + 2) > 0


def _elastic_state(grid: GridSpec, rng) -> ElasticState:
    shape = (grid.dim,) + grid.shape
    g = _white(rng, shape)
    g -= g.reshape(grid.dim, -1).mean(axis=1).reshape((grid.dim,) + (1,) * grid.dim)
    return ElasticState(VectorField(grid, _white(rng, shape)), VectorField(grid, g))


def _random_state(grid: GridSpec, rng, at_rest: bool, resolved: bool = True,
                  real: bool = True) -> ElasticState:
    """Real or complex data, at rest or with a mean-zero velocity.  Resolved
    data carry below 4e-6 of their spectrum on the Nyquist planes, white data
    as much as anywhere else."""
    shape = (grid.dim,) + grid.shape
    envelope = np.exp(-12.5 * (grid.xi_norm() / grid.xi_max) ** 2) if resolved else 1.0

    def draw():
        white = rng.standard_normal(shape)
        if not real:
            white = white + 1j * rng.standard_normal(shape)
        values = inverse_values(envelope * forward_values(white, grid), grid)
        return values.real if real else values

    g = np.zeros(shape)
    if not at_rest:
        g = draw()
        g -= g.reshape(grid.dim, -1).mean(axis=1).reshape((grid.dim,) + (1,) * grid.dim)
    return ElasticState(VectorField(grid, draw()), VectorField(grid, g))


def _elastic_direct(state: ElasticState, params: LameParams, t: float):
    """cos(w t) f + sin(w t)/w g per Helmholtz part, and its t-derivative."""
    grid = state.grid
    fP, fQ = _split_spectrum(forward_values(state.f.values, grid), grid)
    gP, gQ = _split_spectrum(forward_values(state.g.values, grid), grid)
    xin = grid.xi_norm()
    u, v = 0.0, 0.0
    for c, f, g in ((params.shear_speed, fQ, gQ), (params.pressure_speed, fP, gP)):
        w = c * xin
        safe = np.where(w > 0, w, 1.0)
        u = u + np.cos(w * t) * f + np.where(w > 0, np.sin(w * t) / safe, t) * g
        v = v - w * np.sin(w * t) * f + np.cos(w * t) * g
    return inverse_values(u, grid), inverse_values(v, grid)


@settings(max_examples=20, deadline=None)
@given(st.data(), _grids(), st.floats(-1.9, 4.0), st.floats(0.1, 3.0),
       st.integers(0, 2**32 - 1))
def test_elastic_recurrence_matches_direct(data, grid, ratio, mu, seed):
    params = _lame(ratio, mu)
    state = _elastic_state(grid, np.random.default_rng(seed))
    prop = ElasticPropagator(state, params)
    for t in _schedule(data.draw, grid):
        u, v = prop.pair(t)
        u_direct, v_direct = _elastic_direct(state, params, t)
        assert _close(u.values, u_direct), t
        assert _close(v.values, v_direct), t


@settings(max_examples=20, deadline=None)
@given(_grids(), st.floats(-1.9, 4.0), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1))
def test_elastic_energy_conserved_over_a_pass(grid, ratio, mu, seed):
    params = _lame(ratio, mu)
    state = _elastic_state(grid, np.random.default_rng(seed))
    prop = ElasticPropagator(state, params)
    e0 = elastic_energy(state.f, state.g, params)
    for t in grid.time_nodes():
        assert abs(elastic_energy(*prop.pair(t), params) - e0) <= REL * e0


def _lattice_spectrum(buf: np.ndarray, components: int) -> np.ndarray:
    """The complex spectrum held in the planes of a sampler whose every axis
    is free: real parts, then imaginary parts."""
    return buf[:components] + 1j * buf[components:]


@settings(max_examples=20, deadline=None)
@given(_grids(), st.floats(-1.9, 4.0), st.floats(0.1, 3.0), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_spectrum_planes_match_double(grid, ratio, mu, at_rest, real, seed):
    # data with no parity: every axis free, the planes of the whole lattice,
    # filled in double precision; without ``out`` the spectrum is those
    # planes combined, on a second sampler of the same pass
    params = _lame(ratio, mu)
    rng = np.random.default_rng(seed)
    state = _random_state(grid, rng, at_rest) if real else _elastic_state(grid, rng)
    if at_rest and not real:
        state = ElasticState(state.f, VectorField(grid, np.zeros_like(state.g.values)))
    planes, double = ElasticPropagator(state, params), ElasticPropagator(state, params)
    assert np.all(planes.signature == FREE)
    assert planes.out_shape == (2 * grid.dim,) + grid.shape
    buf = np.empty(planes.out_shape)
    for t in grid.time_nodes():
        got = _lattice_spectrum(planes.spectrum(t, out=buf), grid.dim)
        np.testing.assert_array_equal(double.spectrum(t), got)
        u_direct, _ = _elastic_direct(state, params, t)
        assert _close(inverse_values(got, grid), u_direct), t


def test_spectrum_rejects_a_buffer_of_the_wrong_shape():
    # real data without a parity take the real and imaginary planes of the
    # whole lattice per component; a signed sampler takes planes of the
    # block, not the full lattice
    grid = GridSpec(2, 16, 6.0, 9, 2.0)
    prop = ElasticPropagator(_random_state(grid, np.random.default_rng(2), False), _lame(1.0, 1.0))
    assert np.all(prop.signature == FREE) and prop.out_shape == (4,) + grid.shape
    with pytest.raises(ShapeError):
        prop.spectrum(0.5, out=np.empty((2,) + grid.shape))
    signed = halfwave_sampler(np.exp(-grid.x_norm() ** 2 / 2), grid, 1.0)
    assert signed.out_shape == (2,) + grid.even_shape  # real and imaginary planes
    with pytest.raises(ShapeError):
        signed.spectrum(0.5, out=np.empty(signed.shape))


@pytest.mark.parametrize("dim", [2, 3])
def test_real_data_with_nyquist_content_matches_the_oracle(dim):
    """On the planes m_i = -N/2 the projector P(xi) is not even in the mode
    index, so real white data give a displacement with an imaginary part of
    several percent: every axis is free, and the norm of the pass,
    ``|Im u|^2`` included, matches the physical-order oracle."""
    grid = GridSpec(dim, 16, 6.0, 9, 2.0)
    weight = WeightSpec(SPATIAL_POWER, 1.0)
    for at_rest in (True, False):
        state = _random_state(grid, np.random.default_rng(4), at_rest, resolved=False)
        prop = ElasticPropagator(state, _lame(1.0, 1.0))
        u = prop(0.7).values
        assert np.linalg.norm(u.imag) > 1e-2 * np.linalg.norm(u)
        assert np.all(prop.signature == FREE) and prop.out_shape == (2 * dim,) + grid.shape
        got = weighted_spacetime_norm(prop, weight, grid)
        want = weighted_norm_oracle(ElasticPropagator(state, _lame(1.0, 1.0)), weight, grid)
        assert abs(got - want) <= 1e-13 * want, (got, want)


@pytest.mark.parametrize("grid", [GridSpec(2, 128, 20.0, 33, 6.0), GridSpec(3, 32, 8.0, 17, 4.0)],
                         ids=["2d", "3d"])
def test_free_spectrum_allocates_no_field(grid):
    """A two-way pass with every axis free writes into its buffers, for real
    data and complex ones: after the first call, the traced peak stays below
    one ``complex128`` field."""
    import tracemalloc

    rng = np.random.default_rng(5)
    for real, state in ((False, _elastic_state(grid, rng)),
                        (True, _random_state(grid, rng, False))):
        sampler = ElasticPropagator(state, _lame(1.0, 1.0))
        assert sampler.out_shape == (2 * grid.dim,) + grid.shape
        buf = np.empty(sampler.out_shape)
        nodes = grid.time_nodes()
        sampler.spectrum(nodes[0], out=buf)  # evaluates exp, builds the planes of the parts
        sampler.spectrum(nodes[1], out=buf)  # builds the recurrence steps
        field = np.empty(sampler.shape, np.complex128).nbytes
        tracemalloc.start()
        try:
            for t in nodes[2:]:
                sampler.spectrum(t, out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field, (real, peak, field)


def test_at_rest_propagator_has_no_sine_part_or_drift():
    grid = GridSpec(2, 16, 6.0, 9, 2.0)
    state = _elastic_state(grid, np.random.default_rng(3))
    at_rest = ElasticState(state.f, VectorField(grid, np.zeros_like(state.g.values)))
    rest = ElasticPropagator(at_rest, _lame(1.0, 1.0))
    assert isinstance(rest, WaveSampler) and not hasattr(rest, "_sampler")
    assert rest.time_even
    assert rest._drift is None
    assert all(Q is None for _, _, Q, _ in rest._terms)
    moving = ElasticPropagator(state, _lame(1.0, 1.0))
    assert not moving.time_even and moving._drift is not None
    assert all(Q is not None for _, _, Q, _ in moving._terms)


def _dft_matrix(grid: GridSpec) -> np.ndarray:
    """e^{-i x_j . xi_m} over all (mode m, point j), modes in FFT storage order."""
    axes = np.meshgrid(*([grid.mode_axis] * grid.dim), indexing="ij")
    xi = np.stack([m.ravel() for m in axes], axis=-1) * grid.dxi
    x = np.stack([x.ravel() for x in grid.x_grids()], axis=-1)
    return np.exp(-1j * (xi @ x.T))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(0.5, 20.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_shifted_transforms_match_docstring_dft(dim, half_width, vector, seed):
    grid = GridSpec(dim, 8, half_width)
    rng = np.random.default_rng(seed)
    shape = ((dim,) if vector else ()) + grid.shape
    f, fhat = _white(rng, shape), _white(rng, shape)
    lead = shape[: len(shape) - dim]
    K = _dft_matrix(grid)
    forward = grid.dx**dim * (f.reshape(lead + (-1,)) @ K.T)
    inverse = (grid.dxi / (2 * np.pi)) ** dim * (fhat.reshape(lead + (-1,)) @ K.conj())
    assert _close(forward_values(f, grid), forward.reshape(shape))
    assert _close(inverse_values(fhat, grid), inverse.reshape(shape))


@settings(max_examples=10, deadline=None)
@given(_grids(), st.integers(0, 2**32 - 1))
def test_sampler_leaves_grid_memos_untouched(grid, seed):
    rng = np.random.default_rng(seed)
    grid.xi_norm(), grid.x_norm(), grid.trapezoid_weights()  # fill the memos
    before = {key: arr.copy() for key, arr in grid._cache.items()}
    sampler = halfwave_sampler(_white(rng, grid.shape), grid, 1.0)
    prop = ElasticPropagator(_elastic_state(grid, rng), LameParams(1.0, 1.0))
    for t in grid.time_nodes():
        sampler(t)
        prop.pair(t)
        for s in (sampler, prop):  # the returned spectrum is the caller's own
            u = s.spectrum(t)
            want = u.copy()
            u[...] = np.nan
            np.testing.assert_array_equal(s.spectrum(t), want)
    for key, arr in before.items():
        assert not grid._cache[key].flags.writeable, key
        np.testing.assert_array_equal(grid._cache[key], arr)



class _Counted:
    """A sampler's calls, counted; its ``time_even`` fact is passed on."""

    def __init__(self, sampler):
        self.sampler, self.calls = sampler, 0
        self.time_even = sampler.time_even

    def __call__(self, t):
        self.calls += 1
        return self.sampler(t)


ACCUMULATORS = (SPATIAL_POWER, SPACETIME_POWER, "local_smoothing")


def _accumulator(kind: str, u: float, grid: GridSpec):
    """One of the two weighted norms, exponent drawn from ``u`` in (0, 1), or
    the local-smoothing functional."""
    if kind == "local_smoothing":
        return lambda v: local_smoothing_functional(v, grid)
    weight = {
        SPATIAL_POWER: WeightSpec(SPATIAL_POWER, u * grid.dim),
        SPACETIME_POWER: WeightSpec(SPACETIME_POWER, u * (grid.dim + 1)),
    }[kind]
    return lambda v: weighted_spacetime_norm(v, weight, grid)


def _fold_cases(kind: str, u: float, grid: GridSpec, make_sampler, even: bool) -> None:
    """At M and M + 1 time nodes (one odd, one even): the folded pass against
    the full pass of the same sampler behind a plain lambda, and the calls."""
    for M in (grid.time_samples, grid.time_samples + 1):
        g = replace(grid, time_samples=M)
        accumulate, sampler = _accumulator(kind, u, g), make_sampler(g)
        counted = _Counted(sampler)
        assert counted.time_even is even
        value = accumulate(counted)
        assert counted.calls == ((M + 1) // 2 if even else M)
        full = accumulate(lambda t: sampler(t))  # a plain callable hides the fact
        assert abs(value - full) <= 1e-13 * full, (M, value, full)


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=5, deadline=None)
@given(data=st.data(), u=st.floats(0.1, 0.9), c=st.floats(0.1, 3.0), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_halfwave_fold_matches_full_pass(kind, dim, data, u, c, real, seed):
    grid = data.draw(_grids([dim]))
    f = _white(np.random.default_rng(seed), grid.shape)
    if real:
        f = f.real.astype(np.complex128)  # real values in a complex array still fold
    _fold_cases(kind, u, grid, lambda g: halfwave_sampler(f, g, c), real)


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=5, deadline=None)
@given(data=st.data(), u=st.floats(0.1, 0.9), c=st.floats(0.1, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_halfwave_fold_of_real_coefficients_matches_full_pass(kind, dim, data, u, c, seed):
    # complex samples whose coefficients are real white noise: the density
    # at -t is the one at t reflected through the origin, and every weight
    # and ball mask is even in x, so the pass still folds
    grid = data.draw(_grids([dim]))
    F = np.random.default_rng(seed).standard_normal(grid.shape)
    _fold_cases(kind, u, grid, lambda g: halfwave_sampler(inverse_values(F, g), g, c), True)


def test_coefficients_real_to_rounding_only_fold():
    # a 1e-6 relative imaginary part of the coefficients is kept, and the
    # data do not fold; rounding of 1e-14 is dropped, and they do; even data
    # are told apart on their samples, whose imaginary part is Im F's
    grid = GridSpec(2, 16, 6.0, 9, 2.0)
    rng = np.random.default_rng(11)
    for even in (False, True):
        shape = grid.even_shape if even else grid.shape
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        for size, time_even in ((1e-6, False), (1e-14, True)):
            F = re + 1j * size * np.linalg.norm(re) / np.linalg.norm(im) * im
            F = grid.unfold(F) if even else F
            sampler = halfwave_sampler(inverse_values(F, grid), grid, 1.0)
            assert sampler.even is even
            assert sampler.time_even is time_even, size
            kept = F.real if time_even else F
            assert _close(sampler.spectrum(0.0), kept), size
            # Re F alone
            assert bool(np.any(sampler.spectrum(0.0).imag)) is not time_even, size


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=5, deadline=None)
@given(data=st.data(), u=st.floats(0.1, 0.9), ratio=st.floats(-1.9, 4.0),
       mu=st.floats(0.1, 3.0), at_rest=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_elastic_fold_matches_full_pass(kind, dim, data, u, ratio, mu, at_rest, seed):
    grid = data.draw(_grids([dim]))
    state = _elastic_state(grid, np.random.default_rng(seed))
    if at_rest:
        state = ElasticState(state.f, VectorField(grid, np.zeros_like(state.g.values)))

    def make(g):
        return ElasticPropagator(
            ElasticState(VectorField(g, state.f.values), VectorField(g, state.g.values)),
            _lame(ratio, mu),
        )

    _fold_cases(kind, u, grid, make, at_rest)


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=8, deadline=None)
@given(edge=st.booleans(), odd=st.booleans(), u=st.floats(0.05, 1.0), c=st.floats(0.5, 2.0),
       even=st.booleans(), seed=st.integers(0, 2**32 - 1))
# 4e-5 inside the space-time boundary the origin cell at t = 0 carries most
# of the norm, so the density there must be as accurate as anywhere else
@example(edge=False, odd=True, u=0.99999, c=1.0, even=True, seed=1492)
def test_time_pass_matches_physical_order_oracle(kind, dim, edge, odd, u, c, even, seed):
    # edge: the ring patch is clipped to its limits, N/4 cells per axis (its
    # wrapped FFT-order indices then cover half the grid) and, at odd M, every
    # time node; otherwise it stays inside both limits
    M = (5 if edge else 17) + (0 if odd else 1)
    grid = GridSpec(dim, 8 if edge else 32, 8.0, M, 2.0)
    rng = np.random.default_rng(seed)
    f = _white(rng, grid.shape)
    state = _elastic_state(grid, rng)
    if even:
        f = f.real.astype(np.complex128)
        state = ElasticState(state.f, VectorField(grid, np.zeros_like(state.g.values)))
    # resolved elastic data, real and complex, with no parity: every axis
    # free; even at rest, odd with a velocity
    real = _random_state(grid, rng, at_rest=even)
    resolved = _random_state(grid, rng, at_rest=even, real=False)
    samplers = (lambda: halfwave_sampler(f, grid, c),
                lambda: ElasticPropagator(state, _lame(1.0, c)),
                lambda: ElasticPropagator(real, _lame(1.0, c)),
                lambda: ElasticPropagator(resolved, _lame(1.0, c)))
    radii = [4.0, 8.0] if edge else [1.0, 2.0, 4.0, 8.0]
    if kind == "local_smoothing":
        def accumulate(v):
            return local_smoothing_functional(v, grid, radii)

        def oracle(v):
            return local_smoothing_oracle(v, grid, radii)
    else:
        weight = WeightSpec(kind, u * (grid.dim if kind == SPATIAL_POWER else grid.dim + 1))

        def accumulate(v):
            return weighted_spacetime_norm(v, weight, grid)

        def oracle(v):
            return weighted_norm_oracle(v, weight, grid)

    for make in samplers:
        want = oracle(make())
        sampler = make()
        assert sampler.time_even is even
        assert np.all(sampler.signature == FREE)
        assert sampler.out_shape[1:] == grid.shape and len(sampler.out_shape) == dim + 1
        got = accumulate(sampler)
        assert abs(got - want) <= 1e-13 * want, (got, want)
        got = accumulate(lambda t, s=make(): s(t))
        assert abs(got - want) <= 1e-13 * want, (got, want)


def _even_cases():
    """(label, sampler, whether it is even, its free axes) for the data the
    facts must tell apart."""
    grid = GridSpec(3, 32, 7.3, 9, 2.0)  # dx 0.45625: not dyadic
    rng = np.random.default_rng(14)
    gauss = np.exp(-grid.x_norm() ** 2 / 2.0).astype(np.complex128)
    carrier = np.exp(1j * 1.5 * grid.x_grids()[0])
    odd = _even_data(grid, rng) + 1e-3 * _odd_in_axis(grid, rng, 2)
    elastic = ElasticState(VectorField(grid, np.stack([gauss, 0 * gauss, 0 * gauss])),
                           VectorField(grid, np.zeros((3,) + grid.shape)))
    none, all_free, first = (False,) * 3, (True,) * 3, (True, False, False)
    return [
        ("radial", halfwave_sampler(gauss, grid, 1.0), True, none),
        ("even white", halfwave_sampler(_even_data(grid, rng), grid, 1.0), True, none),
        ("modulated", halfwave_sampler(gauss * carrier, grid, 1.0), False, first),
        ("white", halfwave_sampler(_white(rng, grid.shape), grid, 1.0), False, all_free),
        ("odd in one axis", halfwave_sampler(odd, grid, 1.0), False, all_free),
        ("elastic", ElasticPropagator(elastic, LameParams(1.0, 1.0)), False, none),
        ("complex elastic", ElasticPropagator(
            ElasticState(VectorField(grid, elastic.f.values * 1j), elastic.g),
            LameParams(1.0, 1.0)), False, none),
        ("modulated elastic", ElasticPropagator(
            ElasticState(VectorField(grid, elastic.f.values * carrier), elastic.g),
            LameParams(1.0, 1.0)), False, first),
        ("constant elastic", _constant_elastic(grid), True, none),
    ]


def _constant_elastic(grid: GridSpec) -> ElasticPropagator:
    """Constant complex displacement at rest: its Helmholtz parts are the zero
    mode alone, so the three-component sampler is even and packs nothing."""
    f = np.ones((3,) + grid.shape) * np.array([1 + 2j, 0.5j, -1.0])[:, None, None, None]
    return ElasticPropagator(ElasticState(VectorField(grid, f), VectorField(grid, 0 * f)),
                             LameParams(1.0, 1.0))


def test_even_fact_tells_even_data_apart():
    # radial data at a non-dyadic dx are even in the spectrum to rounding,
    # though not bitwise in physical space; a 1e-3 part odd in one axis and
    # white in the others frees every axis, and a carrier along the first
    # axis frees it, the others keeping their parities; the Helmholtz parts
    # of radial elastic data, real or not, have a signature with odd axes:
    # component j of the pressure part is odd in axes 0 and j
    for label, sampler, even, free in _even_cases():
        grid = sampler.grid
        assert sampler.even is even, label
        assert tuple((sampler.signature == FREE).any(axis=0)) == free, label
        assert np.all((sampler.signature == FREE) == np.array(free)), label
        assert sampler.out_shape[-grid.dim:] == grid.block_shape(free), label
    cases = dict((label, sampler) for label, sampler, _, _ in _even_cases())
    assert cases["elastic"].signature.tolist() == [[EVEN, EVEN, EVEN], [ODD, ODD, EVEN],
                                                   [ODD, EVEN, ODD]]
    assert cases["elastic"].out_shape == (3, 17, 17, 17)  # real parts: one plane per component
    assert cases["modulated"].signature.tolist() == [[FREE, EVEN, EVEN]]
    assert cases["modulated"].out_shape == (2, 32, 17, 17)  # real and imaginary planes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the squared norms overflow
def test_overflowing_data_have_no_parity():
    # a Gaussian shifted by 4 dx has a free first axis; scaled by 1e160 its
    # squared norm is inf, against which no parity or realness test may pass
    grid = GridSpec(2, 32, 12.0, 17, 3.0)
    x0, x1 = grid.x_grids()
    f = np.exp(-((x0 - 4 * grid.dx) ** 2 + x1**2) / 1.28)
    assert halfwave_sampler(f, grid, 1.0).signature.tolist() == [[FREE, EVEN]]
    sampler = halfwave_sampler(1e160 * f, grid, 1.0)
    assert not sampler.even
    assert sampler.signature.tolist() == [[FREE, FREE]]
    # centered imaginary data: neither even nor of real coefficients, which
    # would keep only their real part, 0
    sampler = halfwave_sampler(1e160j * np.exp(-(x0**2 + x1**2)), grid, 1.0)
    assert not sampler.even and not sampler.time_even


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=6, deadline=None)
@given(n=st.sampled_from([8, 16, 32]), odd_m=st.booleans(), u=st.floats(0.05, 1.0),
       c=st.floats(0.5, 2.0), real=st.booleans(), odd_part=st.sampled_from([0.0, 1e-3]),
       axis=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_even_pass_matches_complex128_oracle(kind, dim, n, odd_m, u, c, real, odd_part, axis,
                                             seed):
    # the block pass of even data against the full double-precision pass in
    # physical order; data with a 1e-3 odd part in one axis have that axis
    # free, and must not be read on the even block
    grid = GridSpec(dim, n, 8.0, 17 if odd_m else 18, 2.0)
    rng = np.random.default_rng(seed)
    f = _even_data(grid, rng, real) + odd_part * _odd_in_axis(grid, rng, axis % dim)
    if real:
        f = f.real.astype(np.complex128)
    radii = [1.0, 2.0, 4.0, 8.0]
    if kind == "local_smoothing":
        got = local_smoothing_functional(sampler := halfwave_sampler(f, grid, c), grid, radii)
        want = local_smoothing_oracle(sampler, grid, radii)
    else:
        weight = WeightSpec(kind, u * (grid.dim if kind == SPATIAL_POWER else grid.dim + 1))
        got = weighted_spacetime_norm(sampler := halfwave_sampler(f, grid, c), weight, grid)
        want = weighted_norm_oracle(sampler, weight, grid)
    assert abs(got - want) <= 1e-12 * want, (got, want)
    assert sampler.even is (odd_part == 0.0)
    assert sampler.time_even is real


@pytest.mark.parametrize("kind", ACCUMULATORS)
def test_even_components_take_the_block_pass(kind):
    # a sampler of several complex components on the block: the real and
    # imaginary planes of each are transformed there, in double precision
    grid = GridSpec(3, 16, 8.0, 9, 2.0)
    radii = [1.0, 2.0, 4.0]
    if kind == "local_smoothing":
        got = local_smoothing_functional(sampler := _constant_elastic(grid), grid, radii)
        want = local_smoothing_oracle(sampler, grid, radii)
    else:
        weight = WeightSpec(kind, 1.2)
        got = weighted_spacetime_norm(sampler := _constant_elastic(grid), weight, grid)
        want = weighted_norm_oracle(sampler, weight, grid)
    assert sampler.even and sampler.out_shape == (6,) + grid.even_shape
    assert abs(got - want) <= 1e-12 * want, (got, want)


def _signed_parts(grid: GridSpec, rng, signature: np.ndarray, real: bool) -> np.ndarray:
    """White parts, one component per row of ``signature``, each made even or
    odd in every axis by adding or subtracting its reflection: an odd axis's
    planes m_i = 0 and N/2 are then 0."""
    X = rng.standard_normal((len(signature),) + grid.shape)
    if not real:
        X = X + 1j * rng.standard_normal(X.shape)
    for j, row in enumerate(signature):
        for axis, odd in enumerate(row):
            mirror = np.roll(np.flip(X[j], axis), 1, axis)
            X[j] = X[j] - mirror if odd else X[j] + mirror
    return X


def _signed_sampler(grid: GridSpec, rng, signature, real: bool, at_rest: bool,
                    nyquist: float = 0.0):
    """A sampler of two two-way terms whose parts have ``signature``, and a
    function that makes a fresh one; at rest it is time-even, moving it has
    sine parts and a drift in its even components.  ``nyquist`` puts that
    relative size on the Nyquist planes of the odd axes of one part."""
    speeds = rng.uniform(0.5, 2.0, 2)
    parts = [_signed_parts(grid, rng, signature, real) for _ in range(2 if at_rest else 4)]
    for j, axis in zip(*np.nonzero(signature)):
        # a plane with the component's parities in the other axes
        flipped = signature.copy()
        flipped[j, axis] = False
        index = (j,) + (slice(None),) * axis + (grid.points_per_axis // 2,)
        plane = _signed_parts(grid, rng, flipped, real)[index]
        parts[0][index] += nyquist * np.linalg.norm(parts[0]) / np.linalg.norm(plane) * plane
    drift = None
    if not at_rest:
        drift = np.where(signature.any(axis=1), 0.0, rng.standard_normal(len(signature)))

    def make():
        if at_rest:
            terms = [(c, P, None) for c, P in zip(speeds, parts)]
        else:
            terms = [(c, P, Q) for c, P, Q in zip(speeds, parts[:2], parts[2:])]
        return WaveSampler(grid, terms, drift, time_even=at_rest)

    return make(), make, (speeds, parts, drift)


@st.composite
def _signatures(draw, dim: int):
    rows = draw(st.integers(1, 3))
    flags = draw(st.lists(st.booleans(), min_size=rows * dim, max_size=rows * dim))
    return np.array(flags).reshape(rows, dim)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_unfold_restores_signed_parts_from_their_block(data, dim, n, real, seed):
    # each component read at min(m, N - m) and negated past N/2 in its odd
    # axes gives back the whole array, bit for bit
    signature = data.draw(_signatures(dim))
    grid = GridSpec(dim, n, 8.0)
    X = _signed_parts(grid, np.random.default_rng(seed), signature, real)
    assert np.array_equal(grid.unfold(X[(Ellipsis,) + grid.even_block], signature), X)


@pytest.mark.parametrize("kind", ACCUMULATORS)
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=8, deadline=None)
@given(data=st.data(), n=st.sampled_from([8, 16, 32]), u=st.floats(0.05, 0.95),
       real=st.booleans(), at_rest=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_signed_pass_matches_physical_order_oracle(kind, dim, data, n, u, real, at_rest, seed):
    # random parities per component, real (one plane each) or complex (two),
    # at rest or moving: the block pass against the all-double full pass
    signature = data.draw(_signatures(dim))
    grid = GridSpec(dim, n, 8.0, 17, 2.0)
    sampler, make, _ = _signed_sampler(grid, np.random.default_rng(seed), signature, real,
                                       at_rest)
    assert np.array_equal(sampler.signature, signature)
    assert sampler.even is (not signature.any())
    planes = len(signature) * (1 if real else 2)
    assert sampler.out_shape == (planes,) + grid.even_shape
    if kind == "local_smoothing":
        radii = [1.0, 2.0, 4.0, 8.0]
        got = local_smoothing_functional(sampler, grid, radii)
        want = local_smoothing_oracle(make(), grid, radii)
    else:
        weight = WeightSpec(kind, u * (grid.dim if kind == SPATIAL_POWER else grid.dim + 1))
        got = weighted_spacetime_norm(sampler, weight, grid)
        want = weighted_norm_oracle(make(), weight, grid)
    assert abs(got - want) <= 1e-12 * want, (got, want)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), real=st.booleans(), at_rest=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_signed_sampler_gives_the_full_lattice(data, dim, real, at_rest, seed):
    # spectrum, rate and samples of a signed sampler against the direct
    # full-lattice computation, with 1e-6 of the parts on the odd axes'
    # Nyquist planes, which only the pass drops
    signature = data.draw(_signatures(dim))
    grid = data.draw(_grids([dim]))
    sampler, _, (speeds, parts, drift) = _signed_sampler(
        grid, np.random.default_rng(seed), signature, real, at_rest, nyquist=1e-6)
    assert sampler.signature is not None
    xin = grid.xi_norm()
    for t in _schedule(data.draw, grid):
        u, v = 0.0, 0.0
        for k, c in enumerate(speeds):
            P = parts[k]
            Q = 0.0 if at_rest else parts[k + 2]
            w = c * xin
            u = u + np.cos(w * t) * P + np.sin(w * t) * Q
            v = v + w * (np.cos(w * t) * Q - np.sin(w * t) * P)
        if drift is not None:
            u[(Ellipsis,) + (0,) * dim] += t * drift
            v[(Ellipsis,) + (0,) * dim] += drift
        # at rest the rate vanishes at t = 0, where the recurrence leaves
        # rounding of the size c |xi| |u|
        rate_scale = np.linalg.norm(v) + speeds.max() * grid.xi_max * dim * np.linalg.norm(u)
        assert _close(sampler.spectrum(t), u), t
        assert _close(sampler.rate(t), v, rate_scale), t
        assert _close(sampler(t), inverse_values(u, grid)), t
    # between calls the sampler holds its parts and state on the block alone
    held = [X for _, P, Q, _ in sampler._terms for X in (P, Q) if X is not None]
    assert all(X.shape[-dim:] == grid.even_shape for X in held + sampler._state)


@settings(max_examples=8, deadline=None)
@given(dim=st.sampled_from([2, 3]), at_rest=st.booleans(), lam=st.sampled_from([0.75, 1.0]),
       c=st.floats(0.5, 2.0))
def test_signed_elastic_pair_matches_direct(dim, at_rest, lam, c):
    # radial elastic data, at rest or with the velocity d_0 grad psi of a
    # radial psi, mean-zero and with the parities of f's Helmholtz parts
    # (component j odd in axes 0 and j): displacement, velocity and pair of
    # the signed propagator against the direct full-lattice computation
    grid = GridSpec(dim, 32, 8.0, 9, 2.0)  # resolved data, decayed at the box edge
    member = DataFamily(kind="gaussian", width=1.0, scalar=False).member(grid, lam)
    g = np.zeros_like(member.f.values)
    if not at_rest:
        x, psi = grid.x_grids(), np.exp(-grid.x_norm() ** 2 / 2)
        for j in range(dim):
            g[j] = (x[0] * x[j] - (j == 0)) * psi
        g[0] -= g[0].mean()  # the odd components' means vanish exactly
    state = ElasticState(member.f, VectorField(grid, g))
    prop = ElasticPropagator(state, _lame(1.0, c))
    assert prop.signature is not None and prop.time_even is at_rest
    for t in (*grid.time_nodes(), 0.3):
        u, v = prop.pair(t)
        u_direct, v_direct = _elastic_direct(state, _lame(1.0, c), t)
        scale = np.linalg.norm(v_direct) + c * grid.xi_max * dim * np.linalg.norm(u_direct)
        assert _close(u.values, u_direct), t
        assert _close(v.values, v_direct, scale), t
        assert _close(prop.displacement(t).values, u_direct), t


@pytest.mark.parametrize("dim", [2, 3])
def test_parity_defects_and_nyquist_planes_do_not_fold(dim):
    # a 1e-6 defect of either parity in one axis of one part frees that
    # axis, and only it, as do odd-axis Nyquist planes above _REAL_TOL / dim
    # per axis; below it they fold
    from morawetz_lab.elastic import _REAL_TOL

    grid = GridSpec(dim, 16, 6.0, 9, 2.0)
    rng = np.random.default_rng(21)
    signature = np.zeros((2, dim), bool)
    signature[1, :2] = True
    for at_rest in (True, False):
        sampler, _, (speeds, parts, drift) = _signed_sampler(grid, rng, signature, True, at_rest)
        assert np.array_equal(sampler.signature, signature)
        for j, axis in ((0, 0), (1, 1), (1, dim - 1)):
            flipped = signature.copy()
            flipped[j, axis] = not flipped[j, axis]
            defect = _signed_parts(grid, rng, flipped, True)
            spoiled = parts[0] + 1e-6 * np.linalg.norm(parts[0]) / np.linalg.norm(defect) * defect
            terms = [(speeds[0], spoiled, None), (speeds[1], parts[1], None)]
            want = np.where(np.arange(dim) == axis, FREE, signature)
            assert np.array_equal(WaveSampler(grid, terms, drift).signature, want), (j, axis)
        for size, signed in ((4 * _REAL_TOL, False), (_REAL_TOL / 4, True)):
            sampler, _, _ = _signed_sampler(grid, rng, signature, True, at_rest, nyquist=size)
            want = signature if signed else np.where(signature.any(axis=0), FREE, signature)
            assert np.array_equal(sampler.signature, want), size


@settings(max_examples=12, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
       half_width=st.floats(1.0, 20.0), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_even_data_coefficients_and_norm_from_the_block(dim, n, half_width, real, seed):
    # even data: the block's cosine transform gives the block of the full
    # forward transform, and the block's norm the full lattice's; a 1e-3 odd
    # part in one axis keeps the full lattice
    from morawetz_lab.analysis import _hs_norm, hs_norm
    from morawetz_lab.elastic import _halfwave_coefficients

    grid = GridSpec(dim, n, half_width * (1 + 2.0**-20), 5, 1.0)  # dx not dyadic
    rng = np.random.default_rng(seed)
    f = _even_data(grid, rng, real)
    F = _halfwave_coefficients(f, grid)
    assert F.shape == grid.even_shape
    full = forward_values(f, grid)
    assert np.linalg.norm(F - full[grid.even_block]) <= 1e-13 * np.linalg.norm(full)
    for s in (0.0, 0.5, 1.0):
        want = hs_norm(f, s, grid)
        assert abs(_hs_norm(F[np.newaxis], s, grid) - want) <= 1e-13 * want, s
    sampler = halfwave_sampler(f, grid, 1.0)
    assert sampler.even and sampler.time_even is real
    t = grid.time_nodes()[-1]
    assert _close(sampler.spectrum(t), np.exp(1j * t * grid.xi_norm()) * full)

    odd = f + 1e-3 * _odd_in_axis(grid, rng, int(rng.integers(dim)))
    assert _halfwave_coefficients(odd, grid).shape == grid.shape
    assert not halfwave_sampler(odd, grid, 1.0).even
