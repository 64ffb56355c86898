"""The one time sampler: recurrence against direct evaluation, energy, transforms,
and the folded time pass of time-even flows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morawetz_lab import ElasticPropagator, ElasticState, GridSpec, LameParams, VectorField
from morawetz_lab.analysis import local_smoothing_functional
from morawetz_lab.elastic import _split_spectrum, elastic_energy, halfwave_sampler
from morawetz_lab.spectral import forward_values, inverse_values
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


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(st.data(), _grids(), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1))
def test_halfwave_recurrence_matches_direct(data, grid, c, seed):
    f = _white(np.random.default_rng(seed), grid.shape)
    F = forward_values(f, grid)
    sampler = halfwave_sampler(f, grid, c)
    for t in _schedule(data.draw, grid):
        direct = inverse_values(np.exp(1j * t * c * grid.xi_norm()) * F, grid)
        assert _close(sampler(t), direct), t


def _lame(ratio: float, mu: float) -> LameParams:
    return LameParams(lam=ratio * mu, mu=mu)  # lambda + 2 mu = mu (ratio + 2) > 0


def _elastic_state(grid: GridSpec, rng) -> ElasticState:
    shape = (grid.dim,) + grid.shape
    g = _white(rng, shape)
    g -= g.reshape(grid.dim, -1).mean(axis=1).reshape((grid.dim,) + (1,) * grid.dim)
    return ElasticState(VectorField(grid, _white(rng, shape)), VectorField(grid, g))


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
    grid.xi_norm(), grid.x_norm(), grid.xi_grids(), grid.trapezoid_weights()  # fill the memos
    before = {key: arr.copy() for key, arr in grid._cache.items()}
    sampler = halfwave_sampler(_white(rng, grid.shape), grid, 1.0)
    prop = ElasticPropagator(_elastic_state(grid, rng), LameParams(1.0, 1.0))
    for t in grid.time_nodes():
        sampler(t)
        prop.pair(t)
        assert not sampler.spectrum(t).flags.writeable  # the state is lent read-only
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
    samplers = (lambda: halfwave_sampler(f, grid, c),
                lambda: ElasticPropagator(state, _lame(1.0, c)))
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
        # the sampler's pass transforms in complex64; a plain callable's is all double
        got = accumulate(sampler)
        assert abs(got - want) <= 1e-6 * want, (got, want)
        got = accumulate(lambda t, s=make(): s(t))
        assert abs(got - want) <= 1e-13 * want, (got, want)
