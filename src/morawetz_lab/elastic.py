"""Elastic wave propagation via exact spectral formulas.

The displacement equation ``u_tt = mu Lap u + (lambda+mu) grad div u``
diagonalizes per frequency: with ``P(xi) = xi xi^t/|xi|^2`` and ``Q = I - P``,
the symbol ``L(xi) = mu |xi|^2 Q + (lambda+2mu) |xi|^2 P`` splits the mode ODE
into two scalar oscillators with speeds ``sqrt(mu)`` (shear) and
``sqrt(lambda+2mu)`` (pressure):

    uhat(xi,t) = cos(t c|xi|) fhat_* + sin(t c|xi|)/(c|xi|) ghat_*     (* = Q, P)

The propagator below evaluates these multipliers exactly in t; there is no
time stepping.  ``WaveSampler`` is the one sampler of this flow and of the
scalar half-wave flow; on the uniform time nodes it advances the phases by
an exact-in-t recurrence rather than re-evaluating them.  Convention at
the zero mode: P(0) = 0, Q(0) = I, and ``uhat(0,t) = fhat(0) + t ghat(0)``
(the free-particle limit of the ODE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EllipticityError, ShapeError
from .spectral import (
    GridSpec,
    VectorField,
    forward_values,
    inverse_values,
)

__all__ = [
    "LameParams",
    "ElasticState",
    "projection_matrices",
    "helmholtz_split",
    "ElasticPropagator",
    "evolve",
    "half_wave",
    "halfwave_sampler",
    "WaveSampler",
    "elastic_energy",
    "pde_residual",
]


@dataclass(frozen=True)
class LameParams:
    """Lame coefficients with the ellipticity invariant mu > 0, lambda + 2mu > 0."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (self.mu > 0 and self.lam + 2 * self.mu > 0):
            raise EllipticityError(
                f"need mu > 0 and lambda + 2*mu > 0, got lambda={self.lam}, mu={self.mu}"
            )

    @property
    def shear_speed(self) -> float:
        return float(np.sqrt(self.mu))

    @property
    def pressure_speed(self) -> float:
        return float(np.sqrt(self.lam + 2 * self.mu))

    @property
    def max_speed(self) -> float:
        return max(self.shear_speed, self.pressure_speed)


_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class ElasticState:
    """Initial displacement f and velocity g on a shared grid.

    g must have zero mean per component: the zero mode would otherwise grow
    linearly in time, and the negative-order norms of g used downstream
    require a vanishing zero mode.
    """

    f: VectorField
    g: VectorField

    def __post_init__(self) -> None:
        if self.f.grid != self.g.grid:
            raise ShapeError("f and g must share one GridSpec")
        gv = self.g.values
        scale = np.max(np.abs(gv))
        if scale > 0:
            means = np.abs(gv.reshape(self.grid.dim, -1).mean(axis=1))
            if np.any(means > _MEAN_TOL * scale):
                raise DomainError(
                    "g must be mean-zero per component (zero-mode policy); "
                    f"relative means {means / scale}"
                )

    @property
    def grid(self) -> GridSpec:
        return self.f.grid


def projection_matrices(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longitudinal projector P = xi xi^t/|xi|^2 and transverse Q = I - P.

    At xi = 0 returns P = 0, Q = I (declared convention).
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    nsq = float(xi @ xi)
    if nsq == 0.0:
        return np.zeros((n, n)), np.eye(n)
    P = np.outer(xi, xi) / nsq
    return P, np.eye(n) - P


def _split_spectrum(coeffs: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (potential, solenoidal) parts of spectral coefficients."""
    xi = grid.xi_grids()
    nsq = grid.xi_norm() ** 2
    dot = sum(xi[i] * coeffs[i] for i in range(grid.dim))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(nsq > 0, dot / np.where(nsq > 0, nsq, 1.0), 0.0)
    pot = np.stack([xi[i] * scale for i in range(grid.dim)])
    return pot, coeffs - pot


def helmholtz_split(f: VectorField) -> tuple[VectorField, VectorField]:
    """Split f = f_P + f_S into potential (curl-free) and solenoidal parts.

    The zero mode goes to f_S (Q(0) = I).  The parts are L2-orthogonal mode
    by mode, so ``|f|^2 = |f_P|^2 + |f_S|^2`` exactly.
    """
    grid = f.grid
    F = forward_values(f.values, grid)
    pot, sol = _split_spectrum(F, grid)
    return (
        VectorField(grid, inverse_values(pot, grid)),
        VectorField(grid, inverse_values(sol, grid)),
    )


class WaveSampler:
    """The one time sampler of the half-wave and elastic flows.

    Every flow here is ``uhat(t) = sum_k E_k(t) A_k + conj(E_k(t)) B_k`` with
    ``E_k = e^{i t c_k |xi|}`` and ``terms = [(c_k, A_k, B_k), ...]`` (``B_k``
    may be None), plus ``t * drift`` at the zero mode.  Along one ascending
    pass over ``grid.time_nodes()`` each ``E_k`` advances from the previous
    node by one in-place multiply with ``e^{i dt c_k |xi|}``; the first node,
    any other t and out-of-order calls evaluate ``exp`` directly, so the
    rounding drift is bounded by one pass (about 1e-14).  A one-way term
    (``B_k`` None) advances ``E_k A_k`` instead, which saves its product per
    node; a two-way term keeps ``E_k``, which is smaller than its vector parts.
    The state belongs to one pass: give each thread its own sampler.

    ``time_even`` is true when ``|u(-t)|^2 = |u(t)|^2`` holds exactly; the flow
    constructors below work it out from their data, and the time accumulators
    then visit only the nodes with t >= 0.
    """

    def __init__(self, grid: GridSpec, terms, drift: np.ndarray | None = None,
                 time_even: bool = False):
        self.grid = grid
        self.time_even = time_even
        self._terms = [(float(c), A, B) for c, A, B in terms]
        self._drift = drift
        self._zero = (Ellipsis,) + (0,) * grid.dim
        self._xin = grid.xi_norm()
        self._nodes = grid.time_nodes()
        self._steps = None  # e^{i dt c_k |xi|}, built at the first recurrence step
        self._state = None  # per term E_k A_k (one-way) or E_k (two-way) at self._t
        self._t = None
        self._index = None  # node index of self._t, None off the nodes
        self.shape = np.broadcast_shapes(*(A.shape for _, A, _ in self._terms))

    def _advance(self, t: float) -> None:
        """Bring the state to t: one step of the recurrence, or ``exp`` directly."""
        if t == self._t:
            return
        nodes, i = self._nodes, self._index
        if i is not None and i + 1 < len(nodes) and t == nodes[i + 1]:
            if self._steps is None:
                dt = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
                self._steps = [np.exp(1j * dt * c * self._xin) for c, _, _ in self._terms]
            for state, step in zip(self._state, self._steps):
                state *= step
            self._index = i + 1
        else:
            self._state = []
            for c, A, B in self._terms:
                E = np.exp(1j * t * c * self._xin)
                self._state.append(E * A if B is None else E)
            j = int(np.searchsorted(nodes, t))
            self._index = j if j < len(nodes) and nodes[j] == t else None
        self._t = t

    def spectrum(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """uhat(t), in FFT storage order, of shape ``self.shape``.

        With ``out`` the parts are written straight into it under
        ``same_kind`` casting: a one-way term is copied, a two-way term
        multiplied in, and the rest added in place.  This is how the time
        pass (``analysis._time_pass``) fills its ``complex64`` transform
        buffer: the phases stay ``complex128``, each part is rounded once to
        single precision, and the pass reduces in ``float64``, so its norms
        carry about 1e-7 relative rounding.  Without ``out``, a lone one-way
        term comes back as a read-only view of the state, valid until the
        next call, and anything else in a new ``complex128`` array.
        """
        self._advance(t)
        if out is None:
            if self._drift is None and len(self._terms) == 1 and self._terms[0][2] is None:
                view = self._state[0].view()
                view.setflags(write=False)
                return view
            out = np.empty(self.shape, np.complex128)
        for k, ((_, A, B), state) in enumerate(zip(self._terms, self._state)):
            if B is None:
                if k == 0:
                    np.copyto(out, state, casting="same_kind")
                else:
                    out += state
                continue
            if k == 0:
                np.multiply(state, A, out=out, casting="same_kind")
            else:
                out += state * A
            out += state.conj() * B
        if self._drift is not None:
            out[self._zero] += t * self._drift
        return out

    def rate(self, t: float) -> np.ndarray:
        """d/dt uhat(t), the exact differentiated multiplier."""
        self._advance(t)
        out = 0.0
        for (c, A, B), state in zip(self._terms, self._state):
            part = state if B is None else state * A - state.conj() * B
            out = out + 1j * c * self._xin * part
        if self._drift is not None:
            out[self._zero] += self._drift
        return out

    def __call__(self, t: float) -> np.ndarray:
        """u(t) on the physical grid."""
        return inverse_values(self.spectrum(t), self.grid)


def halfwave_sampler(f: np.ndarray, grid: GridSpec, c: float) -> WaveSampler:
    """Sampler of ``e^{i t c sqrt(-Lap)} f`` for scalar samples of shape ``grid.shape``.

    For real f, ``u(-t) = conj(u(t))`` because ``|xi|`` is even, so the
    sampler is ``time_even``.
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ShapeError(f"expected scalar field of shape {grid.shape}, got {f.shape}")
    real = not np.any(np.imag(f))
    return WaveSampler(grid, [(c, forward_values(f, grid), None)], time_even=real)


class ElasticPropagator:
    """Exact-in-time evolution of an elastic state through one ``WaveSampler``.

    Per Helmholtz part with speed c, ``cos(tc|xi|) f + sin(tc|xi|)/(c|xi|) g``
    is ``E A + conj(E) B`` with ``A, B = (f +- g/(i c|xi|))/2``.  Called as a
    sampler, the propagator gives the displacement, and its ``spectrum``
    gives the displacement's coefficients to the time accumulators; with zero
    velocity g it is even in t (``A == B``, no drift), which it states as
    ``time_even``.
    """

    def __init__(self, state: ElasticState, params: LameParams):
        self.grid = state.grid
        self.params = params
        grid = self.grid
        fP, fQ = _split_spectrum(forward_values(state.f.values, grid), grid)
        gP, gQ = _split_spectrum(forward_values(state.g.values, grid), grid)
        drift = gQ[(Ellipsis,) + (0,) * grid.dim].copy()  # the zero mode is all in Q
        xin = grid.xi_norm()
        inv = np.divide(1.0, xin, out=np.zeros_like(xin), where=xin > 0)
        terms = []
        for c, f_k, g_k in ((params.shear_speed, fQ, gQ), (params.pressure_speed, fP, gP)):
            g_k *= (-1j / c) * inv  # g/(i c|xi|), 0 at xi = 0
            terms.append((c, 0.5 * (f_k + g_k), 0.5 * (f_k - g_k)))
        self.time_even = not np.any(state.g.values)
        self._sampler = WaveSampler(grid, terms, drift, time_even=self.time_even)
        self.shape = self._sampler.shape

    def __call__(self, t: float) -> VectorField:
        return self.displacement(t)

    def spectrum(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """The displacement's coefficients uhat(t), in FFT storage order; see
        ``WaveSampler.spectrum`` for ``out``."""
        return self._sampler.spectrum(t, out)

    def displacement(self, t: float) -> VectorField:
        return VectorField(self.grid, inverse_values(self._sampler.spectrum(t), self.grid))

    def velocity(self, t: float) -> VectorField:
        return VectorField(self.grid, inverse_values(self._sampler.rate(t), self.grid))

    def pair(self, t: float) -> tuple[VectorField, VectorField]:
        return self.displacement(t), self.velocity(t)


def evolve(state: ElasticState, params: LameParams, t: float) -> VectorField:
    """Displacement u(., t); evolve(state, params, 0) returns f up to round-trip."""
    return ElasticPropagator(state, params).displacement(t)


def half_wave(f: np.ndarray, grid: GridSpec, c: float, t: float) -> np.ndarray:
    """Scalar half-wave propagator ``e^{i t c sqrt(-Lap)}``: phase e^{itc|xi|} per mode.

    Takes and returns scalar samples of shape ``grid.shape``.  Unitary on L2;
    obeys the group law in t.
    """
    return halfwave_sampler(f, grid, c)(t)


def elastic_energy(u: VectorField, u_t: VectorField, params: LameParams) -> float:
    """Conserved energy ``sum_xi |uhat_t|^2 + <L(xi) uhat, uhat>`` (Parseval weights).

    With the weight ``(dxi/(2 pi))^n`` this equals the physical-space integral
    ``int |u_t|^2 + mu |grad u|^2 + (lambda+mu) (div u)^2 dx`` of the discrete
    field, and it is constant in t mode by mode.
    """
    grid = u.grid
    U = forward_values(u.values, grid)
    Ut = forward_values(u_t.values, grid)
    xi = grid.xi_grids()
    nsq = grid.xi_norm() ** 2
    dot = sum(xi[i] * U[i] for i in range(grid.dim))
    dens = (
        np.sum(np.abs(Ut) ** 2, axis=0)
        + params.mu * nsq * np.sum(np.abs(U) ** 2, axis=0)
        + (params.lam + params.mu) * np.abs(dot) ** 2
    )
    w = (grid.dxi / (2 * np.pi)) ** grid.dim
    return float(w * dens.sum())


def _lame_operator(coeffs: np.ndarray, grid: GridSpec, params: LameParams) -> np.ndarray:
    """Spectral Lame operator: (Delta* u)hat = -L(xi) uhat."""
    xi = grid.xi_grids()
    nsq = grid.xi_norm() ** 2
    dot = sum(xi[i] * coeffs[i] for i in range(grid.dim))
    out = -params.mu * nsq * coeffs
    for i in range(grid.dim):
        out[i] -= (params.lam + params.mu) * xi[i] * dot
    return out


def pde_residual(state: ElasticState, params: LameParams, t: float, dt: float) -> float:
    """Relative residual of the central second time difference against Delta* u.

    Returns ``|(u(t+dt) - 2u(t) + u(t-dt))/dt^2 - Delta* u(t)|_2 / |Delta* u(t)|_2``;
    decreases as O(dt^2).  The propagator is exact in t, so this measures only
    the finite-difference error.
    """
    grid = state.grid
    if dt * params.max_speed * grid.xi_max * np.sqrt(grid.dim) >= 0.1:
        raise DomainError("dt too large: need dt * c_max * |xi|_max < 0.1")
    prop = ElasticPropagator(state, params)
    up = prop.displacement(t + dt).values
    u0 = prop.displacement(t).values
    um = prop.displacement(t - dt).values
    second_diff = (up - 2 * u0 + um) / dt**2
    lap = inverse_values(_lame_operator(forward_values(u0, grid), grid, params), grid)
    denom = np.linalg.norm(lap)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(second_diff - lap) / denom)
