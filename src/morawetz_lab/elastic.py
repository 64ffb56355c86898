"""Elastic wave propagation via exact spectral formulas.

The displacement equation ``u_tt = mu Lap u + (lambda+mu) grad div u``
diagonalizes per frequency: with ``P(xi) = xi xi^t/|xi|^2`` and ``Q = I - P``,
the symbol ``L(xi) = mu |xi|^2 Q + (lambda+2mu) |xi|^2 P`` splits the mode ODE
into two scalar oscillators with speeds ``sqrt(mu)`` (shear) and
``sqrt(lambda+2mu)`` (pressure):

    uhat(xi,t) = cos(t c|xi|) fhat_* + sin(t c|xi|)/(c|xi|) ghat_*     (* = Q, P)

These multipliers are evaluated exactly in t; there is no time stepping.
``WaveSampler`` is the one sampler of this flow and of the scalar half-wave
flow; on the uniform time nodes it advances the phases by an exact-in-t
recurrence rather than re-evaluating them.  ``ElasticPropagator`` is the
``WaveSampler`` of an elastic state: it keeps each Helmholtz part in the
form above, as the term ``(c, cosine part fhat_*, sine part
ghat_*/(c|xi|) or None)`` (``_elastic_terms``), the sine part None when
``ghat_* = 0`` (data at rest), and reads cos and sin off the phase
``e^{itc|xi|}``; ``halfwave_sampler`` builds the sampler of scalar data.

The multipliers depend on |xi| only, so a component that is even or odd in
an axis stays so.  Component j of ``xi_i xi_j |xi|^-2 fhat`` of radial data
is odd in axes i and j and even in the others; a carrier along an axis
leaves that axis free, with neither parity.  ``WaveSampler`` decides this
parity signature once, from its parts, and keeps its parts and state on
the block of FFT storage order that it fixes (``GridSpec.block``): one
point per orbit of the reflections of the signed axes, every point of a
free one.  It computes every spectrum as real ``float64`` planes of that
block, which the time pass transforms with one real matmul per signed axis
and one ``complex128`` FFT over the free ones
(``spectral.block_transform``; see ``analysis._time_pass``).
Convention at the zero mode:
P(0) = 0, Q(0) = I, and ``uhat(0,t) = fhat(0) + t ghat(0)`` (the
free-particle limit of the ODE).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EllipticityError, ShapeError
from .spectral import (
    EVEN,
    FREE,
    ODD,
    GridSpec,
    VectorField,
    block_matrices,
    block_transform,
    forward_values,
    inverse_values,
)

__all__ = [
    "LameParams",
    "ElasticState",
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


def _split_spectrum(coeffs: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (potential, solenoidal) parts of spectral coefficients."""
    xi = grid.xi_open()
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

    Every flow here is a sum of terms with phases ``E_k = e^{i t c_k |xi|}``,
    plus ``t * drift`` at the zero mode.  A two-way term
    ``(c_k, cosine part P_k, sine part Q_k or None)`` is
    ``cos(t c_k |xi|) P_k + sin(t c_k |xi|) Q_k``, with ``Q_k`` None for a
    flow that starts at rest; a one-way term ``(c_k, A_k)`` is ``E_k A_k``.
    Along one ascending pass over ``grid.time_nodes()`` each ``E_k`` advances
    from the previous node by one in-place multiply with
    ``e^{i dt c_k |xi|}`` (``GridSpec.phase_step``, shared by the samplers of
    one grid); the first node, any other t and out-of-order calls
    evaluate ``exp`` directly, so the rounding drift is bounded by one pass
    (about 1e-14).  A one-way term advances ``E_k A_k`` instead, which saves
    its product per node; a two-way term keeps ``E_k``, which is smaller than
    its vector parts, and reads its cosine and sine as ``Re E_k`` and
    ``Im E_k``.  The state belongs to one pass: give each thread its own
    sampler.

    ``time_even`` is true when the density at -t is that at t, pointwise,
    ``|u(-t, x)|^2 = |u(t, x)|^2``, or reflected through the origin,
    ``|u(-t, x)|^2 = |u(t, -x)|^2`` (on the lattice ``-x`` is the index
    ``-m mod N``); the flow constructors below work it out from their data,
    and the time accumulators then visit only the nodes with t >= 0.  The
    reflected case is exact only against weights even in x: every weight
    and ball mask of the consumers is (see ``weights``).

    ``signature`` is a parity for every component (the leading axes
    flattened, one row each; one row for scalar terms) in every axis
    (columns): ``ODD`` where the component is odd, ``X(R_i m) = -X(m)`` for
    the reflection ``R_i: m_i -> -m_i mod N``, ``EVEN`` where it is even, and
    ``FREE``, for every component, on an axis where some component is
    neither (``free``, one bool per axis); |xi| is even, so the flow keeps
    it.  ``_signature`` decides it once from the parts, one-way terms
    included; an odd axis whose Nyquist planes ``m_i = N/2`` hold more than
    ``_REAL_TOL / dim`` of the parts is free too (the lattice projector of
    an elastic part is not odd there, and for real radial data those planes
    make ``Im u``).  The sampler keeps its parts, those planes included, and
    state on ``grid.block(free)``, one point per orbit of the signed axes'
    reflections, the lattice when every axis is free; the parts' remainder
    of the other parity, at most ``_EVEN_TOL``, is dropped.  ``spectrum``
    computes one way, into ``float64`` planes of the block, of shape
    ``out_shape``: the real parts of the components, then, unless no axis is
    free and every part and the drift are real to ``_EVEN_TOL`` (their
    imaginary rounding is then dropped), their imaginary parts.  The time
    pass hands it those planes as ``out`` and transforms them with
    ``spectral.block_transform``, which drops the odd axes' Nyquist planes.
    ``spectrum`` without ``out`` combines its own planes to complex, and it,
    ``rate`` and ``__call__`` unfold once (``GridSpec.unfold``), Nyquist
    planes included.  ``ElasticPropagator`` is the subclass of an elastic
    state; ``halfwave_sampler`` builds the sampler of scalar data.

    ``even`` is true when the sampler is even in every axis, such as radial
    scalar data.  Terms whose spatial axes have the shape
    ``grid.even_shape`` are taken as the block of even parts, without a
    check: ``halfwave_sampler`` hands over the block of data it has found
    even, and ``shape`` is still that of the full lattice.
    """

    def __init__(self, grid: GridSpec, terms, drift: np.ndarray | None = None,
                 time_even: bool = False):
        self.grid = grid
        self.time_even = time_even
        # (c, A or P, Q, one-way?)
        self._terms = [(float(c), X, rest[0] if rest else None, not rest)
                       for c, X, *rest in terms]
        self._drift = drift
        self._zero = (Ellipsis,) + (0,) * grid.dim
        self._nodes = grid.time_nodes()
        self._state = None  # per term E_k A_k (one-way) or E_k (two-way) at self._t
        self._t = None
        self._index = None  # node index of self._t, None off the nodes
        shape = np.broadcast_shapes(*(X.shape for _, X, _, _ in self._terms))
        lead = shape[:len(shape) - grid.dim]
        self.shape = lead + grid.shape
        parts = [X for _, P, Q, _ in self._terms for X in (P, Q) if X is not None]
        if shape[len(lead):] == grid.even_shape:
            self.signature = np.full((int(np.prod(lead)), grid.dim), EVEN, np.int8)
        else:
            self.signature = _signature([np.broadcast_to(X, shape) for X in parts], drift,
                                        grid.dim)
        self.even = not self.signature.any()
        self.free = free = tuple((self.signature == FREE).any(axis=0).tolist())
        real_parts = not any(free) and not any(one_way for *_, one_way in self._terms) and all(
            _is_real(X) for X in parts) and (drift is None or _is_real(drift))
        # (planes: real parts[, imaginary parts]) + lead + block
        self._planes = (1 if real_parts else 2,) + lead + grid.block_shape(free)
        self.out_shape = (int(np.prod(self._planes[:-grid.dim])),) + grid.block_shape(free)
        block = (Ellipsis,) + grid.block(free)
        self._terms = [(c, np.ascontiguousarray(P[block]),
                        None if Q is None else np.ascontiguousarray(Q[block]), one_way)
                       for c, P, Q, one_way in self._terms]
        self._xin = grid.xi_norm(free)

    def _advance(self, t: float) -> None:
        """Bring the state to t: one step of the recurrence, or ``exp`` directly."""
        if t == self._t:
            return
        nodes, i = self._nodes, self._index
        if i is not None and i + 1 < len(nodes) and t == nodes[i + 1]:
            for state, step in zip(self._state, self._steps):
                state *= step
            self._index = i + 1
        else:
            self._state = []
            for c, X, _, one_way in self._terms:
                E = np.exp(1j * t * c * self._xin)
                self._state.append(E * X if one_way else E)
            j = int(np.searchsorted(nodes, t))
            self._index = j if j < len(nodes) and nodes[j] == t else None
        self._t = t

    @functools.cached_property
    def _steps(self) -> list[np.ndarray]:
        return [self.grid.phase_step(c, self.free) for c, *_ in self._terms]

    @functools.cached_property
    def _out_parts(self):
        """The two-way terms' parts and the drift as ``float64`` planes of
        ``spectrum``'s ``out``, and a field for one product."""
        def as_out(X):
            if X is None:
                return None
            X = np.broadcast_to(X, self._planes[1:])
            return np.ascontiguousarray(np.stack([X.real, X.imag][:self._planes[0]]))

        parts = [(None, None) if one_way else (as_out(P), as_out(Q))
                 for _, P, Q, one_way in self._terms]
        drift = self._drift
        if drift is not None:
            drift = np.stack([drift.real, drift.imag][:self._planes[0]])
        return parts, np.empty(self._planes), drift

    def spectrum(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """uhat(t), in FFT storage order, of shape ``self.shape``.

        ``out``, ``float64`` of shape ``out_shape``, takes the planes of the
        block instead (see the class docstring), as the time pass
        (``analysis._time_pass``) fills its buffer: one product of ``Re E_k``
        or ``Im E_k`` with each part's planes per cosine or sine, the first
        into ``out`` and the others into one reused field added to it, and a
        one-way term's state copied in as its real and imaginary planes; no
        field-sized temporary after the first call.  Without ``out``, the
        planes go into a new buffer, which is combined to complex and
        unfolded.
        """
        if out is None:
            planes = self.spectrum(t, np.empty(self.out_shape)).reshape(self._planes)
            u = planes[0] + 1j * planes[1] if len(planes) == 2 else planes[0].astype(complex)
            return u if all(self.free) else self.grid.unfold(u, self.signature)
        if out.shape != self.out_shape:
            raise ShapeError(f"out has shape {out.shape}, expected {self.out_shape}")
        self._advance(t)
        parts, product, drift = self._out_parts
        target = out.reshape(self._planes)
        first = True
        for (_, _, _, one_way), state, (P, Q) in zip(self._terms, self._state, parts):
            if one_way:  # a one-way term makes the planes complex: there are two
                for dst, value in zip(target, (state.real, state.imag)):
                    if first:
                        np.copyto(dst, value)
                    else:
                        dst += value
                first = False
                continue
            for value, part in ((state.real, P), (state.imag, Q)):
                if part is None:
                    continue
                if first:
                    np.multiply(value, part, out=target)
                else:
                    np.multiply(value, part, out=product)
                    target += product
                first = False
        if drift is not None:
            target[self._zero] += t * drift
        return out

    def rate(self, t: float) -> np.ndarray:
        """d/dt uhat(t), the exact differentiated multiplier:
        ``i c|xi| E A`` per one-way term, ``c|xi| (cos Q - sin P)`` per two-way term."""
        self._advance(t)
        out = 0.0
        for (c, X, Q, one_way), state in zip(self._terms, self._state):
            w = c * self._xin
            if one_way:
                out = out + 1j * w * state
                continue
            part = -state.imag * X
            if Q is not None:
                part += state.real * Q
            out = out + w * part
        if self._drift is not None:
            out[self._zero] += self._drift
        return out if all(self.free) else self.grid.unfold(out, self.signature)

    def __call__(self, t: float) -> np.ndarray:
        """u(t) on the physical grid."""
        return inverse_values(self.spectrum(t), self.grid)


_REAL_TOL = 2.0**-12  # largest relative odd-axis Nyquist-plane part a signed pass drops


_EVEN_TOL = 1e-12  # largest relative odd (even) part of an even (odd) component


def _sq(a: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a, its axes after the first flattened."""
    a = np.ascontiguousarray(a).reshape(len(a), -1)
    a = a.view(np.float64) if np.iscomplexobj(a) else a
    return np.array([np.dot(row, row) for row in a])


def _is_even(X: np.ndarray, dim: int) -> bool:
    """Whether ``|X - R_i X| <= _EVEN_TOL |X|`` for each reflection
    ``R_i: m_i -> -m_i mod N`` of X's last ``dim`` axes (FFT storage order),
    from the views of ``_signature``; stops at the first failing axis.  Data
    whose squared norm is not finite have no parity."""
    h = X.shape[-1] // 2
    bound = 0.5 * _EVEN_TOL**2 * np.vdot(X, X).real
    if not np.isfinite(bound):
        return False
    for axis in range(X.ndim - dim, X.ndim):
        head = (slice(None),) * axis
        odd = X[head + (slice(1, h),)] - X[head + (slice(None, h, -1),)]
        if np.vdot(odd, odd).real > bound:
            return False
    return True


def _signature(parts, drift: np.ndarray | None, dim: int) -> np.ndarray:
    """``WaveSampler.signature`` of the parts (arrays of one shape, the
    leading axes flattened into components) and the drift.  Per component j
    and axis i, the parts' squared odd parts ``|X_j - R_i X_j|^2`` (for
    ``R_i: m_i -> -m_i mod N``, which fixes the indices 0 and N/2 and swaps
    m with N - m: twice the squared difference of the views
    ``X[..., 1:N/2]`` and ``X[..., N-1:N/2:-1]``), summed over the parts,
    against ``_EVEN_TOL`` of their summed squared norm: ``EVEN`` within it,
    else ``ODD`` where the even parts, twice the squared sum of those views
    plus four times the squared plane ``m_i = 0``, are; only those views are
    copied, and the even parts only on an axis with an odd component.  An
    axis is ``FREE`` where some component is neither, where the Nyquist
    planes ``m_i = N/2`` of the components odd there hold more than
    ``_REAL_TOL / dim`` of the parts, so that the signed axes drop at most
    ``_REAL_TOL`` of them (on the benchmark's elastic scan: 6.0e-14 at
    lambda = 1, 1.45e-4 at lambda = 2, summed over the axes), and where a
    component with a drift beyond ``_EVEN_TOL`` of its parts is odd.  Parts
    whose squared norm is not finite have no parity: every axis is free."""
    h = parts[0].shape[-1] // 2
    parts = [X.reshape((-1,) + X.shape[X.ndim - dim:]) for X in parts]
    norm = sum(_sq(X) for X in parts)
    if not np.all(np.isfinite(norm)):
        return np.full((len(norm), dim), FREE, np.int8)
    bound = _EVEN_TOL**2 * norm
    odd, free = np.zeros((len(norm), dim), bool), np.zeros(dim, bool)
    for i in range(dim):
        head = (slice(None),) * (i + 1)
        halves = [(X[head + (slice(1, h),)], X[head + (slice(None, h, -1),)]) for X in parts]
        odd[:, i] = sum(2 * _sq(lo - hi) for lo, hi in halves) > bound
        if odd[:, i].any():
            even = sum(2 * _sq(lo + hi) + 4 * _sq(X[head + (0,)])
                       for (lo, hi), X in zip(halves, parts)) <= bound
            free[i] = not np.all(even[odd[:, i]])
    odd &= ~free
    if odd.any():
        nyquist, scale = np.zeros(dim), 0.0
        for X in parts:
            scale += float(np.sqrt(np.vdot(X, X).real))
            for j, i in zip(*np.nonzero(odd)):
                nyquist[i] += float(np.linalg.norm(X[(j,) + (slice(None),) * i + (h,)]))
        free |= nyquist > _REAL_TOL / dim * scale
        if drift is not None:
            moving = np.abs(np.ravel(drift)) > _EVEN_TOL * np.sqrt(norm)
            free |= np.any(odd & moving[:, None], axis=0)
    return np.where(free, FREE, np.where(odd, ODD, EVEN)).astype(np.int8)


def _is_real(X: np.ndarray) -> bool:
    """Whether ``|Im X| <= _EVEN_TOL |X|``, never for a non-finite squared norm."""
    imag = X.imag.ravel()
    bound = _EVEN_TOL**2 * np.vdot(X, X).real
    return bool(np.isfinite(bound) and imag @ imag <= bound)


def halfwave_sampler(f: np.ndarray, grid: GridSpec, c: float,
                     coeffs: np.ndarray | None = None) -> WaveSampler:
    """Sampler of ``e^{i t c sqrt(-Lap)} f`` for scalar samples of shape ``grid.shape``.

    The sampler is ``time_even`` in two cases.  For real f,
    ``u(-t) = conj(u(t))`` because ``|xi|`` is even.  For f whose
    coefficients F are real, such as a modulated Gaussian (an even envelope
    times a carrier), ``u(-t, x) = conj(u(t, -x))``, so
    ``|u(-t, x)|^2 = |u(t, -x)|^2``: folding the time pass is then exact
    only against weights even in x, which the weights of
    ``weights.weighted_spacetime_norm`` and the ball masks of
    ``analysis.local_smoothing_functional`` are.  F counts as real when
    ``|Im F| <= _EVEN_TOL |F|``; the sampler then keeps ``Re F`` and drops
    the rest, which moves a squared norm by that rest's own squared norm,
    about ``_EVEN_TOL^2`` relative: the cross term of the two parts is odd
    under ``(t, x) -> (-t, -x)`` and cancels.  That check runs only for
    complex f.

    Whether f is even in every axis, such as radial data, is decided once,
    on f itself (``_halfwave_coefficients``); the sampler of even f is
    ``even`` and never holds f's full-lattice coefficients.  ``coeffs``, from
    a caller that has them already, are ``_halfwave_coefficients(f, grid)``,
    which the sampler then does not compute again.
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    if coeffs is None:
        coeffs = _halfwave_coefficients(f, grid)
    f = np.asarray(f)
    real = not (np.iscomplexobj(f) and np.any(f.imag))
    # for even f, Im F is the cosine transform of Im f, so by Parseval f's
    # test is F's on the full lattice; the block alone would drop the orbit sizes
    if not real and _is_real(f if coeffs.shape == grid.even_shape else coeffs):
        coeffs = coeffs.real.astype(np.complex128)
        real = True
    return WaveSampler(grid, [(c, coeffs)], time_even=real)


def _halfwave_coefficients(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The coefficients ``forward_values(f, grid)`` of scalar samples f, or,
    for f even in every axis, their block ``grid.even_block`` alone.

    In physical order the reflection ``x -> -x`` is the index map
    ``j -> -j mod N``, as ``m -> -m`` is in FFT storage order, so ``_is_even``
    tests f as it would test F; the DFT is unitary up to a constant and
    commutes with the reflections, so by Parseval both tests agree.  Even f
    has even F, and its forward DFT is the cosine transform of the block
    (``spectral.block_transform`` with every axis even): block index m of
    F is ``dx^n`` times that transform of f at the physical indices
    ``(m + N/2) % N``, where x = dx * m, complex f entering as its real and
    imaginary planes.  Nothing of full-lattice size is transformed or kept.
    """
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ShapeError(f"expected scalar field of shape {grid.shape}, got {f.shape}")
    if not _is_even(f, grid.dim):
        return forward_values(f, grid)
    N = grid.points_per_axis
    index = (np.arange(N // 2 + 1) + N // 2) % N
    block = f[np.ix_(*([index] * grid.dim))]
    planes = np.stack([block.real, block.imag] if np.iscomplexobj(block) else [block])
    planes = planes.astype(np.float64, copy=False)
    F = block_transform(planes, block_matrices(np.zeros((len(planes), grid.dim), bool), grid),
                        np.empty_like(planes), grid)
    F = F[0] + 1j * F[1] if len(F) == 2 else F[0].astype(np.complex128)
    F *= grid.dx**grid.dim
    return F


def _elastic_terms(params: LameParams, grid: GridSpec, f_parts, G=None):
    """The shear and pressure terms of the elastic flow, ``[shear, pressure]``,
    and its drift, from the parts ``_split_spectrum`` of the coefficients of
    f and the coefficients G of g (None for g = 0), split here.  Per
    Helmholtz part with speed c, ``cos(tc|xi|) f + sin(tc|xi|)/(c|xi|) g`` is
    the two-way term ``(c, f, g/(c|xi|))``, its sine part 0 at xi = 0 and
    None when that part of g is identically zero; the drift is g's zero
    mode, all solenoidal."""
    (fP, fQ), speeds = f_parts, (params.shear_speed, params.pressure_speed)
    if G is None:
        return [(c, f_k, None) for c, f_k in zip(speeds, (fQ, fP))], None
    gP, gQ = _split_spectrum(G, grid)
    xin = grid.xi_norm()
    inv = np.divide(1.0, xin, out=np.zeros_like(xin), where=xin > 0)
    terms = [(c, f_k, g_k * (inv / c) if np.any(g_k) else None)  # g/(c|xi|), 0 at xi = 0
             for c, f_k, g_k in zip(speeds, (fQ, fP), (gQ, gP))]
    return terms, gQ[(Ellipsis,) + (0,) * grid.dim].copy()


class ElasticPropagator(WaveSampler):
    """The ``WaveSampler`` of an elastic state: exact-in-time evolution.

    Its terms are those of ``_elastic_terms``; called, it gives the
    displacement as a ``VectorField``.  With zero velocity g it is even in t
    (cosine parts only, no drift), which it states as ``time_even``, and g
    is then neither transformed nor split.  ``coeffs``, from a caller that
    has them already, are the coefficients ``forward_values`` of f and of g
    (None for g = 0), which the propagator then does not compute again.
    """

    def __init__(self, state: ElasticState, params: LameParams, coeffs=None):
        grid = state.grid
        F, G = coeffs or (forward_values(state.f.values, grid), None)
        if G is None and np.any(state.g.values):
            G = forward_values(state.g.values, grid)
        terms, drift = _elastic_terms(params, grid, _split_spectrum(F, grid), G)
        super().__init__(grid, terms, drift, time_even=G is None)

    def __call__(self, t: float) -> VectorField:
        return self.displacement(t)

    def displacement(self, t: float) -> VectorField:
        return VectorField(self.grid, inverse_values(self.spectrum(t), self.grid))

    def velocity(self, t: float) -> VectorField:
        return VectorField(self.grid, inverse_values(self.rate(t), self.grid))

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
    xi = grid.xi_open()
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
    xi = grid.xi_open()
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
