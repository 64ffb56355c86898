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
an exact-in-t recurrence rather than re-evaluating them.  It keeps each
Helmholtz part in the form above, as the term ``(c, cosine part fhat_*,
sine part ghat_*/(c|xi|) or None)``, the sine part None when ``ghat_* = 0``
(data at rest), and reads cos and sin off the phase ``e^{itc|xi|}``; its
``spectrum(t, out=...)`` writes single-precision coefficients, for the
one-way half-wave term and the two-way elastic terms alike.  Real data
``(f, g)`` give a real displacement (the multipliers are real and even in
xi), except on the lattice planes where some ``xi_i = -N/2 dxi``: that mode
has no ``+N/2 dxi`` partner, so ``P(xi)`` is not even in the mode index there.
When that part is small, ``out`` holds the real parts of the components two
per complex field, ``Re u_0 + i Re u_1, Re u_2 (+ i Re u_3), ...``, whose
modulus squared is ``|Re u_0|^2 + |Re u_1|^2``: the time pass transforms half
the fields in 2-d and two of three in 3-d.  Data even in every axis, such
as radial scalar data, stay even, since the multipliers depend on |xi| only:
such a sampler keeps its parts and its state on the block ``[:N/2 + 1]^n``
of FFT storage order (``GridSpec.even_block``), one point per orbit of the
axis reflections, and the time pass transforms that block alone (see
``analysis._time_pass``).  Convention at the zero mode:
P(0) = 0, Q(0) = I, and ``uhat(0,t) = fhat(0) + t ghat(0)`` (the
free-particle limit of the ODE).
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

    ``real`` is true when the constructor is told ``real_data`` (two-way
    terms of real data, so every part X is Hermitian off the Nyquist planes
    ``m_i = -N/2``) and the parts' anti-Hermitian part on those planes, which
    is ``Im u``, is at most ``_REAL_TOL`` of them.  A real sampler of k >= 2
    components packs the real parts of its components two per field in
    ``spectrum``'s ``out``, whose shape is ``out_shape`` (``shape`` when
    nothing is packed).  A pass over it measures ``|Re u|^2``, short of
    ``|u|^2`` by ``|Im u|^2``, where ``|Im u(t)|_2 <= _REAL_TOL sum_X |X|_2``
    (``_REAL_TOL^2`` is 6e-8); for resolved data ``Im u`` is rounding.

    ``even`` is true when every part X is even in every axis, to
    ``|X - R_i X| <= _EVEN_TOL |X|`` for each reflection
    ``R_i: m_i -> -m_i mod N``, and nothing is packed (an elastic part
    ``xi_i xi_j / |xi|^2 fhat`` is odd in axes i and j, so only constant
    elastic data would be even).  An even sampler keeps its parts, its |xi|
    and its state on the block ``grid.even_block``, and ``out_shape`` is the
    block: ``spectrum``'s ``out`` takes the block only, and the time pass
    transforms it with ``spectral.cosine_transform``.  ``spectrum`` without
    ``out``, ``rate`` and ``__call__`` still give the full lattice, each
    unfolded once from the block (``GridSpec.unfold``).  The parts' odd
    remainder, at most ``_EVEN_TOL``, is dropped; radial data on any grid
    carry only rounding there.
    """

    def __init__(self, grid: GridSpec, terms, drift: np.ndarray | None = None,
                 time_even: bool = False, real_data: bool = False):
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
        self._single = None  # single-precision parts, built at the first ``out=`` call
        self.shape = np.broadcast_shapes(*(X.shape for _, X, _, _ in self._terms))
        parts = [X for _, P, Q, _ in self._terms for X in (P, Q) if X is not None]
        self.real = real_data and bool(
            sum(_nyquist_defect(X, grid.dim) for X in parts)
            <= _REAL_TOL * sum(np.sqrt(np.vdot(X, X).real) for X in parts))
        self.out_shape = self.shape
        self._packing = self.real and len(self.shape) > grid.dim and self.shape[0] > 1
        if self._packing:
            self.out_shape = ((self.shape[0] + 1) // 2,) + self.shape[1:]
        self.even = not self._packing and all(_is_even(X, grid.dim) for X in parts)
        if self.even:
            block = (Ellipsis,) + grid.even_block
            self._terms = [(c, np.ascontiguousarray(P[block]),
                            None if Q is None else np.ascontiguousarray(Q[block]), one_way)
                           for c, P, Q, one_way in self._terms]
            self.out_shape = self.shape[:len(self.shape) - grid.dim] + grid.even_shape
        self._xin = grid.xi_norm(self.even)

    def _advance(self, t: float) -> None:
        """Bring the state to t: one step of the recurrence, or ``exp`` directly."""
        if t == self._t:
            return
        nodes, i = self._nodes, self._index
        if i is not None and i + 1 < len(nodes) and t == nodes[i + 1]:
            for state, (c, _, _, _) in zip(self._state, self._terms):
                state *= self.grid.phase_step(c, self.even)
            self._index = i + 1
        else:
            self._state = []
            for c, X, _, one_way in self._terms:
                E = np.exp(1j * t * c * self._xin)
                self._state.append(E * X if one_way else E)
            j = int(np.searchsorted(nodes, t))
            self._index = j if j < len(nodes) and nodes[j] == t else None
        self._t = t

    def _single_parts(self):
        """The cosine and sine parts in ``complex64`` and the drift, as
        ``spectrum``'s ``out`` takes them (for a real sampler, those of
        ``Re u``, packed); a ``complex64`` buffer for one cosine or sine
        (imaginary half zero), and a field for one product.  A sampler of
        one-way terms only needs no parts or buffers."""
        if self._single is None:
            packed = self._packing

            def single(X):
                if X is None:
                    return None
                return (_packed(_hermitian_at_nyquist(X, self.grid.dim)) if packed
                        else X).astype(np.complex64)

            parts = [(None, None) if one_way else (single(P), single(Q))
                     for _, P, Q, one_way in self._terms]
            drift = self._drift
            if drift is not None and packed:
                drift = _packed(drift)  # the zero mode of real data is real
            if all(one_way for _, _, _, one_way in self._terms):
                self._single = (parts, None, None, drift)
            else:
                self._single = (parts, np.zeros(self._xin.shape, np.complex64),
                                np.empty(self.out_shape, np.complex64), drift)
        return self._single

    def spectrum(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """uhat(t), in FFT storage order, of shape ``self.shape``.

        ``out``, a ``complex64`` array of shape ``out_shape``, takes the terms
        in single precision, whichever their kind; for a real sampler it holds
        the packed coefficients of ``Re u_0 + i Re u_1, Re u_2 (+ i Re u_3),
        ...``, which cost half the multiplies.  A one-way term is copied in
        under ``same_kind`` casting.  For a two-way term, ``cos = Re E_k`` and
        ``sin = Im E_k`` are each cast once into the real half of one reused
        ``complex64`` buffer and multiplied with ``complex64`` copies of its
        parts, built at the first such call; the first product goes into
        ``out``, the others into one reused field that is added to it.  (A
        ``float32`` buffer would give the same values, but numpy has no mixed
        ``float32 * complex64`` loop and buffers the cast, three times
        slower.)  No field-sized temporary is allocated.  The phases stay
        ``complex128``, so each part carries a few single-precision roundings.
        This is how the time pass (``analysis._time_pass``) fills its
        transform buffer; it reduces in ``float64``, so its norms carry about
        1e-7 relative rounding.  Without ``out``, a lone one-way term comes
        back as a read-only view of the state, valid until the next call, and
        anything else in a new ``complex128`` array, in double precision; an
        ``even`` sampler's come back unfolded to the full lattice, in a new
        array either way.
        """
        self._advance(t)
        drift = self._drift
        unfold = out is None and self.even
        if out is None:
            if drift is None and len(self._terms) == 1 and self._terms[0][3]:
                if unfold:
                    return self.grid.unfold(self._state[0])
                view = self._state[0].view()
                view.setflags(write=False)
                return view
            out = np.empty(self.out_shape if self.even else self.shape, np.complex128)
            parts = [(P, Q) for _, P, Q, _ in self._terms]
            trig, product = None, np.empty_like(out)
        else:
            if out.shape != self.out_shape:
                raise ShapeError(f"out has shape {out.shape}, expected {self.out_shape}")
            parts, trig, product, drift = self._single_parts()
        first = True
        for (_, _, _, one_way), state, (P, Q) in zip(self._terms, self._state, parts):
            if one_way:
                if first:
                    np.copyto(out, state, casting="same_kind")
                else:
                    out += state
                first = False
                continue
            for value, part in ((state.real, P), (state.imag, Q)):
                if part is None:
                    continue
                if trig is not None:
                    np.copyto(trig.real, value, casting="same_kind")
                    value = trig
                if first:
                    np.multiply(value, part, out=out)
                else:
                    np.multiply(value, part, out=product)
                    out += product
                first = False
        if drift is not None:
            out[self._zero] += t * drift
        return self.grid.unfold(out) if unfold else out

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
        return self.grid.unfold(out) if self.even else out

    def __call__(self, t: float) -> np.ndarray:
        """u(t) on the physical grid."""
        return inverse_values(self.spectrum(t), self.grid)


_REAL_TOL = 2.0**-12  # largest relative Nyquist-plane part a real sampler packs


_EVEN_TOL = 1e-12  # largest relative odd part of an even sampler's parts


def _is_even(X: np.ndarray, dim: int) -> bool:
    """Whether ``|X - R_i X| <= _EVEN_TOL |X|`` for each reflection
    ``R_i: m_i -> -m_i mod N`` of X's last ``dim`` axes (FFT storage order).
    R_i fixes the indices 0 and N/2 and swaps m with N - m, so
    ``|X - R_i X|^2`` is twice the squared difference of the views
    ``X[..., 1:N/2]`` and ``X[..., N-1:N/2:-1]`` along the axis; nothing is
    copied but that difference.  Stops at the first failing axis."""
    h = X.shape[-1] // 2
    bound = 0.5 * _EVEN_TOL**2 * np.vdot(X, X).real
    for axis in range(X.ndim - dim, X.ndim):
        head = (slice(None),) * axis
        odd = X[head + (slice(1, h),)] - X[head + (slice(None, h, -1),)]
        if np.vdot(odd, odd).real > bound:
            return False
    return True


def _is_real(X: np.ndarray) -> bool:
    """Whether ``|Im X| <= _EVEN_TOL |X|``."""
    imag = X.imag.ravel()
    return bool(imag @ imag <= _EVEN_TOL**2 * np.vdot(X, X).real)


def _nyquist_planes(X: np.ndarray, dim: int):
    """Each lattice plane ``m_i = -N/2`` of X's last ``dim`` axes (a view; index
    N/2 in FFT storage order) with its reflection ``conj X(-m)``, which maps
    the plane onto itself."""
    N = X.shape[-1]
    axes = tuple(range(1 - dim, 0))
    for i in range(dim):
        plane = X[(Ellipsis, N // 2) + (slice(None),) * (dim - 1 - i)]
        yield plane, np.roll(np.flip(plane, axes), 1, axes).conj()


def _nyquist_defect(X: np.ndarray, dim: int) -> float:
    """The norm of X's anti-Hermitian part on the Nyquist planes, counted once
    per plane."""
    return sum(float(np.linalg.norm(p - m)) for p, m in _nyquist_planes(X, dim)) / 2


def _hermitian_at_nyquist(X: np.ndarray, dim: int) -> np.ndarray:
    """X with its Nyquist planes made Hermitian: the coefficients of Re u when
    X holds those of a u whose coefficients are Hermitian elsewhere."""
    X = X.copy()
    for plane, mirror in _nyquist_planes(X, dim):
        plane += mirror
        plane *= 0.5
    return X


def _packed(X: np.ndarray) -> np.ndarray:
    """``X[0] + i X[1], X[2] + i X[3], ...``, an odd last component alone: the
    coefficients of ``u_0 + i u_1, ...`` when X holds those of real u_j."""
    out = X[0::2].astype(np.complex128)
    out[: len(X) // 2] += 1j * X[1::2]
    return out


def halfwave_sampler(f: np.ndarray, grid: GridSpec, c: float) -> WaveSampler:
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
    complex f.  For f even in every axis, such as radial data, the sampler
    is ``even``.
    """
    return _halfwave_sampler(f, grid, c)


def _halfwave_sampler(f: np.ndarray, grid: GridSpec, c: float,
                      coeffs: np.ndarray | None = None) -> WaveSampler:
    """``halfwave_sampler``, taking f's coefficients ``forward_values(f, grid)``
    from a caller that has them already."""
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ShapeError(f"expected scalar field of shape {grid.shape}, got {f.shape}")
    real = not np.any(np.imag(f))
    if coeffs is None:
        coeffs = forward_values(f, grid)
    if not real and _is_real(coeffs):
        coeffs = coeffs.real.astype(np.complex128)
        real = True
    return WaveSampler(grid, [(c, coeffs)], time_even=real)


class ElasticPropagator:
    """Exact-in-time evolution of an elastic state through one ``WaveSampler``.

    Per Helmholtz part with speed c, ``cos(tc|xi|) f + sin(tc|xi|)/(c|xi|) g``
    is the two-way term ``(c, f, g/(c|xi|))``, its sine part 0 at xi = 0 and
    None when that part of g is identically zero.  Called as a sampler, the
    propagator gives the displacement, and its ``spectrum`` gives the
    displacement's coefficients to the time accumulators; with zero velocity
    g it is even in t (cosine parts only, no drift), which it states as
    ``time_even``, and g is then neither transformed nor split.  Data f and g
    with no nonzero imaginary part are real data for ``WaveSampler``, which
    works out ``real`` from them; the imaginary rounding of, say, a Helmholtz
    part from ``helmholtz_split`` makes data complex.
    """

    def __init__(self, state: ElasticState, params: LameParams):
        self.grid = state.grid
        self.params = params
        grid = self.grid
        fP, fQ = _split_spectrum(forward_values(state.f.values, grid), grid)
        self.time_even = not np.any(state.g.values)
        terms = [(c, f_k, None) for c, f_k in ((params.shear_speed, fQ),
                                              (params.pressure_speed, fP))]
        drift = None
        if not self.time_even:
            gP, gQ = _split_spectrum(forward_values(state.g.values, grid), grid)
            drift = gQ[(Ellipsis,) + (0,) * grid.dim].copy()  # the zero mode is all in Q
            xin = grid.xi_norm()
            inv = np.divide(1.0, xin, out=np.zeros_like(xin), where=xin > 0)
            terms = [(c, f_k, g_k * (inv / c) if np.any(g_k) else None)  # g/(c|xi|), 0 at xi = 0
                     for (c, f_k, _), g_k in zip(terms, (gQ, gP))]
        real_data = not (np.any(state.f.values.imag) or np.any(state.g.values.imag))
        self._sampler = WaveSampler(grid, terms, drift, self.time_even, real_data)
        self.real = self._sampler.real
        self.even = self._sampler.even
        self.shape = self._sampler.shape
        self.out_shape = self._sampler.out_shape

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
