"""Frequency-localized oscillatory kernel and its decay regimes.

The kernel is

    I_k(z, tau) = int_{R^n} e^{i z.xi + i tau |xi|} phi(2^{-k}|xi|)^2 dxi,

supported on the dyadic annulus |xi| in (2^{k-1}, 2^{k+1}).  Radial reduction
collapses it to a one-dimensional oscillatory integral over [a, b] =
[2^{k-1}, 2^{k+1}]:

    n = 2:  2 pi  int e^{i tau r} J0(|z| r)        phi(2^{-k} r)^2 r   dr
    n = 3:  4 pi  int e^{i tau r} sin(|z|r)/(|z|r) phi(2^{-k} r)^2 r^2 dr

The factor phi(2^{-k} r)^2 vanishes to all orders at a and b, so by
Euler-Maclaurin the trapezoid rule T_m with m panels converges faster than
any power of 1/m, and it nests.  ``kernel_value`` starts at a step of a
quarter of the fastest wavelength and halves it, T_2m = (T_m + M_m) / 2 with
M_m the midpoint sum of the m panels, until a halving changes the value by
less than the requested relative accuracy.  Every pass is a midpoint sum,
summed in runs of ``BLOCK_NODES`` nodes, so memory stays bounded.

On the light cone |z| = |tau| one oscillation is stationary and |I_k| decays
like distance^{-(n-1)/2}; off the cone (|z| >= 2|tau|) the decay is
superpolynomial.  ``decay_fit`` measures both slopes.  It runs the rule for
all of its distances in lockstep (``_kernel_values``, of which
``kernel_value`` is the one-query case): each pass packs the new nodes of
every distance not yet converged into integrand calls of at most
``PACK_NODES`` nodes (or one run of up to ``BLOCK_NODES``), with |z| and tau
given per node, and sums each distance's runs as that distance alone would,
so every value keeps its bits while a fit of short passes makes a few calls
instead of one per pass.  ``DecayFit`` counts the integrand nodes and calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bessel import j0, sphere_sinc
from .cutoff import default_cutoff
from .errors import AccuracyError, DomainError

__all__ = [
    "KernelQuery",
    "DecayFit",
    "ON_CONE",
    "OFF_CONE",
    "kernel_value",
    "decay_fit",
]

ON_CONE = "oncone"
OFF_CONE = "offcone"


@dataclass(frozen=True)
class KernelQuery:
    """One kernel evaluation point: spatial offset z, time offset tau, level k."""

    z: tuple[float, ...]
    tau: float
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.n}")
        if len(self.z) not in (1, self.n):
            # a 1-tuple is accepted as shorthand for |z| along the first axis
            raise DomainError(f"z must have length {self.n} (or 1), got {len(self.z)}")
        # the band edges 2^(k-1), 2^(k+1), the cutoff scale 2^-k and the natural
        # scale 2^(nk) must all be finite nonzero floats
        lo, hi = np.finfo(float).minexp, np.finfo(float).maxexp
        if not all(lo <= e < hi for e in (self.k - 1, self.k + 1, -self.k, self.n * self.k)):
            raise DomainError(f"level k={self.k} puts 2^(k+-1), 2^-k or 2^(nk) out of float range")

    @property
    def z_abs(self) -> float:
        return math.hypot(*self.z)


# one node per panel, at its centre: every pass is the one-point Gauss
# (midpoint) rule, and counters read len(_GL_X) as the nodes per panel
_GL_X = np.zeros(1)

# nodes summed as one run, and the most handed to the integrand at once (a few
# MB of working arrays), so the memory of a pass does not grow with its node
# count
BLOCK_NODES = 2**15

# nodes a lockstep pass packs into one integrand call from the runs of several
# queries; a longer run goes alone.  Packed to BLOCK_NODES, the benchmark's
# quadrature workload peaked 2.2 MB higher and ran no faster.
PACK_NODES = 2**14

# absolute floor of the stop rule, relative to the natural scale 2^{nk}: a
# value below it is oscillatory cancellation noise
ABS_FLOOR = 1e-13

# nodes of the finest trapezoid rule allowed: a cap on the time of one
# evaluation, not on its memory; a decay fit at k = 8 out to distance 1000
# needs 0.69M
MAX_PASS_NODES = 2**23

# halvings of the step allowed after the first pass
MAX_DOUBLINGS = 18

# distances of one decay fit, each a kernel evaluation: far above the 13 of
# kernel-decay's default, below a count whose tables would not fit in memory
MAX_DISTANCES = 2**10


def _midpoint_sums(f, lo: np.ndarray, hi: np.ndarray, panels: np.ndarray, za: np.ndarray,
                   tau: np.ndarray) -> tuple[list[complex], int]:
    """Midpoint sums of f(r, |z|, tau) over ``panels[i]`` equal panels of
    [lo[i], hi[i]] at |z| = za[i] and tau[i], for every i, and the number of
    integrand calls made.

    Each interval's nodes are cut into runs of ``BLOCK_NODES`` from its first
    node, as if it were summed alone; the runs are packed, in order, into
    integrand calls of at most ``PACK_NODES`` nodes, or of one longer run,
    with |z| and tau given per node.  Each run is summed with ``np.sum`` and
    an interval adds its runs in order, so every sum has the bits of its
    interval on its own, f being elementwise (``bessel.j0`` included).
    """
    h = (hi - lo) / panels
    runs = [(i, first, min(first + BLOCK_NODES, int(p)))
            for i, p in enumerate(panels) for first in range(0, int(p), BLOCK_NODES)]
    totals = [0j] * len(panels)
    calls = start = 0
    while start < len(runs):
        stop, size = start, 0
        while stop < len(runs) and (stop == start
                                    or size + runs[stop][2] - runs[stop][1] <= PACK_NODES):
            size += runs[stop][2] - runs[stop][1]
            stop += 1
        batch = runs[start:stop]
        owner = np.repeat([i for i, _, _ in batch], [last - first for _, first, last in batch])
        r = np.concatenate([lo[i] + h[i] * (np.arange(first, last) + 0.5)
                            for i, first, last in batch])
        values = f(r, za[owner], tau[owner])
        calls += 1
        offset = 0
        for i, first, last in batch:
            totals[i] += np.sum(values[offset:offset + last - first])
            offset += last - first
        start = stop
    return [complex(h[i] * total) for i, total in enumerate(totals)], calls


def _panelled_gauss(f, a: float, b: float, panels: int) -> complex:
    """Midpoint sum of f(r) over ``panels`` equal panels of [a, b], through
    ``_midpoint_sums``.  The package's passes call ``_midpoint_sums`` directly;
    this name stays because ``perfbench/tracing.py`` wraps it."""
    [total], _ = _midpoint_sums(lambda r, za, tau: f(r), np.array([a]), np.array([b]),
                                np.array([panels]), np.zeros(1), np.zeros(1))
    return total


def _radial_integrand(n: int, k: int):
    """The radial integrand of I_k in dimension n, a function of the nodes r
    and of |z| and tau at each node."""
    cutoff = default_cutoff()
    scale = 2.0**-k
    if n == 2:
        return lambda r, za, tau: np.exp(1j * tau * r) * j0(za * r) * cutoff(scale * r) ** 2 * r
    return (lambda r, za, tau:
            np.exp(1j * tau * r) * sphere_sinc(za * r) * cutoff(scale * r) ** 2 * r**2)


def _kernel_values(queries: Sequence[KernelQuery], rtol: float) -> tuple[list[complex], int, int]:
    """I_k at every query (all of one k and n), by the nested trapezoid rule
    of ``kernel_value`` run in lockstep; and the integrand evaluations and
    calls it made.

    Each pass gathers the nodes of every query still running and hands them
    to ``_midpoint_sums``, so every value has the bits that the query gives
    on its own.  A query fails as
    ``kernel_value`` describes, and the error raised is that of the first
    failing query in the given order: once a query fails, the queries after
    it are dropped.
    """
    if not rtol >= 0:
        raise DomainError(f"rtol must be nonnegative, got {rtol}")
    k, n = queries[0].k, queries[0].n
    a, b = 2.0 ** (k - 1), 2.0 ** (k + 1)
    f = _radial_integrand(n, k)
    prefactor = 2 * np.pi if n == 2 else 4 * np.pi
    floor = ABS_FLOOR * 2.0 ** (n * k)
    za = np.array([q.z_abs for q in queries])
    tau = np.array([q.tau for q in queries])
    with np.errstate(over="ignore"):  # a huge distance asks for inf nodes, refused below
        oscillation = np.abs(tau) + za
        start = np.maximum(8.0, np.ceil((b - a) * oscillation / (np.pi / 2.0)))
    live, failure = list(range(len(queries))), None
    over = np.flatnonzero(~(start <= MAX_PASS_NODES))  # also refuses inf and nan
    if over.size:
        i, live = int(over[0]), live[:over[0]]
        failure = DomainError(
            f"kernel quadrature at k={k}, |z| + |tau| = {oscillation[i]:.3g} needs "
            f"{start[i]:.3g} nodes per pass, over the budget of {MAX_PASS_NODES}"
        )
        if not live:
            raise failure
    panels = start[live].astype(np.int64)
    h = (b - a) / panels
    value, calls = _midpoint_sums(f, a - h / 2, b - h / 2, panels, za[live], tau[live])
    nodes = int(panels.sum())
    achieved: list[float | None] = [None] * len(live)
    result: list[complex] = [0j] * len(live)

    def accuracy_error(i: int) -> AccuracyError:
        last = "no doubling" if achieved[i] is None else f"last relative change {achieved[i]:.2e}"
        return AccuracyError(
            f"kernel quadrature did not reach rtol={rtol} within {MAX_DOUBLINGS} doublings "
            f"of at most {MAX_PASS_NODES} nodes per pass ({last})",
            achieved=achieved[i],
        )

    for _ in range(MAX_DOUBLINGS):
        stuck = [i for i in live if 2 * panels[i] > MAX_PASS_NODES]
        if stuck:  # earlier than any failure so far: later queries are gone
            failure, live = accuracy_error(stuck[0]), live[:live.index(stuck[0])]
        if not live:
            break
        mids, c = _midpoint_sums(f, np.full(len(live), a), np.full(len(live), b), panels[live],
                                 za[live], tau[live])
        calls += c
        nodes += int(panels[live].sum())
        panels[live] *= 2
        running = []
        for i, m in zip(live, mids):
            new = 0.5 * (value[i] + m)
            change = abs(new - value[i])
            if change <= rtol * abs(new) + floor:
                result[i] = prefactor * new
            else:
                value[i] = new
                achieved[i] = change / max(abs(new), 1e-300)
                running.append(i)
        live = running
    if live:
        failure = accuracy_error(live[0])
    if failure is not None:
        raise failure
    return result, nodes, calls


def kernel_value(q: KernelQuery, rtol: float = 1e-8) -> complex:
    """Evaluate I_k by the nested trapezoid rule on the band [a, b].

    The rule starts at a step of a quarter of the fastest wavelength,
    m = max(8, ceil((b - a)(|z| + |tau|) / (pi/2))) panels of width h.  The
    integrand vanishes at a and b, so T_m is the midpoint sum over
    [a - h/2, b - h/2]: one pass, each node evaluated once.  Each doubling is
    T_2m = (T_m + M_m) / 2, where M_m is the midpoint sum of the m panels of
    [a, b], so it evaluates only the new nodes.  Converged when a doubling
    changes the value by at most ``rtol`` relatively, with an absolute floor
    at ``ABS_FLOOR`` (1e-13) of the kernel's natural scale 2^{nk} ~ I_k(0,0),
    below which the value is oscillatory cancellation noise.  This is the
    one-query case of the lockstep rule that ``decay_fit`` runs.

    Raises
    ------
    AccuracyError
        If the doubling loop does not converge within ``MAX_DOUBLINGS``, or
        before the rule would exceed ``MAX_PASS_NODES`` nodes; carries the
        achieved change (None if no doubling ran).
    DomainError
        If ``rtol`` is negative (no doubling could meet it), or if the node
        count of the first pass is not finite or exceeds ``MAX_PASS_NODES``
        (large k or distance).
    """
    return _kernel_values([q], rtol)[0][0]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log10 |I_k| against log10 distance.

    ``below_floor`` counts the samples under the quadrature's absolute floor
    ``ABS_FLOOR * 2^{nk}``: they are cancellation noise, yet still fitted.
    ``nodes`` counts the integrand evaluations of the fit's quadrature and
    ``calls`` the integrand calls they took, at most ``BLOCK_NODES`` nodes each.
    """

    regime: str
    slope: float
    intercept: float
    r2: float
    sample_range: float  # decades spanned by the distances
    distances: tuple[float, ...]
    values: tuple[float, ...]
    below_floor: int
    nodes: int
    calls: int


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line through (x, y): slope, intercept, the slope's
    standard error and r^2 (1 for constant y)."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(ss_res / max(len(x) - 2, 1) / sxx)) if sxx > 0 else float("nan")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), stderr, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def decay_fit(
    regime: str,
    k: int,
    n: int,
    distances: Sequence[float],
    tau: float = 0.0,
    rtol: float = 1e-8,
) -> DecayFit:
    """Fit the kernel decay exponent along a regime-specific ray.

    ``oncone``: samples at |z| = |tau| = D/sqrt(2) so |(z, tau)| = D; the
    stationary-phase rate is -(n-1)/2.  ``offcone``: samples at |z| = D with
    tau fixed (|z| >= 2|tau| enforced); the decay is superpolynomial, so the
    fitted slope is steeply negative.

    Every distance is evaluated as ``kernel_value`` evaluates it, to the same
    bits, but all of them in lockstep: each pass
    gathers the new nodes of every distance not yet converged.  If several
    distances fail, the fit raises the error of the nearest one, as
    evaluating them one by one from the nearest would.
    """
    if regime not in (ON_CONE, OFF_CONE):
        raise DomainError(f"regime must be {ON_CONE!r} or {OFF_CONE!r}")
    if not 3 <= len(distances) <= MAX_DISTANCES:
        raise DomainError(f"need 3 to {MAX_DISTANCES} distances, got {len(distances)}")
    d = np.asarray(sorted(float(x) for x in distances))
    if d[0] <= 0:
        raise DomainError("need positive distances")
    decades = float(np.log10(d[-1] / d[0]))
    if decades < 2.0:
        raise DomainError(f"distances must span >= 2 decades, got {decades:.2f}")

    queries = []
    for dist in d:
        if regime == ON_CONE:
            queries.append(KernelQuery(z=(dist / np.sqrt(2.0),), tau=dist / np.sqrt(2.0),
                                       k=k, n=n))
        else:
            if dist < 2 * abs(tau):
                raise DomainError("off-cone samples need |z| >= 2|tau|")
            queries.append(KernelQuery(z=(dist,), tau=tau, k=k, n=n))
    kernel, nodes, calls = _kernel_values(queries, rtol)
    values = [abs(v) for v in kernel]
    vals = np.maximum(np.asarray(values), 1e-300)

    slope, intercept, _, r2 = _linear_fit(np.log10(d), np.log10(vals))
    return DecayFit(
        regime=regime,
        slope=slope,
        intercept=intercept,
        r2=r2,
        sample_range=decades,
        distances=tuple(float(x) for x in d),
        values=tuple(float(v) for v in values),
        below_floor=int(np.sum(np.asarray(values) < ABS_FLOOR * 2.0 ** (n * k))),
        nodes=nodes,
        calls=calls,
    )
