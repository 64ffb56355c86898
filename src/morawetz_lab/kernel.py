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
summed in blocks of ``BLOCK_NODES`` nodes, so memory stays bounded.

On the light cone |z| = |tau| one oscillation is stationary and |I_k| decays
like distance^{-(n-1)/2}; off the cone (|z| >= 2|tau|) the decay is
superpolynomial.  ``decay_fit`` measures both slopes.
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

# nodes handed to the integrand at once (a few MB of working arrays), so the
# memory of a pass does not grow with its node count
BLOCK_NODES = 2**15

# absolute floor of the stop rule, relative to the natural scale 2^{nk}: a
# value below it is oscillatory cancellation noise
ABS_FLOOR = 1e-13

# nodes of the finest trapezoid rule allowed: a cap on the time of one
# evaluation, not on its memory; a decay fit at k = 8 out to distance 1000
# needs 0.69M
MAX_PASS_NODES = 2**23

# halvings of the step allowed after the first pass
MAX_DOUBLINGS = 18


def _panelled_gauss(f, a: float, b: float, panels: int) -> complex:
    """Midpoint sum of f over ``panels`` equal panels of [a, b], in blocks of nodes."""
    h = (b - a) / panels
    total = 0j
    for first in range(0, panels, BLOCK_NODES):
        total += np.sum(f(a + h * (np.arange(first, min(first + BLOCK_NODES, panels)) + 0.5)))
    return complex(h * total)


def _radial_integrand(q: KernelQuery):
    cutoff = default_cutoff()
    za, tau, k = q.z_abs, q.tau, q.k
    scale = 2.0**-k
    if q.n == 2:
        return lambda r: np.exp(1j * tau * r) * j0(za * r) * cutoff(scale * r) ** 2 * r
    return (
        lambda r: np.exp(1j * tau * r) * sphere_sinc(za * r) * cutoff(scale * r) ** 2 * r**2
    )


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
    below which the value is oscillatory cancellation noise.

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
    if not rtol >= 0:
        raise DomainError(f"rtol must be nonnegative, got {rtol}")
    a, b = 2.0 ** (q.k - 1), 2.0 ** (q.k + 1)
    f = _radial_integrand(q)
    prefactor = 2 * np.pi if q.n == 2 else 4 * np.pi
    scale0 = 2.0 ** (q.n * q.k)
    oscillation = abs(q.tau) + q.z_abs
    start = np.maximum(8.0, np.ceil((b - a) * oscillation / (np.pi / 2.0)))
    if not start <= MAX_PASS_NODES:  # also refuses inf and nan
        raise DomainError(
            f"kernel quadrature at k={q.k}, |z| + |tau| = {oscillation:.3g} needs "
            f"{start:.3g} nodes per pass, over the budget of {MAX_PASS_NODES}"
        )
    panels = int(start)
    h = (b - a) / panels
    value = _panelled_gauss(f, a - h / 2, b - h / 2, panels)
    achieved = None
    for _ in range(MAX_DOUBLINGS):
        if 2 * panels > MAX_PASS_NODES:
            break
        new = 0.5 * (value + _panelled_gauss(f, a, b, panels))
        panels *= 2
        change = abs(new - value)
        if change <= rtol * abs(new) + ABS_FLOOR * scale0:
            return prefactor * new
        value = new
        achieved = change / max(abs(new), 1e-300)
    last = "no doubling" if achieved is None else f"last relative change {achieved:.2e}"
    raise AccuracyError(
        f"kernel quadrature did not reach rtol={rtol} within {MAX_DOUBLINGS} doublings "
        f"of at most {MAX_PASS_NODES} nodes per pass ({last})",
        achieved=achieved,
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log10 |I_k| against log10 distance.

    ``below_floor`` counts the samples under the quadrature's absolute floor
    ``ABS_FLOOR * 2^{nk}``: they are cancellation noise, yet still fitted.
    """

    regime: str
    slope: float
    intercept: float
    r2: float
    sample_range: float  # decades spanned by the distances
    distances: tuple[float, ...]
    values: tuple[float, ...]
    below_floor: int


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
    """
    if regime not in (ON_CONE, OFF_CONE):
        raise DomainError(f"regime must be {ON_CONE!r} or {OFF_CONE!r}")
    d = np.asarray(sorted(float(x) for x in distances))
    if d.size < 3 or d[0] <= 0:
        raise DomainError("need at least three positive distances")
    decades = float(np.log10(d[-1] / d[0]))
    if decades < 2.0:
        raise DomainError(f"distances must span >= 2 decades, got {decades:.2f}")

    values = []
    for dist in d:
        if regime == ON_CONE:
            q = KernelQuery(z=(dist / np.sqrt(2.0),), tau=dist / np.sqrt(2.0), k=k, n=n)
        else:
            if dist < 2 * abs(tau):
                raise DomainError("off-cone samples need |z| >= 2|tau|")
            q = KernelQuery(z=(dist,), tau=tau, k=k, n=n)
        values.append(abs(kernel_value(q, rtol=rtol)))
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
    )
