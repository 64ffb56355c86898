"""Frequency-localized oscillatory kernel and its decay regimes.

The kernel is

    I_k(z, tau) = int_{R^n} e^{i z.xi + i tau |xi|} phi(2^{-k}|xi|)^2 dxi,

supported on the dyadic annulus |xi| in (2^{k-1}, 2^{k+1}).  Radial reduction
collapses it to a one-dimensional oscillatory integral:

    n = 2:  2 pi  int e^{i tau r} J0(|z| r)        phi(2^{-k} r)^2 r   dr
    n = 3:  4 pi  int e^{i tau r} sin(|z|r)/(|z|r) phi(2^{-k} r)^2 r^2 dr

evaluated by panelled Gauss quadrature with panel size capped at a quarter of
the local oscillation wavelength, then panel-doubled until the step-halving
change is below the requested relative accuracy.

On the light cone |z| = |tau| one oscillation is stationary and |I_k| decays
like distance^{-(n-1)/2}; off the cone (|z| >= 2|tau|) the decay is
superpolynomial.  ``decay_fit`` measures both slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bessel import j0, sphere_sinc
from .cutoff import DyadicCutoff, default_cutoff
from .errors import AccuracyError, DomainError

__all__ = [
    "KernelQuery",
    "DecayFit",
    "ON_CONE",
    "OFF_CONE",
    "kernel_value",
    "kernel_value_bruteforce",
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

    @property
    def z_abs(self) -> float:
        return float(np.sqrt(sum(c * c for c in self.z)))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# integrand nodes allowed in one panelled pass: about 0.9 GB of working
# arrays (~110 bytes per node), nine times the largest pass a two-decade
# decay fit at k = 3 and distance 1250 needs (~0.9M nodes)
MAX_PASS_NODES = 2**23


def _panelled_gauss(f, a: float, b: float, panels: int) -> complex:
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_X[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_W, (panels, _GL_X.size)).ravel()
    return complex(np.sum(f(nodes) * weights))


def _radial_integrand(q: KernelQuery, cutoff: DyadicCutoff):
    za, tau, k = q.z_abs, q.tau, q.k
    scale = 2.0**-k
    if q.n == 2:
        return lambda r: np.exp(1j * tau * r) * j0(za * r) * cutoff(scale * r) ** 2 * r
    return (
        lambda r: np.exp(1j * tau * r) * sphere_sinc(za * r) * cutoff(scale * r) ** 2 * r**2
    )


def kernel_value(
    q: KernelQuery,
    rtol: float = 1e-8,
    cutoff: DyadicCutoff | None = None,
    max_doublings: int = 18,
) -> complex:
    """Evaluate I_k by adaptive panelled quadrature on the annulus support.

    Converged when panel-doubling changes the value by less than ``rtol``
    relatively (with an absolute floor at 1e-13 of the kernel's natural scale
    I_k(0,0), below which the value is oscillatory cancellation noise).

    Raises
    ------
    AccuracyError
        If the doubling loop does not converge within ``max_doublings``, or
        before a pass would exceed ``MAX_PASS_NODES``; carries the achieved
        change (None if no doubling ran).
    DomainError
        If ``rtol`` is negative: no doubling could meet it, and the last
        ones would allocate 2^18 times the starting panels.  Also if the
        first pass alone would exceed ``MAX_PASS_NODES`` (large k or
        distance).
    """
    if not rtol >= 0:
        raise DomainError(f"rtol must be nonnegative, got {rtol}")
    cutoff = cutoff or default_cutoff()
    a, b = 2.0 ** (q.k - 1), 2.0 ** (q.k + 1)
    f = _radial_integrand(q, cutoff)
    prefactor = 2 * np.pi if q.n == 2 else 4 * np.pi
    # natural scale for the absolute floor: |I_k| <= I_k(0,0) ~ c_n 2^{nk}
    scale0 = 2.0 ** (q.n * q.k)
    # panels no wider than a quarter wavelength of the fastest oscillation
    oscillation = abs(q.tau) + q.z_abs
    panels = max(8, int(np.ceil((b - a) * oscillation / (np.pi / 4.0))))
    if panels * _GL_X.size > MAX_PASS_NODES:
        raise DomainError(
            f"kernel quadrature at k={q.k}, |z| + |tau| = {oscillation:.3g} needs "
            f"{panels * _GL_X.size:.3g} nodes per pass, over the budget of {MAX_PASS_NODES}"
        )
    value = _panelled_gauss(f, a, b, panels)
    achieved = None
    for _ in range(max_doublings):
        panels *= 2
        if panels * _GL_X.size > MAX_PASS_NODES:
            break
        new = _panelled_gauss(f, a, b, panels)
        change = abs(new - value)
        if change <= rtol * abs(new) + 1e-13 * scale0:
            return prefactor * new
        value = new
        achieved = change / max(abs(new), 1e-300)
    last = "no doubling" if achieved is None else f"last relative change {achieved:.2e}"
    raise AccuracyError(
        f"kernel quadrature did not reach rtol={rtol} within {max_doublings} doublings "
        f"of at most {MAX_PASS_NODES} nodes per pass ({last})",
        achieved=achieved,
    )


def kernel_value_bruteforce(
    q: KernelQuery,
    points_per_axis: int | None = None,
    cutoff: DyadicCutoff | None = None,
) -> complex:
    """Dense tensor-midpoint quadrature over the annulus bounding box.

    Test oracle for ``kernel_value``; guarded to k <= 2 because the cost grows
    like (oscillation * 2^k)^n.  The integrand is smooth and compactly
    supported, so the midpoint rule converges superalgebraically; the default
    resolution targets ~1e-6 accuracy at moderate arguments.
    """
    cutoff = cutoff or default_cutoff()
    if q.k > 2:
        raise DomainError("brute-force kernel evaluation is cost-guarded to k <= 2")
    half = 2.0 ** (q.k + 1)
    oscillation = abs(q.tau) + q.z_abs
    if points_per_axis is None:
        points_per_axis = int(max(128, min(1024, 16 * half * max(oscillation, 1.0))))
    m = points_per_axis
    h = 2 * half / m
    ax = -half + h * (np.arange(m) + 0.5)
    z = np.zeros(q.n)
    z[: len(q.z)] = q.z
    grids = np.meshgrid(*([ax] * q.n), indexing="ij")
    rad = np.sqrt(sum(g**2 for g in grids))
    phase = sum(z[i] * grids[i] for i in range(q.n)) + q.tau * rad
    amp = cutoff(2.0**-q.k * rad) ** 2
    return complex(np.sum(np.exp(1j * phase) * amp) * h**q.n)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log10 |I_k| against log10 distance."""

    regime: str
    slope: float
    intercept: float
    r2: float
    sample_range: float  # decades spanned by the distances
    distances: tuple[float, ...]
    values: tuple[float, ...]


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

    x = np.log10(d)
    y = np.log10(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        regime=regime,
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        sample_range=decades,
        distances=tuple(float(x) for x in d),
        values=tuple(float(v) for v in values),
    )
