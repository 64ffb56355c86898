"""Experiments probing weighted space-time estimates for the wave propagators.

The measured quantity is always a ratio

    R = || u ||_{L^2_{x,t}(w)}  /  ( ||f||_{Hdot^s} + ||g||_{Hdot^{s-1}} )

for solutions u with data (f, g), either the elastic system or the scalar
half-wave propagator.  Because the admissible-index statements are suprema
over all data, every scan reports measured lower bounds and growth exponents;
results are "measured" and "consistent with", never certificates.

Exact dilation covariance: rescaling data as ``f_l(x) = f(l x)``,
``g_l(x) = l g(l x)`` on a fixed grid reproduces, identically in floating
point, the same computation on the dilated grid, so fitted ratio exponents
equal ``(alpha - 1 - 2 s)/2`` up to the grid-convergence drift of the base
ratio.  The same mechanism forces the rescaled-probe frequency scan to the
slope ``(alpha - 1)/2``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _hs_norm, lp_project
from .analysis import hs_norm  # noqa: F401  perfbench/tracing.py wraps it
from .elastic import (
    ElasticPropagator,
    ElasticState,
    LameParams,
    WaveSampler,
    _elastic_terms,
    _halfwave_coefficients,
    _split_spectrum,
    halfwave_sampler,
)
from .errors import AccuracyError, ConfigurationError, DomainError
from .kernel import _linear_fit
from .spectral import GridSpec, VectorField, forward_values
from .spectral import inverse_values  # noqa: F401  perfbench/tracing.py wraps it
from .weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    QuadratureConfig,
    WeightSpec,
    prebuild_weight,
    weighted_spacetime_norm,
)

__all__ = [
    "Region",
    "RegionQuery",
    "classify_region",
    "DataFamily",
    "Member",
    "RatioRecord",
    "compute_ratio",
    "ScaleCovariance",
    "scale_covariance_test",
    "FrequencyScan",
    "frequency_constant_scan",
    "DecompositionCheck",
    "decomposition_check",
    "worker_count",
]

_SEGMENT_TOL = 1e-12


class Region:
    ON_THEOREM1_SEGMENT = "OnTheorem1Segment"
    IN_THEOREM2_TRIANGLE = "InTheorem2Triangle"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class RegionQuery:
    """A point (alpha, s) with its dimension and weight kind."""

    alpha: float
    s: float
    n: int
    weight_kind: str = SPATIAL_POWER


def classify_region(q: RegionQuery) -> str:
    """Pure predicate evaluation of the admissible-index regions.

    Spatial weights are classified against the segment ``alpha = 1 + 2s``
    with ``0 < s < (n-1)/2``; space-time weights against the open triangle
    ``1/2 < s < (n+1)/4``, ``1 + 2s < alpha < 4s``.
    """
    if q.weight_kind == SPATIAL_POWER:
        if 0.0 < q.s < (q.n - 1) / 2.0 and abs(q.alpha - (1.0 + 2.0 * q.s)) < _SEGMENT_TOL:
            return Region.ON_THEOREM1_SEGMENT
        return Region.OUTSIDE
    if q.weight_kind == SPACETIME_POWER:
        if 0.5 < q.s < (q.n + 1) / 4.0 and 1.0 + 2.0 * q.s < q.alpha < 4.0 * q.s:
            return Region.IN_THEOREM2_TRIANGLE
        return Region.OUTSIDE
    raise DomainError(f"cannot classify weight kind {q.weight_kind!r}")


# -- probe data ----------------------------------------------------------------

GAUSSIAN = "gaussian"
MODULATED = "modulated"


@dataclass(frozen=True)
class Member:
    """One concrete data realization: scalar samples or an elastic state."""

    member_id: str
    f: object  # ndarray (scalar mode) or VectorField
    g: object | None
    support_radius: float
    scalar: bool


@dataclass(frozen=True)
class DataFamily:
    """Deterministic probe-data recipe; members are exact dilations of the base.

    ``kind`` is ``gaussian`` (radial envelope) or ``modulated`` (envelope times
    a plane-wave carrier along the first axis).  If ``level`` is set, modulated
    members are band-localized by a dyadic projection at
    ``level + log2(lambda)``, so a rescaled member stays an exact dilation of
    the base probe.  Every member starts at rest: scalar members carry plain
    samples and no velocity; vector members put the profile into the first
    displacement component and carry a zero velocity.
    """

    kind: str = GAUSSIAN
    width: float = 1.0
    carrier: float = 0.0
    level: int | None = None
    scalar: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, MODULATED):
            raise ConfigurationError(f"unknown family kind {self.kind!r}")
        if not self.width > 0:
            raise ConfigurationError("family width must be positive")
        if self.kind == MODULATED and not self.carrier > 0:
            raise ConfigurationError("modulated family needs a positive carrier")

    def support_radius(self, lam: float = 1.0) -> float:
        """Support radius of the member at lam, checking lam as ``member`` does."""
        if not lam > 0:
            raise ConfigurationError("lambda must be positive")
        if self.level is not None and abs(math.log2(lam) - round(math.log2(lam))) > 1e-12:
            raise ConfigurationError("band-localized members require power-of-two lambda")
        return 5.0 * (self.width / lam)  # envelope below ~4e-6 outside (1.4e-11 in energy)

    def member(self, grid: GridSpec, lam: float = 1.0) -> Member:
        """Materialize the member f_lam(x) = f(lam x).

        The Gaussian is the outer product of one factor per axis, so a
        scalar Gaussian member is real (``float64``); the carrier multiplies
        along the first axis only.

        Raises
        ------
        ConfigurationError
            If ``(width / lam)^2`` under- or overflows: the profile would be
            0/0 or flat.
        """
        support = self.support_radius(lam)
        with np.errstate(over="ignore", under="ignore"):
            var = np.float64(self.width / lam) ** 2
        if not 0.0 < var < np.inf:
            raise ConfigurationError(
                f"family width {self.width} at lambda {lam} squares to {var}, "
                "outside the positive float range")
        x = grid.x_axis
        axis = np.exp(-(x**2) / (2.0 * var))
        profile = axis
        for _ in range(grid.dim - 1):
            profile = np.multiply.outer(profile, axis)
        if self.kind == MODULATED:
            carrier = self.carrier * lam
            profile = profile * np.exp(1j * carrier * x).reshape((-1,) + (1,) * (grid.dim - 1))
        if self.level is not None:
            profile = lp_project(profile, self.level + round(math.log2(lam)), grid)
        member_id = f"{self.kind}-w{self.width}-lam{lam}"

        if self.scalar:
            return Member(member_id, profile, None, support, True)

        values = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
        values[0] = profile
        return Member(member_id, VectorField(grid, values),
                      VectorField(grid, np.zeros_like(values)), support, False)


# the frequency scan's probes, band-localized at level 0, so that each level-k
# member is an exact dilation of its level-0 one
_FREQUENCY_PROBES = (
    DataFamily(kind=MODULATED, width=2.0, carrier=1.0, level=0),
    DataFamily(kind=MODULATED, width=2.0, carrier=1.25, level=0),
)


# -- ratio measurement -----------------------------------------------------------


@dataclass(frozen=True)
class RatioRecord:
    """One measured Morawetz ratio with full grid provenance."""

    query: RegionQuery
    member_id: str
    lam: float
    numerator: float
    denominator: float
    ratio: float
    margin: float
    grid: GridSpec
    refinement: int


def _max_speed(propagation) -> float:
    if isinstance(propagation, LameParams):
        return propagation.max_speed
    speed = float(propagation)
    if not speed > 0:
        raise DomainError(f"wave speed must be positive, got {speed}")
    return speed


def _scalar_halfwave_sampler(profile: np.ndarray, grid: GridSpec, speed: float,
                             coeffs: np.ndarray | None = None):
    """``halfwave_sampler``, under the name that ``perfbench/tracing.py``
    patches; nothing in the package calls it, and it is kept only as that
    patch target."""
    return halfwave_sampler(profile, grid, speed, coeffs)


def _scalar_sampler_and_norm(f: np.ndarray, grid: GridSpec, speed: float, s: float):
    """The half-wave sampler of f and ``hs_norm(f, s, grid)``, from one set of
    coefficients of f (``elastic._halfwave_coefficients``: the block only,
    for f even in every axis), which is freed on return unless the sampler
    keeps it."""
    F = _halfwave_coefficients(f, grid)
    return halfwave_sampler(f, grid, speed, F), _hs_norm(F[np.newaxis], s, grid)


def _elastic_coefficients(state: ElasticState, s: float):
    """The coefficients of f and of g (None for g = 0) and the data norm
    ``hs_norm(f, s) + hs_norm(g, s - 1)`` read from them."""
    grid = state.grid
    F = forward_values(state.f.values, grid)
    G = forward_values(state.g.values, grid) if np.any(state.g.values) else None
    return F, G, _hs_norm(F, s, grid) + (0.0 if G is None else _hs_norm(G, s - 1.0, grid))


def _elastic_sampler_and_norm(state: ElasticState, params: LameParams, s: float):
    """The propagator of an elastic state and its data norm, from one set of
    coefficients (``_elastic_coefficients``), freed on return."""
    F, G, norm = _elastic_coefficients(state, s)
    return ElasticPropagator(state, params, coeffs=(F, G)), norm


def compute_ratio(
    member: Member,
    query: RegionQuery,
    propagation,
    grid: GridSpec,
    quad: QuadratureConfig | None = None,
    lam: float = 1.0,
) -> RatioRecord:
    """Measure the weighted-norm-to-data-norm ratio for one member.

    ``propagation`` is a wave speed (scalar half-wave mode) or LameParams
    (elastic mode).  Scalar mode evolves f by the half-wave propagator and
    rejects members with velocity data; elastic mode evolves the full state.

    Raises
    ------
    AccuracyError
        If the numerator, the denominator or the ratio is not finite: the
        time pass squares ``float64`` values, which overflow near 1.3e154.
    """
    quad = quad or QuadratureConfig()
    weight = WeightSpec(kind=query.weight_kind, alpha=query.alpha)
    weight.validate_for(grid)
    margin = grid.wraparound_margin(member.support_radius, _max_speed(propagation))
    if margin <= 0:
        raise ConfigurationError(
            f"member {member.member_id!r} violates the wrap-around margin "
            f"({margin:.3g} <= 0); enlarge the box or shrink the window"
        )

    if member.scalar:
        if isinstance(propagation, LameParams):
            raise ConfigurationError("scalar members need a wave speed, not LameParams")
        if member.g is not None:
            raise ConfigurationError(
                "scalar mode uses the half-wave propagator e^{itc sqrt(-Lap)}: "
                "velocity data is not part of that reduction"
            )
        sampler, denominator = _scalar_sampler_and_norm(member.f, grid, float(propagation),
                                                        query.s)
    else:
        if not isinstance(propagation, LameParams):
            raise ConfigurationError("vector members need LameParams")
        sampler, denominator = _elastic_sampler_and_norm(ElasticState(member.f, member.g),
                                                         propagation, query.s)

    if denominator == 0.0:
        raise ConfigurationError("zero initial data: the ratio is undefined")

    numerator = weighted_spacetime_norm(sampler, weight, quad)
    ratio = numerator / denominator
    if not all(map(math.isfinite, (numerator, denominator, ratio))):
        raise AccuracyError(
            f"member {member.member_id!r}: result not finite (numerator {numerator}, "
            f"denominator {denominator}); the data overflow the float range"
        )
    return RatioRecord(
        query=query,
        member_id=member.member_id,
        lam=lam,
        numerator=numerator,
        denominator=denominator,
        ratio=ratio,
        margin=margin,
        grid=grid,
        refinement=quad.singular_cell_refinement,
    )


def worker_count() -> int:
    """Worker cap from MORAWETZ_LAB_THREADS (default 1)."""
    raw = os.environ.get("MORAWETZ_LAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"MORAWETZ_LAB_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigurationError("MORAWETZ_LAB_THREADS must be >= 1")
    return value


def _map_ordered(fn: Callable, items: Sequence) -> list:
    """Apply fn preserving input order; parallel when the worker cap allows."""
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ScaleCovariance:
    """Fitted dilation exponent of the ratio over a rescaled family."""

    records: tuple[RatioRecord, ...]
    dropped: tuple[tuple[float, float], ...]  # (lambda, margin) pairs
    slope: float
    intercept: float
    stderr: float
    target: float


def scale_covariance_test(
    family: DataFamily,
    query: RegionQuery,
    grid: GridSpec,
    lambdas: Sequence[float] = (0.5, 1.0, 2.0),
    propagation=1.0,
    quad: QuadratureConfig | None = None,
) -> ScaleCovariance:
    """Fit log2 R(f_lambda) against log2 lambda; analytic target (alpha-1-2s)/2.

    Members that violate the wrap-around margin are dropped and reported, not
    silently computed.  Fewer than two surviving members is a configuration
    error (degenerate fit).
    """
    quad = quad or QuadratureConfig()
    max_speed = _max_speed(propagation)
    kept: list[float] = []
    dropped: list[tuple[float, float]] = []
    for lam in lambdas:
        margin = grid.wraparound_margin(family.support_radius(lam), max_speed)
        if margin <= 0:
            dropped.append((float(lam), float(margin)))
        else:
            kept.append(float(lam))
    if len(set(kept)) < 2:
        raise ConfigurationError(
            f"scale covariance needs at least two distinct admissible lambdas; "
            f"kept {kept}, dropped {dropped}"
        )

    def run(lam: float) -> RatioRecord:
        member = family.member(grid, lam=lam)
        return compute_ratio(member, query, propagation, grid, quad, lam=lam)

    # build the shared weight once, before the pool's workers each miss its cache
    prebuild_weight(WeightSpec(kind=query.weight_kind, alpha=query.alpha), grid, quad)
    records = _map_ordered(run, kept)
    x = np.log2(np.array([r.lam for r in records]))
    y = np.log2(np.array([r.ratio for r in records]))
    slope, intercept, stderr, _ = _linear_fit(x, y)
    target = (query.alpha - 1.0 - 2.0 * query.s) / 2.0
    return ScaleCovariance(
        records=tuple(records),
        dropped=tuple(dropped),
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        target=target,
    )


@dataclass(frozen=True)
class FrequencyScan:
    """Frequency-localized constants C_k and their fitted growth exponent.

    ``constants[k]`` is a measured lower bound on the operator constant at
    dyadic level k.  ``dilation_target`` is the exponent (alpha-1)/2 forced by
    exact dilation covariance for the rescaled-probe family;
    ``reference_exponent`` is the frequency-growth exponent s associated with
    the (alpha, s) query (printed alongside, never asserted).
    """

    levels: tuple[int, ...]
    constants: tuple[float, ...]
    per_probe: tuple[tuple[float, ...], ...]
    slope: float
    stderr: float
    dilation_target: float
    reference_exponent: float
    implied_p: float | None
    lemma_range_ok: bool | None


def frequency_constant_scan(
    levels: Sequence[int],
    query: RegionQuery,
    grid: GridSpec,
) -> FrequencyScan:
    """Scan max_{probes} ||e^{it|D|} p||_w / ||p||_{L2} over dyadic levels.

    The probes are two band-localized modulated Gaussians whose level-k
    members are exact dilations of the level-0 ones.  The wave speed is 1:
    dilation in t absorbs any other speed.  The weight is the space-time power
    |(x,t)|^{-alpha} (alpha = 0 degenerates to the plain time-slab L2 norm,
    where unitarity makes the constants flat in k).
    """
    quad = QuadratureConfig()
    levels = tuple(int(k) for k in levels)
    if not levels:
        raise ConfigurationError("frequency scan needs at least one level")
    weight = WeightSpec(kind=SPACETIME_POWER, alpha=query.alpha)
    weight.validate_for(grid)
    measure = grid.dx**grid.dim

    def ratio_for(task: tuple[int, DataFamily]) -> float:
        level, fam = task
        p = fam.member(grid, lam=2.0**level).f
        l2 = float(np.sqrt(measure * np.sum(np.abs(p) ** 2)))
        if l2 == 0.0:
            raise ConfigurationError("probe collapsed to zero after band projection")
        num = weighted_spacetime_norm(halfwave_sampler(p, grid, 1.0), weight, quad)
        return num / l2

    prebuild_weight(weight, grid, quad)
    # one task per (level, probe): 3 levels of 2 probes give 2 workers 3 probes
    # each, where one task per level gave one worker 4 probes and the other 2
    k = len(_FREQUENCY_PROBES)
    ratios = _map_ordered(ratio_for, [(level, fam) for level in levels
                                      for fam in _FREQUENCY_PROBES])
    per_probe = tuple(tuple(ratios[i:i + k]) for i in range(0, len(ratios), k))
    constants = tuple(max(v) for v in per_probe)
    x = np.asarray(levels, dtype=float)
    y = np.log2(np.asarray(constants))
    slope, _, stderr, _ = _linear_fit(x, y)

    s = query.s
    implied_p = (query.n + 1) / (4.0 * s) if s > 0 else None
    lemma_ok = None
    if implied_p is not None:
        lemma_ok = bool(
            1.0 < implied_p < (query.n + 1) / 2.0
            and 1.0 + (query.n + 1) / (2.0 * implied_p) < query.alpha < (query.n + 1) / implied_p
        )
    return FrequencyScan(
        levels=levels,
        constants=constants,
        per_probe=per_probe,
        slope=slope,
        stderr=stderr,
        dilation_target=(query.alpha - 1.0) / 2.0,
        reference_exponent=s,
        implied_p=implied_p,
        lemma_range_ok=lemma_ok,
    )


@dataclass(frozen=True)
class DecompositionCheck:
    """Solenoidal/potential split diagnostics for one elastic state."""

    hs_pythagoras_gap: float  # | |f_P|_s^2 + |f_S|_s^2 - |f|_s^2 | / |f|_s^2
    triangle_slack: float  # |u_Q|_w + |u_P|_w - |u|_w  (>= 0 up to round-off)
    ratio_solenoidal: float
    ratio_potential: float


def decomposition_check(
    state: ElasticState,
    params: LameParams,
    query: RegionQuery,
) -> DecompositionCheck:
    """Verify the orthogonal-split norm identity and the weighted triangle bound.

    Each field is transformed and split once, on the state's grid; the
    solenoidal flow is the shear term with the drift, the potential flow the
    pressure term."""
    quad, grid = QuadratureConfig(), state.grid
    weight = WeightSpec(kind=query.weight_kind, alpha=query.alpha)
    weight.validate_for(grid)
    s = query.s

    F, G, den = _elastic_coefficients(state, s)
    f_parts = _split_spectrum(F, grid)
    total_sq = _hs_norm(F, s, grid) ** 2
    gap = abs(sum(_hs_norm(X, s, grid) ** 2 for X in f_parts) - total_sq) / total_sq
    (shear, pressure), drift = _elastic_terms(params, grid, f_parts, G)

    def norm(terms, drift=None) -> float:
        sampler = WaveSampler(grid, terms, drift, time_even=G is None)
        return weighted_spacetime_norm(sampler, weight, quad)

    n_full, n_sol, n_pot = norm([shear, pressure], drift), norm([shear], drift), norm([pressure])
    return DecompositionCheck(
        hs_pythagoras_gap=float(gap),
        triangle_slack=float(n_sol + n_pot - n_full),
        ratio_solenoidal=float(n_sol / den),
        ratio_potential=float(n_pot / den),
    )
