"""Singular weights, weighted space-time norms, and the A2 product estimator.

Weight kinds
------------
* ``spatial_power``   : w(x, t) = |x|^{-alpha}
* ``spacetime_power`` : w(x, t) = |(x, t)|^{-alpha}
* ``log_spatial``     : w(x, t) = |log|x||^{-1-2 eps} |x|^{-1}

Local integrability requires alpha < n (spatial) resp. alpha < n+1
(space-time).  The boundary values alpha = n and alpha = n+1 are accepted
because the scale-covariance experiments probe them: there the singular-cell
integral is logarithmically divergent, the refinement level acts as the
(scale-invariant) truncation, and the value is a regularized quantity, which
the quadrature report flags.

Quadrature of the singular cell: the cell is split into its 2^d corner
orthants; each corner box is peeled into dyadic shells (self-similar boxes
shrinking toward the corner), every shell integrated by tensor Gauss rules,
and the remaining tail summed by geometric extrapolation from the measured
shell ratio (exact for pure power weights, asymptotically exact for the log
weight).  Cells adjacent to the singularity use Gauss cell averages of the
weight instead of point values: the point-sampled sum converges only
logarithmically near the admissibility boundary, the cell-averaged one at
second order.

One tensor Gauss evaluator, ``_gauss_box``, integrates a batch of boxes in
one broadcast: the 2^d - 1 children of a shell level, the 2^d panels of an
A2 cube, or one row of cells around the singularity.  The weights are even
in every axis, so the averaged patch around the singularity is integrated
over the nonnegative orthant only and mirrored.  A2 cubes that contain the
origin send both exponent signs through the corner shells, which resolve
the singularity of |z|^-alpha as well as the kink of |z|^alpha there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _time_pass
from .errors import DomainError
from .spectral import GridSpec

__all__ = [
    "SPATIAL_POWER",
    "SPACETIME_POWER",
    "LOG_SPATIAL",
    "WeightSpec",
    "QuadratureConfig",
    "Cube",
    "weighted_spacetime_norm",
    "prebuild_weight",
    "a2_product",
    "a2_scan",
    "A2Row",
]

SPATIAL_POWER = "spatial_power"
SPACETIME_POWER = "spacetime_power"
LOG_SPATIAL = "log_spatial"
_KINDS = (SPATIAL_POWER, SPACETIME_POWER, LOG_SPATIAL)

# cell averaging extends to |x| ~ half_width / RING_RADIUS_FRACTION
RING_RADIUS_FRACTION = 8.0


@dataclass(frozen=True)
class WeightSpec:
    """One of the singular weights above; alpha for the power kinds, epsilon for log."""

    kind: str
    alpha: float = 0.0
    epsilon: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown weight kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in (SPATIAL_POWER, SPACETIME_POWER) and self.alpha < 0:
            raise DomainError("power weights need alpha >= 0")
        if self.kind == LOG_SPATIAL and not self.epsilon > 0:
            raise DomainError("log weight needs epsilon > 0")

    def validate_for(self, grid: GridSpec) -> None:
        n = grid.dim
        if self.kind == SPATIAL_POWER and self.alpha > n:
            raise DomainError(f"|x|^-alpha on R^{n} needs alpha <= {n}, got {self.alpha}")
        if self.kind == SPACETIME_POWER and self.alpha > n + 1:
            raise DomainError(
                f"|(x,t)|^-alpha on R^{n + 1} needs alpha <= {n + 1}, got {self.alpha}"
            )

    def is_boundary(self, grid: GridSpec) -> bool:
        """True at the integrability edge, where the singular cell is regularized."""
        if self.kind == SPATIAL_POWER:
            return self.alpha == grid.dim
        if self.kind == SPACETIME_POWER:
            return self.alpha == grid.dim + 1
        return False

    def radial(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind in (SPATIAL_POWER, SPACETIME_POWER):
            a = self.alpha
            return lambda r: r ** (-a)
        eps = self.epsilon

        def log_weight(r: np.ndarray) -> np.ndarray:
            r = np.asarray(r, dtype=float)
            logr = np.abs(np.log(np.where(r > 0, r, 1.0)))
            with np.errstate(divide="ignore"):
                vals = np.where(logr > 0, logr ** (-1.0 - 2 * eps), 0.0)
            return np.where(r > 0, vals / np.where(r > 0, r, 1.0), 0.0)

        return log_weight


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls the singular-cell refinement and the cell-averaging ring.

    ``singular_cell_refinement`` caps the dyadic shell depth (>= 4); interior
    weights stop early at ``tolerance``, so the cap only bites at the
    integrability boundary, where it is the declared truncation depth of the
    log-divergent cell.  ``cell_average_ring`` is the minimum half-width, in
    cells, of the neighborhood of the singularity that uses Gauss cell
    averages of the weight (see ``ring_cells``).  The time rule is always the
    trapezoid over the grid's sample nodes.
    """

    singular_cell_refinement: int = 24
    tolerance: float = 1e-9
    cell_average_ring: int = 4

    def __post_init__(self) -> None:
        if self.singular_cell_refinement < 4:
            raise DomainError("singular_cell_refinement must be at least 4")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if self.cell_average_ring < 1:
            raise DomainError("cell_average_ring must be at least 1")

    def ring_cells(self, step: float, radius: float, limit: int) -> int:
        """Averaging half-width in cells for one axis: the fixed physical
        radius keeps the averaged/pointwise interface error second order
        under grid refinement, and an identical cell count under dilation."""
        return int(np.clip(round(radius / step), self.cell_average_ring, limit))


# -- corner-shell quadrature -------------------------------------------------

_GAUSS_N = 6
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)


def _gauss_box(radial_fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Tensor Gauss integrals of a radial function over k axis-aligned boxes.

    ``lo`` and ``hi`` are (k, d) arrays of box corners; returns the k integrals,
    evaluated in one broadcast over (k, G, ..., G) nodes.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k, d = lo.shape
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    r2 = 0.0
    w = 1.0
    for i in range(d):
        shape = (k,) + (1,) * i + (_GAUSS_N,) + (1,) * (d - 1 - i)
        r2 = r2 + ((mid[:, i, None] + half[:, i, None] * _GX) ** 2).reshape(shape)
        w = w * (half[:, i, None] * _GW).reshape(shape)
    return (radial_fn(np.sqrt(r2)) * w).reshape(k, -1).sum(axis=1)


def _corner_box_integral(
    radial_fn, halfwidths: np.ndarray, levels: int, tol: float
) -> tuple[float, bool]:
    """Integral over the corner box [0,h_1]x...x[0,h_d]; returns (value, truncated)."""
    d = len(halfwidths)
    children = np.array(list(itertools.product((0, 1), repeat=d))[1:], dtype=bool)
    total = 0.0
    shells: list[float] = []
    scale = 1.0
    for _ in range(levels):
        hi_full = halfwidths * scale
        half_pt = hi_full / 2.0
        shell = float(np.sum(_gauss_box(
            radial_fn, np.where(children, half_pt, 0.0), np.where(children, hi_full, half_pt)
        )))
        total += shell
        shells.append(shell)
        if len(shells) >= 2 and shells[-2] > 0:
            q = shells[-1] / shells[-2]
            if q < 0.95:
                tail = shells[-1] * q / (1.0 - q)
                if tail < tol * max(total, 1e-300):
                    return total + tail, False
        scale /= 2.0
    q = shells[-1] / shells[-2] if shells[-2] > 0 else 1.0
    if q < 0.999:
        return total + shells[-1] * q / (1.0 - q), False
    return total, True  # boundary case: log-divergent cell, depth-capped


def _origin_patch(radial_fn, steps: Sequence[float], rings: Sequence[int], quad: QuadratureConfig):
    """Cell averages of a radial weight on the cells within ``rings`` of the origin.

    Cell ``j`` on axis i is centered at ``j * steps[i]`` with width
    ``steps[i]``; the returned array has shape ``(2 r_i + 1, ...)`` with the
    origin cell, holding its refined integral over its volume, in the middle.
    The weight is even in every axis, so only the nonnegative orthant is
    integrated, one leading-axis row per call, and then mirrored.  Returns
    (patch, cell_info) as described in ``_spatial_weight_array``.
    """
    steps = np.asarray(steps, dtype=float)
    half, vol = steps / 2.0, float(np.prod(steps))
    rest = np.indices([r + 1 for r in rings[1:]]).reshape(len(rings) - 1, -1).T
    orthant = np.empty([r + 1 for r in rings])
    for j in range(rings[0] + 1):
        centers = np.column_stack([np.full(len(rest), j), rest]) * steps
        cells = _gauss_box(radial_fn, centers - half, centers + half)
        orthant[j] = cells.reshape(orthant.shape[1:]) / vol
    value, truncated = _corner_box_integral(
        radial_fn, half, quad.singular_cell_refinement, quad.tolerance
    )
    value *= 2 ** len(steps)  # 2^d congruent corner boxes
    orthant[(0,) * len(steps)] = value / vol
    patch = orthant[np.ix_(*(np.abs(np.arange(-r, r + 1)) for r in rings))]
    patch.setflags(write=False)
    return patch, {"origin_cell": value, "truncated": truncated}


# -- effective lattice weights ------------------------------------------------


@functools.lru_cache(maxsize=32)
def _spatial_weight_array(grid: GridSpec, weight: WeightSpec, quad: QuadratureConfig):
    """Pointwise weights with cell averages near x = 0 and the refined origin cell.

    Returns (array, cell_info) where cell_info records the origin-cell value
    and whether it was depth-capped.  The array is shared and read-only.
    """
    n = grid.dim
    radial = weight.radial()
    xnorm = grid.x_norm()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(xnorm > 0, radial(np.where(xnorm > 0, xnorm, 1.0)), 0.0)
    ring = quad.ring_cells(grid.dx, grid.half_width / RING_RADIUS_FRACTION, grid.points_per_axis // 4)
    patch, info = _origin_patch(radial, [grid.dx] * n, [ring] * n, quad)
    w[tuple(slice(c - ring, c + ring + 1) for c in grid.zero_index)] = patch
    w.setflags(write=False)
    return w, info


@functools.lru_cache(maxsize=32)
def _spacetime_ring_patch(grid: GridSpec, weight: WeightSpec, quad: QuadratureConfig):
    """Cell-averaged (t, x) weights for nodes near the space-time origin.

    Returns (patch, cell_info): ``patch[ring_t + dti]`` holds the spatial
    cells within the ring around x = 0 at time-node offset ``dti``; the (0,0)
    cell carries the refined integral divided by its volume.  Read-only.
    """
    radial = weight.radial()
    t = grid.time_nodes()
    dt = t[1] - t[0]
    radius = grid.half_width / RING_RADIUS_FRACTION
    ring = quad.ring_cells(grid.dx, radius, grid.points_per_axis // 4)
    ring_t = quad.ring_cells(dt, radius, max((grid.time_samples - 1) // 2, 1))
    return _origin_patch(radial, [dt] + [grid.dx] * grid.dim, [ring_t] + [ring] * grid.dim, quad)


def prebuild_weight(weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig) -> None:
    """Build the cached lattice weight of ``weighted_spacetime_norm`` ahead of time.

    Callers that hand norms of one weight to a thread pool call this first,
    so the workers share one build instead of each missing the cache.
    """
    weight.validate_for(grid)
    if weight.kind == SPACETIME_POWER:
        _spacetime_ring_patch(grid, weight, quad)
    else:
        _spatial_weight_array(grid, weight, quad)


def _spacetime_pointwise(grid: GridSpec, alpha: float, t: float) -> np.ndarray:
    """|(x,t)|^-alpha from the squared radius, with 0 at the space-time origin."""
    w = grid.x_norm() ** 2
    w += t * t
    with np.errstate(divide="ignore"):
        np.power(w, -0.5 * alpha, out=w)
    if t == 0:
        w[grid.zero_index] = 0.0
    return w


def weighted_spacetime_norm(
    u_sampler,
    weight: WeightSpec,
    grid: GridSpec,
    quad: QuadratureConfig | None = None,
) -> float:
    """Weighted space-time L2 norm of a sampled solution.

    Computes ``( int_{-T}^{T} dx^n sum_x w(x,t) |u(x,t)|^2 dt )^{1/2}`` with
    the trapezoid rule in t and the singular-cell treatment described in the
    module docstring.  |u|^2 is the squared Euclidean length of the component
    vector.  ``u_sampler`` maps t to a VectorField or raw samples; it is
    called once per time node in ascending order, over all nodes, or over the
    nodes with t >= 0 if it is ``time_even`` (see ``elastic.WaveSampler``):
    every weight here is even in t, so each such node then also stands for
    its mirror node.
    """
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    n = grid.dim
    tnodes = grid.time_nodes()
    measure = grid.dx**n

    if weight.kind in (SPATIAL_POWER, LOG_SPATIAL):
        w = _spatial_weight_array(grid, weight, quad)[0].ravel()
        total = 0.0
        for _, _, tw, dens in _time_pass(u_sampler, grid):
            total += tw * measure * float(w @ dens.ravel())
        return float(np.sqrt(total))

    # spacetime power: pointwise except near the (0,0) cell
    patch, _ = _spacetime_ring_patch(grid, weight, quad)
    ring_t, ring = patch.shape[0] // 2, patch.shape[1] // 2
    cells = tuple(slice(c - ring, c + ring + 1) for c in grid.zero_index)
    dt = tnodes[1] - tnodes[0]
    i0 = int(np.argmin(np.abs(tnodes)))
    has_zero_node = abs(tnodes[i0]) < 1e-12 * dt
    total = 0.0
    for i, t, tw, dens in _time_pass(u_sampler, grid):
        w = _spacetime_pointwise(grid, weight.alpha, t)
        dti = i - i0
        if has_zero_node and abs(dti) <= ring_t:
            w[cells] = patch[ring_t + dti]
        total += tw * measure * float(w.ravel() @ dens.ravel())
    return float(np.sqrt(total))


def singular_cell_report(
    weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig | None = None
) -> dict:
    """Origin-cell integral and whether it was depth-capped (boundary alpha)."""
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    if weight.kind in (SPATIAL_POWER, LOG_SPATIAL):
        _, info = _spatial_weight_array(grid, weight, quad)
    else:
        _, info = _spacetime_ring_patch(grid, weight, quad)
    return dict(info, refinement=quad.singular_cell_refinement, tolerance=quad.tolerance)


# -- A2 product ----------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and side length."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise DomainError("cube side must be positive")

    def contains_origin(self) -> bool:
        h = self.side / 2.0
        return all(abs(c) <= h for c in self.center)


def _integral_over_cube(exponent: float, cube: Cube, quad: QuadratureConfig) -> float:
    """integral of |z|^exponent over the cube (exponent may be negative).

    On a cube that contains the origin, either sign of the exponent goes
    through the corner shells of the orthants split at the origin, which
    resolve the singularity resp. the kink of |z|^exponent there and meet
    ``quad.tolerance``.  A cube away from the origin, where the integrand is
    smooth, uses the 2-panel tensor Gauss rule.
    """
    radial = (lambda r, e=exponent: r**e)
    c = np.asarray(cube.center, dtype=float)
    h = cube.side / 2.0
    lo, hi = c - h, c + h
    if cube.contains_origin():
        # orthant split at the origin: corner boxes with 0 at the corner
        total = 0.0
        for widths in itertools.product(*zip(np.abs(lo), np.abs(hi))):
            if 0.0 in widths:
                continue
            value, _ = _corner_box_integral(
                radial, np.array(widths), quad.singular_cell_refinement, quad.tolerance
            )
            total += value
        return total
    # regular region: panelled tensor Gauss (2 panels per axis)
    edges = np.linspace(lo, hi, 3)
    panel_lo = list(itertools.product(*zip(edges[0], edges[1])))
    panel_hi = list(itertools.product(*zip(edges[1], edges[2])))
    return float(np.sum(_gauss_box(radial, panel_lo, panel_hi)))


def a2_product(
    alpha: float,
    n_total: int,
    cube: Cube,
    quad: QuadratureConfig | None = None,
) -> float:
    """Muckenhoupt A2 product ``(avg_cube |z|^-alpha)(avg_cube |z|^alpha)``.

    Always >= 1 by Cauchy-Schwarz, with equality exactly at alpha = 0.
    Requires |alpha| < n_total for local integrability.

    For an origin-centered cube in d = n_total dimensions the 2d pyramids with
    apex at the origin give, exactly,
    ``A2 = d^2/(d^2 - alpha^2) * avg_face|y|^-alpha * avg_face|y|^alpha``, and
    since |y| lies in [h, h sqrt(d)] on a face of half-side h,
    ``d^2/(d^2 - alpha^2) <= A2 <= d^2/(d^2 - alpha^2) * d^(|alpha|/2)``.
    The product blows up at the admissibility edge by the law
    ``(d - alpha) * A2 -> sigma_(d-1) * integral_Q |z|^d`` as alpha -> d, with
    sigma_(d-1) the area of the unit sphere and Q the unit cube.  Both
    factors meet ``quad.tolerance`` on cubes that contain the origin (see
    ``_integral_over_cube``).
    """
    quad = quad or QuadratureConfig()
    if not abs(alpha) < n_total:
        raise DomainError(f"A2 product needs a finite |alpha| < {n_total}, got {alpha}")
    if len(cube.center) != n_total:
        raise DomainError(f"cube center has dim {len(cube.center)}, expected {n_total}")
    if alpha == 0.0:
        return 1.0  # both factors are averages of the constant 1
    vol = cube.side**n_total
    neg = _integral_over_cube(-alpha, cube, quad) / vol
    pos = _integral_over_cube(alpha, cube, quad) / vol
    return float(neg * pos)


@dataclass(frozen=True)
class A2Row:
    alpha: float
    label: str
    center: tuple[float, ...]
    side: float
    product: float


def default_cube_family(n_total: int, side: float = 1.0) -> list[tuple[str, Cube]]:
    """Origin-centered cube plus cubes offset along the first axis by
    {0.5, 1, 2, 4} side lengths."""
    zero = (0.0,) * n_total
    fam = [("origin", Cube(zero, side))]
    for dist in (0.5, 1.0, 2.0, 4.0):
        center = (dist * side,) + (0.0,) * (n_total - 1)
        fam.append((f"offset-{dist}", Cube(center, side)))
    return fam


def a2_scan(
    alphas: Sequence[float],
    n_total: int,
    cube_family: Sequence[tuple[str, Cube]] | None = None,
    quad: QuadratureConfig | None = None,
) -> list[A2Row]:
    """A2 products for each alpha over a family of cubes (see default_cube_family)."""
    family = list(cube_family) if cube_family is not None else default_cube_family(n_total)
    rows = []
    for alpha in alphas:
        for label, cube in family:
            rows.append(
                A2Row(
                    alpha=float(alpha),
                    label=label,
                    center=tuple(cube.center),
                    side=cube.side,
                    product=a2_product(alpha, n_total, cube, quad),
                )
            )
    return rows


def a2_scan_max(rows: Sequence[A2Row]) -> dict[float, float]:
    """Max product per alpha over the scanned family."""
    out: dict[float, float] = {}
    for row in rows:
        out[row.alpha] = max(out.get(row.alpha, 1.0), row.product)
    return out
