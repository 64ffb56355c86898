"""Singular weights, weighted space-time norms, and the A2 product estimator.

Weight kinds
------------
* ``spatial_power``   : w(x, t) = |x|^{-alpha}
* ``spacetime_power`` : w(x, t) = |(x, t)|^{-alpha}

Local integrability requires alpha < n (spatial) resp. alpha < n+1
(space-time).  The boundary values alpha = n and alpha = n+1 are accepted
because the scale-covariance experiments probe them: there the singular-cell
integral is logarithmically divergent, the refinement level acts as the
(scale-invariant) truncation, and the value is a regularized quantity, which
the quadrature report flags.

Quadrature: every box that needs more than a plain tensor Gauss rule (the
origin cell of either weight and every A2 cube) goes through one exact
formula, ``_box_integral``.  For a power, div(z |z|^p) = (p + d) |z|^p, so
the integral over a box is the flux of z |z|^p / (p + d) through its faces;
each face lies at a distance c > 0 from the origin and carries the smooth
integrand c |y|^p.  The box is split at the origin into boxes of the
nonnegative orthant, so that every face has its foot point at its corner,
and each face is tiled by a core and dyadic shells graded toward that
point.  At p = -d (the boundary exponent) the flux formula is replaced by
the depth-truncated value ``depth * ln 2 * flux``: each dyadic shell of the
cell carries ``ln 2 * flux``.  Cells adjacent to the singularity use Gauss
cell averages of the weight instead of point values: the point-sampled sum
converges only logarithmically near the admissibility boundary.  The
cell-averaged one is second order only once the density spans many cells:
measured against the closed-form weighted integral of the smooth density
``exp(-(|x|^2 + t^2)/0.81)`` on boxes of half-width 16 with N = 32, 64
and 128, it errs by 0.3-3.3% (space-time alpha 2.1: -1.55%, -3.27%,
-1.25%; spatial alpha 0.5: -1.73%, -1.15%, -0.32%; spatial alpha 2.1:
+1.43%, -2.24%, -0.93%), not monotonically in N.

One tensor Gauss evaluator, ``_gauss_box``, integrates a batch of boxes in
one broadcast: the face panels of ``_box_integral`` or one row of cells
around the singularity.  The weights are even in every axis, so the averaged
patch around the singularity is integrated over the nonnegative orthant only
and mirrored.

Storage order: the lattice weights are built in FFT storage order, the order
of ``analysis._time_pass``'s samples, in which grid index m sits at
x = dx * m (m taken mod N into [-N/2, N/2)) and the origin is index 0; the
averaged cells around it are the wrapped indices ``arange(-r, r + 1) % N``.
The time pass hands over squared moduli of the raw inverse FFT, u * dx^n,
and folds the constant dx^{-2n} into its node weights, so the norms here
need no per-node rescaling or shift.  Every weight here, and every ball
mask of ``analysis.local_smoothing_functional``, is even in each axis
(``m_i -> -m_i mod N``).  So for an ``even`` sampler, whose pass hands over
the block ``[:N/2 + 1]^n`` of the lattice with each point's density
multiplied by its orbit size, the weights are read on that block: the
spatial array as a slice, the space-time fill from the block's |x|^2
levels, and the averaged patch through its nonnegative orthant, which sits
at the indices ``arange(r + 1)``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _on_block, _time_pass, _weighted_sum
from .errors import AccuracyError, DomainError
from .spectral import GridSpec

__all__ = [
    "SPATIAL_POWER",
    "SPACETIME_POWER",
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
_KINDS = (SPATIAL_POWER, SPACETIME_POWER)

# cell averaging extends to |x| ~ half_width / RING_RADIUS_FRACTION
RING_RADIUS_FRACTION = 8.0
# ... but over at least this many cells on each side of the singularity
_MIN_RING_CELLS = 4


@dataclass(frozen=True)
class WeightSpec:
    """One of the power weights above."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown weight kind {self.kind!r}; expected one of {_KINDS}")
        if self.alpha < 0:
            raise DomainError("power weights need alpha >= 0")

    def validate_for(self, grid: GridSpec) -> None:
        n = grid.dim
        if self.kind == SPATIAL_POWER and self.alpha > n:
            raise DomainError(f"|x|^-alpha on R^{n} needs alpha <= {n}, got {self.alpha}")
        if self.kind == SPACETIME_POWER and self.alpha > n + 1:
            raise DomainError(
                f"|(x,t)|^-alpha on R^{n + 1} needs alpha <= {n + 1}, got {self.alpha}"
            )

    def radial(self) -> Callable[[np.ndarray], np.ndarray]:
        a = self.alpha
        return lambda r: r ** (-a)


@dataclass(frozen=True)
class QuadratureConfig:
    """The truncation depth of the singular cell at the integrability boundary.

    Interior exponents integrate the singular cell exactly and ignore it.  At
    alpha = n (spatial) resp. n + 1 (space-time) the cell integral diverges
    logarithmically; it is then truncated after ``singular_cell_refinement``
    (>= 4) dyadic shells toward the origin, the regularization that
    ``singular_cell_report`` flags.  The time rule is always the trapezoid
    over the grid's sample nodes.
    """

    singular_cell_refinement: int = 24

    def __post_init__(self) -> None:
        if self.singular_cell_refinement < 4:
            raise DomainError("singular_cell_refinement must be at least 4")


def _ring_cells(step: float, radius: float, limit: int) -> int:
    """Averaging half-width in cells for one axis: the fixed physical radius
    keeps the averaged/pointwise interface error second order under grid
    refinement, and an identical cell count under dilation."""
    return int(np.clip(round(radius / step), _MIN_RING_CELLS, limit))


# -- box quadrature -------------------------------------------------------------

_GAUSS_N = 6
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)
_PANELS = 4  # Gauss panels per axis of every face tile
_CHUNK = 4096  # face panels per _gauss_box call, which bounds its memory


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


def _face_tiles(c: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tiles of the face box prod [lo_j, hi_j] (lo_j >= 0) at distance c.

    The face is cut by the core [0, c]^m and the dyadic max-norm shells
    c 2^k <= |y|_inf <= c 2^(k+1) around its foot point 0, each shell as the
    2^m - 1 boxes outside its inner cube; every piece is clipped to the face
    and empty pieces are dropped.  On each tile |y|^2 = c^2 + |y_face|^2
    varies by a bounded factor, whatever c is.  Returns (k, m) corners.
    """
    m = len(lo)
    outer_half = (np.arange(1, 2**m)[:, None] >> np.arange(m)) & 1 == 1
    tile_lo, tile_hi = [np.zeros((1, m))], [np.full((1, m), c)]
    s = c
    while s < hi.max(initial=0.0):
        tile_lo.append(np.where(outer_half, s, 0.0))
        tile_hi.append(np.where(outer_half, 2 * s, s))
        s *= 2
    tile_lo = np.maximum(np.vstack(tile_lo), lo)
    tile_hi = np.minimum(np.vstack(tile_hi), hi)
    keep = np.all(tile_hi > tile_lo, axis=1)
    return tile_lo[keep], tile_hi[keep]


def _box_integral(p: float, lo, hi, depth: int) -> tuple[float, bool]:
    """Integral of |z|^p over the box prod [lo_i, hi_i]; returns (value, truncated).

    Exact up to the Gauss rule for p > -d, by the divergence theorem:
    ``(p + d) int_B |z|^p = sum_faces (z . n) int_F |y|^p dS``.  An axis that
    straddles 0 is split there and every part is reflected to [0, a]; an axis
    that does not straddle 0 keeps its interval [l, h].  Congruent orthant
    boxes and equal faces are merged.  A face at x_i = c has z . n = +-c
    (c = 0 carries no flux); it is tiled by ``_face_tiles`` with ``_PANELS``
    Gauss panels per axis.  At p = -d, which only the cell around the
    origin meets, the cell diverges logarithmically and is truncated after
    ``depth`` dyadic shells, each of which carries ``ln 2 * flux``.
    """
    d = len(lo)
    axes = [[(0.0, -l), (0.0, h)] if l < 0 < h else [tuple(sorted((abs(l), abs(h))))]
            for l, h in zip(lo, hi)]
    boxes = collections.Counter(tuple(sorted(b)) for b in itertools.product(*axes))
    flux: dict = collections.defaultdict(float)  # (c, face intervals) -> z . n weight
    for box, count in boxes.items():
        for i, (l, h) in enumerate(box):
            rest = box[:i] + box[i + 1:]
            flux[h, rest] += count * h
            if l > 0:
                flux[l, rest] -= count * l
    tiles_lo, tiles_hi, dist, weight = [], [], [], []
    for (c, rest), wt in flux.items():
        face_lo, face_hi = _face_tiles(c, *np.array(rest, dtype=float).reshape(-1, 2).T)
        tiles_lo.append(face_lo)
        tiles_hi.append(face_hi)
        dist.append(np.full(len(face_lo), c))
        weight.append(np.full(len(face_lo), wt))
    # split each tile into _PANELS^(d-1) Gauss panels
    grid = np.array(list(itertools.product(range(_PANELS), repeat=d - 1)), dtype=float)
    t_lo, t_hi = np.vstack(tiles_lo), np.vstack(tiles_hi)
    step = (t_hi - t_lo)[:, None, :] / _PANELS
    shape = (len(t_lo) * len(grid), d - 1)
    panel_lo = (t_lo[:, None, :] + step * grid).reshape(shape)
    panel_hi = (t_lo[:, None, :] + step * (grid + 1)).reshape(shape)
    c2 = np.repeat(np.concatenate(dist) ** 2, len(grid))
    wt = np.repeat(np.concatenate(weight), len(grid))
    total = 0.0
    for s in range(0, len(wt), _CHUNK):
        c2s = c2[s:s + _CHUNK].reshape((-1,) + (1,) * (d - 1))
        face = _gauss_box(lambda r: (c2s + r * r) ** (0.5 * p),
                          panel_lo[s:s + _CHUNK], panel_hi[s:s + _CHUNK])
        total += float(wt[s:s + _CHUNK] @ face)
    if p + d == 0:
        return depth * math.log(2.0) * total, True
    return total / (p + d), False


def _origin_patch(weight: WeightSpec, steps: Sequence[float], rings: Sequence[int],
                  quad: QuadratureConfig):
    """Cell averages of a power weight on the cells within ``rings`` of the origin.

    Cell ``j`` on axis i is centered at ``j * steps[i]`` with width
    ``steps[i]``; the returned array has shape ``(2 r_i + 1, ...)`` with the
    origin cell, holding its exact (or, at the boundary exponent, truncated)
    integral over its volume, in the middle.  The weight is even in every
    axis, so only the nonnegative orthant is integrated, one leading-axis
    row per call, and then mirrored.  Returns (patch, cell_info) as
    described in ``_spatial_weight_array``.
    """
    radial_fn = weight.radial()
    steps = np.asarray(steps, dtype=float)
    half, vol = steps / 2.0, float(np.prod(steps))
    rest = np.indices([r + 1 for r in rings[1:]]).reshape(len(rings) - 1, -1).T
    orthant = np.empty([r + 1 for r in rings])
    for j in range(rings[0] + 1):
        centers = np.column_stack([np.full(len(rest), j), rest]) * steps
        cells = _gauss_box(radial_fn, centers - half, centers + half)
        orthant[j] = cells.reshape(orthant.shape[1:]) / vol
    value, truncated = _box_integral(-weight.alpha, -half, half, quad.singular_cell_refinement)
    orthant[(0,) * len(steps)] = value / vol
    patch = orthant[np.ix_(*(np.abs(np.arange(-r, r + 1)) for r in rings))]
    patch.setflags(write=False)
    return patch, {"origin_cell": value, "truncated": truncated}


# -- effective lattice weights ------------------------------------------------


def _ring_index(ring: int, grid: GridSpec, block: bool = False):
    """Where the cells within ``ring`` of x = 0 on every axis sit in FFT storage
    order, and which part of an ``_origin_patch`` (its last ``dim`` axes) goes
    there: all of it at the wrapped indices on the full lattice, its
    nonnegative orthant at the first ``ring + 1`` indices on the block."""
    if block:
        return (slice(0, ring + 1),) * grid.dim, (Ellipsis,) + (slice(ring, None),) * grid.dim
    wrapped = np.arange(-ring, ring + 1) % grid.points_per_axis
    return np.ix_(*([wrapped] * grid.dim)), ()


@functools.lru_cache(maxsize=32)
def _spatial_weight_array(grid: GridSpec, weight: WeightSpec, quad: QuadratureConfig):
    """Pointwise weights with cell averages near x = 0 and the refined origin cell.

    Returns (array, cell_info) where the array is in FFT storage order (see
    the module docstring) and cell_info records the origin-cell value and
    whether it was depth-capped.  The array is shared and read-only.
    """
    n = grid.dim
    xnorm = np.sqrt(grid.x_sq_fft())
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(xnorm > 0, weight.radial()(np.where(xnorm > 0, xnorm, 1.0)), 0.0)
    ring = _ring_cells(grid.dx, grid.half_width / RING_RADIUS_FRACTION, grid.points_per_axis // 4)
    patch, info = _origin_patch(weight, [grid.dx] * n, [ring] * n, quad)
    w[_ring_index(ring, grid)[0]] = patch
    w.setflags(write=False)
    return w, info


@functools.lru_cache(maxsize=32)
def _spacetime_ring_patch(grid: GridSpec, weight: WeightSpec, quad: QuadratureConfig):
    """Cell-averaged (t, x) weights for nodes near the space-time origin.

    Returns (patch, cell_info): ``patch[ring_t + dti]`` holds the spatial
    cells within the ring around x = 0 at time-node offset ``dti``; the (0,0)
    cell carries the refined integral divided by its volume.  Read-only.
    """
    t = grid.time_nodes()
    dt = t[1] - t[0]
    radius = grid.half_width / RING_RADIUS_FRACTION
    ring = _ring_cells(grid.dx, radius, grid.points_per_axis // 4)
    ring_t = _ring_cells(dt, radius, max((grid.time_samples - 1) // 2, 1))
    return _origin_patch(weight, [dt] + [grid.dx] * grid.dim, [ring_t] + [ring] * grid.dim, quad)


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


def _spacetime_pointwise(grid: GridSpec, alpha: float, t: float, out: np.ndarray,
                         block: bool = False) -> np.ndarray:
    """Fill ``out`` with |(x,t)|^-alpha in FFT storage order, 0 at the space-time
    origin, on the full lattice or on the block ``grid.even_block``.

    The power is taken once per distinct |x|^2 (``GridSpec.x_sq_levels``) and
    spread over the grid by one ``take``, with the same values as pointwise.
    """
    levels, index = grid.x_sq_levels(block)
    with np.errstate(divide="ignore"):
        table = np.power(levels + t * t, -0.5 * alpha)
    np.take(table, index, out=out, mode="clip")  # "raise" would buffer the output
    if t == 0:
        out[(0,) * grid.dim] = 0.0
    return out


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
    vector.  ``u_sampler`` maps t to a VectorField or raw samples, or has a
    ``spectrum`` (see ``analysis._time_pass``); it is called once per time
    node in ascending order, over all nodes, or over the nodes with t >= 0 if
    it is ``time_even`` (see ``elastic.WaveSampler``): every weight here is
    even in t and in x, so each such node then also stands for its mirror
    node.  The
    sums run in FFT storage order against one weight array, which the
    space-time weight refills in place at every node.
    """
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    measure = grid.dx**grid.dim
    block = _on_block(u_sampler)

    if weight.kind == SPATIAL_POWER:
        w = _spatial_weight_array(grid, weight, quad)[0]
        w = (w[grid.even_block] if block else w).ravel()
        total = 0.0
        for _, _, tw, density in _time_pass(u_sampler, grid):
            total += tw * measure * _weighted_sum(w, density)
        return float(np.sqrt(total))

    # spacetime power: pointwise except near the (0,0) cell
    patch, _ = _spacetime_ring_patch(grid, weight, quad)
    ring_t, ring = patch.shape[0] // 2, patch.shape[1] // 2
    cells, part = _ring_index(ring, grid, block)
    tnodes = grid.time_nodes()
    dt = tnodes[1] - tnodes[0]
    i0 = int(np.argmin(np.abs(tnodes)))
    has_zero_node = abs(tnodes[i0]) < 1e-12 * dt
    w = np.empty(grid.even_shape if block else grid.shape)
    total = 0.0
    for i, t, tw, density in _time_pass(u_sampler, grid):
        _spacetime_pointwise(grid, weight.alpha, t, w, block)
        dti = i - i0
        if has_zero_node and abs(dti) <= ring_t:
            w[cells] = patch[ring_t + dti][part]
        total += tw * measure * _weighted_sum(w.ravel(), density)
    return float(np.sqrt(total))


def singular_cell_report(
    weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig | None = None
) -> dict:
    """Origin-cell integral and whether it was depth-capped (boundary alpha)."""
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    if weight.kind == SPATIAL_POWER:
        _, info = _spatial_weight_array(grid, weight, quad)
    else:
        _, info = _spacetime_ring_patch(grid, weight, quad)
    return dict(info, refinement=quad.singular_cell_refinement)


# -- A2 product ----------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and side length."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise DomainError("cube side must be positive")


def a2_product(alpha: float, n_total: int, cube: Cube) -> float:
    """Muckenhoupt A2 product ``(avg_cube |z|^-alpha)(avg_cube |z|^alpha)``.

    Always >= 1 by Cauchy-Schwarz, with equality exactly at alpha = 0.
    Requires |alpha| < n_total for local integrability, and n_total in 1..4:
    the space-time dimension n + 1 of the package is at most 4, and the cost
    of the face quadrature grows exponentially in n_total.

    For an origin-centered cube in d = n_total dimensions the 2d pyramids with
    apex at the origin give, exactly,
    ``A2 = d^2/(d^2 - alpha^2) * avg_face|y|^-alpha * avg_face|y|^alpha``, and
    since |y| lies in [h, h sqrt(d)] on a face of half-side h,
    ``d^2/(d^2 - alpha^2) <= A2 <= d^2/(d^2 - alpha^2) * d^(|alpha|/2)``.
    The product blows up at the admissibility edge by the law
    ``(d - alpha) * A2 -> sigma_(d-1) * integral_Q |z|^d`` as alpha -> d, with
    sigma_(d-1) the area of the unit sphere and Q the unit cube.  Both
    factors are exact integrals (``_box_integral``) on every cube, so they
    stay exact however close alpha comes to the edge.

    Raises
    ------
    DomainError
        If n_total is outside 1..4, alpha is out of range, or the cube's
        volume is not a finite nonzero float.
    AccuracyError
        If the product is not finite: the moments overflow the float range.
    """
    if not 1 <= n_total <= 4:
        raise DomainError(f"A2 product needs a dimension n_total in 1..4, got {n_total}")
    if not abs(alpha) < n_total:
        raise DomainError(f"A2 product needs a finite |alpha| < {n_total}, got {alpha}")
    if len(cube.center) != n_total:
        raise DomainError(f"cube center has dim {len(cube.center)}, expected {n_total}")
    try:
        vol = cube.side**n_total
    except OverflowError:
        vol = math.inf
    if not 0.0 < vol < math.inf:
        raise DomainError(f"a cube of side {cube.side} in {n_total} dimensions has the volume "
                          f"{vol}, not a finite nonzero float")
    if alpha == 0.0:
        return 1.0  # both factors are averages of the constant 1
    c = np.asarray(cube.center, dtype=float)
    lo, hi = c - cube.side / 2.0, c + cube.side / 2.0
    # |alpha| < n_total keeps both exponents off p = -d, where depth would matter
    neg = _box_integral(-alpha, lo, hi, depth=0)[0] / vol
    pos = _box_integral(alpha, lo, hi, depth=0)[0] / vol
    product = float(neg * pos)
    if not math.isfinite(product):
        raise AccuracyError(f"A2 product at alpha {alpha} on a cube of side {cube.side} is not "
                            f"finite ({product}); the moments overflow the float range")
    return product


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
    cube_family: Sequence[tuple[str, Cube]],
) -> list[A2Row]:
    """A2 products for each alpha over a family of cubes (see default_cube_family)."""
    family = list(cube_family)
    rows = []
    for alpha in alphas:
        for label, cube in family:
            rows.append(
                A2Row(
                    alpha=float(alpha),
                    label=label,
                    center=tuple(cube.center),
                    side=cube.side,
                    product=a2_product(alpha, n_total, cube),
                )
            )
    return rows
