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
point.  None of this depends on p, so ``_box_integral`` builds one node set
per box (panels, squared radii c^2 + |y|^2 and Gauss times flux weights)
and sums every exponent it is given from it in one pass: an A2 cube takes
all the exponents -alpha and +alpha of a scan at once.  At p = -d (the
boundary exponent) the flux formula is replaced by the depth-truncated
value ``depth * ln 2 * flux``: each dyadic shell of the cell carries
``ln 2 * flux``.  Cells adjacent to the singularity use Gauss
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
around the singularity.  Its integrand is a function of the squared radius
|z|^2 at the nodes, never of |z|, and may return one integral per exponent
on a leading axis.  The weights are even in every axis, so the averaged
patch around the singularity is integrated over the nonnegative orthant only,
one cell per permutation orbit of its equally spaced axes, and mirrored.

One weight path: both weights are the power |(x, t)|^{-alpha}, 0 at the
origin, taken once per distinct |x|^2 (``GridSpec.x_sq_levels``) and filled
in FFT storage order, the order of ``analysis._time_pass``'s samples (grid
index m at x = dx * m, m taken mod N into [-N/2, N/2)), with the cell
averages of ``_origin_patch`` laid over the wrapped indices
``arange(-r, r + 1) % N`` around the origin.  The spatial weight is the fill
at t = 0, once per norm; the space-time weight is refilled at every node,
its patch covering the nodes near t = 0.  Both patches are cached on
scalars (weight, steps, rings, quadrature), never on a grid.
The time pass hands over squared moduli of the raw inverse transform and
folds its constant into its node weights, so the norms here need no
per-node rescaling or shift.  Every weight here, and every ball mask of
``analysis.local_smoothing_functional``, is even in each axis
(``m_i -> -m_i mod N``).  So for a sampler's pass, which hands over the
block of its free axes (``GridSpec.block``: ``[:N/2 + 1]`` on each axis
where every component is even or odd, so |u|^2 even, all N on a free one)
with each point's density multiplied by its orbit size, the weights are
filled on that block, from the block's |x|^2 levels, and the averaged
patch is laid over it through its nonnegative half, at the indices
``arange(r + 1)``, on each signed axis.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _time_pass, _weighted_sum
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
        """The weight as a function of the squared radius |z|^2."""
        half_a = 0.5 * self.alpha
        return lambda r2: r2 ** (-half_a)


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
    return min(max(round(radius / step), _MIN_RING_CELLS), limit)


# -- box quadrature -------------------------------------------------------------

_GAUSS_N = 6
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)
_PANELS = 4  # Gauss panels per axis of every face tile
# exponent x node values per _gauss_box call of _box_integral, which bounds
# its memory: 4096 nodes at the eight exponents of a scan of four alphas
_CHUNK = 4096 * 8


def _gauss_box(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Tensor Gauss integrals of a function of |z|^2 over k axis-aligned boxes.

    ``lo`` and ``hi`` are (k, d) arrays of box corners; ``fn`` maps the
    squared radii at the (k, G, ..., G) nodes to values of that shape, or of
    that shape behind leading axes (one per exponent, say).  Returns the k
    integrals behind the same leading axes, evaluated in one broadcast.
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
    values = fn(r2) * w
    return values.reshape(values.shape[:values.ndim - d - 1] + (k, -1)).sum(axis=-1)


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


@functools.lru_cache(maxsize=32)
def _orbits(count: int, classes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the index tuples ``product(range(count), repeat=len(classes))``
    under the permutations of the axes that share a label in ``classes``.

    Returns, read-only: one representative per orbit, (k, m), its indices
    ascending within each class and the orbits in lexicographic order of
    their representatives; the orbit of every tuple, in product order; and
    the size of every orbit.
    """
    groups = [[i for i, c in enumerate(classes) if c == label] for label in set(classes)]

    def canonical(cell):
        out = list(cell)
        for axes in groups:
            for i, index in zip(axes, sorted(cell[i] for i in axes)):
                out[i] = index
        return tuple(out)

    # plain Python: on first use numpy's sort and unique page in about 0.3 MB of
    # code (numpy 2.4, x86-64) that no weight build needs otherwise
    keys = [canonical(cell) for cell in itertools.product(range(count), repeat=len(classes))]
    sizes = collections.Counter(keys)
    reps = sorted(sizes)
    where = {rep: k for k, rep in enumerate(reps)}
    orbits = (np.array(reps, dtype=np.intp).reshape(len(reps), len(classes)),
              np.array([where[key] for key in keys], dtype=np.intp),
              np.array([sizes[rep] for rep in reps], dtype=np.intp))
    for array in orbits:
        array.setflags(write=False)
    return orbits


def _box_integral(ps: Sequence[float], lo, hi, depth: int) -> list[tuple[float, bool]]:
    """Integrals of |z|^p over the box prod [lo_i, hi_i], one (value, truncated)
    per exponent p of ``ps``.

    Exact up to the Gauss rule for p > -d, by the divergence theorem:
    ``(p + d) int_B |z|^p = sum_faces (z . n) int_F |y|^p dS``.  An axis that
    straddles 0 is split there and every part is reflected to [0, a]; an axis
    that does not straddle 0 keeps its interval [l, h].  Congruent orthant
    boxes and equal faces are merged.  A face at x_i = c has z . n = +-c
    (c = 0 carries no flux); it is tiled by ``_face_tiles`` with ``_PANELS``
    Gauss panels per axis.  The node set does not depend on p: the panels,
    their squared radii ``c^2 + |y|^2`` and their Gauss times flux weights are
    built once per box, and every exponent is summed from them in one pass,
    as ``exp(p/2 * log r2)``, in chunks of at most ``_CHUNK`` exponent-node
    values.  At p = -d, which only the cell around the origin meets, the cell
    diverges logarithmically and is truncated after ``depth`` dyadic shells,
    each of which carries ``ln 2 * flux``.
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
    # split each tile into _PANELS^(d-1) Gauss panels and keep one per
    # permutation orbit of its axes with equal intervals, weighted by its size
    panel_lo, panel_hi, c2, wt = [], [], [], []
    for (c, rest), weight in flux.items():
        for lo_t, hi_t in zip(*_face_tiles(c, *np.array(rest, dtype=float).reshape(-1, 2).T)):
            intervals = list(zip(lo_t.tolist(), hi_t.tolist()))
            panels, _, sizes = _orbits(_PANELS, tuple(intervals.index(iv) for iv in intervals))
            step = (hi_t - lo_t) / _PANELS
            panel_lo.append(lo_t + step * panels)
            panel_hi.append(lo_t + step * (panels + 1))
            c2.append(np.full(len(panels), c * c))
            wt.append(weight * sizes)
    panel_lo, panel_hi = np.vstack(panel_lo), np.vstack(panel_hi)
    c2 = np.concatenate(c2).reshape((-1,) + (1,) * (d - 1))
    wt = np.concatenate(wt)
    half_p = 0.5 * np.asarray(ps, dtype=float).reshape((-1,) + (1,) * d)
    chunk = max(1, _CHUNK // (len(half_p) * _GAUSS_N ** (d - 1)))
    total = np.zeros(len(half_p))
    for s in range(0, len(wt), chunk):
        c2s = c2[s:s + chunk]
        face = _gauss_box(lambda r2: np.exp(half_p * np.log(c2s + r2)),
                          panel_lo[s:s + chunk], panel_hi[s:s + chunk])
        total += face @ wt[s:s + chunk]
    return [(depth * math.log(2.0) * float(v), True) if p + d == 0 else
            (float(v) / (p + d), False) for p, v in zip(ps, total)]


def _origin_patch(weight: WeightSpec, steps: tuple[float, ...], rings: tuple[int, ...],
                  quad: QuadratureConfig):
    """Cell averages of a power weight on the cells within ``rings`` of the origin.

    Cell ``j`` on axis i is centered at ``j * steps[i]`` with width
    ``steps[i]``; the returned array has shape ``(2 r_i + 1, ...)`` with the
    origin cell, holding its exact (or, at the boundary exponent, truncated)
    integral over its volume, in the middle.  The axes after the first share
    one step and one ring, as ``_weight_patch`` builds them.  The weight is
    even in every axis, so only the nonnegative orthant is integrated, and it
    is symmetric under permutations of those trailing axes, so one
    leading-axis row per call integrates one cell per permutation orbit (its
    indices ascending, ``_orbits``, as ``_box_integral`` takes one face
    panel per orbit) and scatters the values over the orbit; the orthant is
    then mirrored.  Returns the read-only patch and a read-only mapping of
    the origin-cell value and whether it was depth-capped.
    """
    radial_fn = weight.radial()
    steps = np.asarray(steps, dtype=float)
    half, vol = steps / 2.0, float(np.prod(steps))
    cells, scatter, _ = _orbits(rings[1] + 1, (0,) * (len(rings) - 1))
    orthant = np.empty([r + 1 for r in rings])
    for j in range(rings[0] + 1):
        centers = np.column_stack([np.full(len(cells), j), cells]) * steps
        row = _gauss_box(radial_fn, centers - half, centers + half)
        orthant[j] = row[scatter].reshape(orthant.shape[1:]) / vol
    [(value, truncated)] = _box_integral([-weight.alpha], -half, half,
                                         quad.singular_cell_refinement)
    orthant[(0,) * len(steps)] = value / vol
    patch = orthant[np.ix_(*(np.abs(np.arange(-r, r + 1)) for r in rings))]
    patch.setflags(write=False)
    return patch, types.MappingProxyType({"origin_cell": value, "truncated": truncated})


# -- effective lattice weights ------------------------------------------------


def _ring_index(ring: int, grid: GridSpec, free=True):
    """Where the cells within ``ring`` of x = 0 on every axis sit on the block
    with the free axes ``free`` (``GridSpec.block``), and which part of an
    ``_origin_patch`` (its last ``dim`` axes) goes there: all of it at the
    wrapped indices on a free axis, its nonnegative half at the first
    ``ring + 1`` indices on a signed one."""
    free = np.broadcast_to(free, grid.dim).tolist()
    wrapped = np.arange(-ring, ring + 1) % grid.points_per_axis
    index = [wrapped if f else np.arange(ring + 1) for f in free]
    return np.ix_(*index), (Ellipsis,) + tuple(slice(None if f else ring, None) for f in free)


# one cache of _origin_patch per weight kind, keyed on scalars only and looked
# up by name at every call (perfbench/tracing.py rebuilds both)
_spatial_weight_array = functools.lru_cache(maxsize=32)(_origin_patch)
_spacetime_ring_patch = functools.lru_cache(maxsize=32)(_origin_patch)


def _weight_patch(weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig):
    """The cached ``_origin_patch`` of ``weight`` on ``grid``: the cells within
    a fixed physical radius of x = 0 (``_ring_cells``), and for the space-time
    weight a leading axis of the time nodes within that radius of t = 0."""
    radius = grid.half_width / RING_RADIUS_FRACTION
    ring = _ring_cells(grid.dx, radius, grid.points_per_axis // 4)
    steps, rings = (grid.dx,) * grid.dim, (ring,) * grid.dim
    if weight.kind == SPATIAL_POWER:
        return _spatial_weight_array(weight, steps, rings, quad)
    t = grid.time_nodes()
    dt = float(t[1] - t[0])
    ring_t = _ring_cells(dt, radius, max((grid.time_samples - 1) // 2, 1))
    return _spacetime_ring_patch(weight, (dt,) + steps, (ring_t,) + rings, quad)


def prebuild_weight(weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig) -> None:
    """Build the cached origin patch of ``weighted_spacetime_norm`` ahead of time.

    Callers that hand norms of one weight to a thread pool call this first,
    so the workers share one build instead of each missing the cache.
    """
    weight.validate_for(grid)
    _weight_patch(weight, grid, quad)


def _spacetime_pointwise(grid: GridSpec, alpha: float, t: float, out: np.ndarray,
                         free=True) -> np.ndarray:
    """Fill ``out`` with |(x,t)|^-alpha in FFT storage order, 0 at the space-time
    origin, on the block with the free axes ``free`` (``GridSpec.block``; by
    default the full lattice).

    The power is taken once per distinct |x|^2 (``GridSpec.x_sq_levels``) and
    spread over the grid by one ``take``, with the same values as pointwise.
    """
    levels, index = grid.x_sq_levels(free)
    with np.errstate(divide="ignore"):
        table = np.power(levels + t * t, -0.5 * alpha)
    table.take(index, out=out, mode="clip")  # "raise" would buffer the output
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
    vector.  ``u_sampler`` is an ``elastic.WaveSampler``, sampled once per
    time node in ascending order, over all nodes, or over the nodes with
    t >= 0 if it is ``time_even`` (see ``analysis._time_pass``): every
    weight here is even in t and in x, so each such node then also stands
    for its mirror node.  The sums run in FFT storage order on the block of
    the pass (``grid.block(free)``) against one weight array, filled as the
    module docstring describes: once, at t = 0, for the spatial weight, and
    in place at every node for the space-time weight.
    """
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    measure = grid.dx**grid.dim
    free = u_sampler.free
    patch, _ = _weight_patch(weight, grid, quad)
    spacetime = weight.kind == SPACETIME_POWER
    if not spacetime:  # the spatial weight: the fill at t = 0 under a one-node patch
        patch = patch[np.newaxis]
    ring_t, ring = patch.shape[0] // 2, patch.shape[1] // 2
    cells, part = _ring_index(ring, grid, free)
    tnodes = grid.time_nodes()
    i0 = int(np.argmin(np.abs(tnodes)))
    has_zero_node = not spacetime or abs(tnodes[i0]) < 1e-12 * (tnodes[1] - tnodes[0])
    w, filled = np.empty(grid.block_shape(free)), None
    total = 0.0
    for i, t, tw, density in _time_pass(u_sampler, grid):
        if not spacetime:  # every node takes the weight at t = 0, filled once
            i, t = i0, 0.0
        if t != filled:
            _spacetime_pointwise(grid, weight.alpha, t, w, free)
            if has_zero_node and abs(i - i0) <= ring_t:
                w[cells] = patch[ring_t + i - i0][part]
            filled = t
        total += tw * measure * _weighted_sum(w.ravel(), density)
    return float(np.sqrt(total))


def singular_cell_report(
    weight: WeightSpec, grid: GridSpec, quad: QuadratureConfig | None = None
) -> dict:
    """Origin-cell integral and whether it was depth-capped (boundary alpha)."""
    quad = quad or QuadratureConfig()
    weight.validate_for(grid)
    _, info = _weight_patch(weight, grid, quad)
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


def _check_a2_dimension(n_total: int) -> None:
    if not 1 <= n_total <= 4:
        raise DomainError(f"A2 product needs a dimension n_total in 1..4, got {n_total}")


def _a2_products(alphas: Sequence[float], n_total: int, cubes: Sequence[Cube]) -> np.ndarray:
    """A2 products of every alpha (rows) on every cube (columns).

    Every (alpha, cube) is validated before any quadrature runs, so a bad
    entry fails at once however costly the others are.  Then each cube takes
    one ``_box_integral`` over the exponents ``[-alphas, +alphas]`` of its
    nonzero alphas, which share one node set; alpha = 0 is exactly 1.
    """
    _check_a2_dimension(n_total)
    for alpha in alphas:
        if not abs(alpha) < n_total:
            raise DomainError(f"A2 product needs a finite |alpha| < {n_total}, got {alpha}")
    vols = []
    for cube in cubes:
        if len(cube.center) != n_total:
            raise DomainError(f"cube center has dim {len(cube.center)}, expected {n_total}")
        try:
            vol = cube.side**n_total
        except OverflowError:
            vol = math.inf
        if not 0.0 < vol < math.inf:
            raise DomainError(f"a cube of side {cube.side} in {n_total} dimensions has the "
                              f"volume {vol}, not a finite nonzero float")
        vols.append(vol)
    alphas = np.asarray(alphas, dtype=float)
    live = alphas != 0.0  # both factors at alpha = 0 are averages of the constant 1
    products = np.ones((len(alphas), len(vols)))
    if not live.any():
        return products
    ps = np.concatenate([-alphas[live], alphas[live]])
    for j, (cube, vol) in enumerate(zip(cubes, vols)):
        c = np.asarray(cube.center, dtype=float)
        lo, hi = c - cube.side / 2.0, c + cube.side / 2.0
        # |alpha| < n_total keeps every exponent off p = -d, where depth would matter
        moments = np.array([v for v, _ in _box_integral(ps, lo, hi, depth=0)]) / vol
        neg, pos = np.split(moments, 2)
        products[live, j] = neg * pos
        bad = ~np.isfinite(products[:, j])
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(f"A2 product at alpha {alphas[i]} on a cube of side {cube.side} "
                                f"is not finite ({products[i, j]}); the moments overflow the "
                                f"float range")
    return products


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
    factors are exact integrals on every cube, so they stay exact however
    close alpha comes to the edge: one ``_box_integral`` call builds the
    cube's face nodes once and sums both exponents -alpha and +alpha from
    them (as ``a2_scan`` sums all of its alphas).

    Raises
    ------
    DomainError
        If n_total is outside 1..4, alpha is out of range, or the cube's
        volume is not a finite nonzero float.
    AccuracyError
        If the product is not finite: the moments overflow the float range.
    """
    return float(_a2_products([alpha], n_total, [cube])[0, 0])


@dataclass(frozen=True)
class A2Row:
    alpha: float
    label: str
    center: tuple[float, ...]
    side: float
    product: float


def default_cube_family(n_total: int, side: float = 1.0) -> list[tuple[str, Cube]]:
    """Origin-centered cube plus cubes offset along the first axis by
    {0.5, 1, 2, 4} side lengths, in the n_total in 1..4 dimensions of
    ``a2_product``, checked before the centers are allocated."""
    _check_a2_dimension(n_total)
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
    """A2 products for each alpha over a family of cubes (see default_cube_family).

    Validates every (alpha, cube) as ``a2_product`` does before any
    quadrature, then integrates each cube once for all alphas.
    """
    alphas, family = list(alphas), list(cube_family)
    products = _a2_products(alphas, n_total, [cube for _, cube in family])
    return [A2Row(alpha=float(alpha), label=label, center=tuple(cube.center), side=cube.side,
                  product=float(products[i, j]))
            for i, alpha in enumerate(alphas) for j, (label, cube) in enumerate(family)]
