"""Homogeneous Sobolev norms, Littlewood-Paley projections, local smoothing.

The discrete Hdot^s norm is the frequency-lattice quadrature of
``(2 pi)^{-n} int |xi|^{2s} |fhat|^2 dxi``.  Policy at the zero mode:

* s > 0: the zero mode carries no weight.  If the field has nonzero mean,
  the integrand's cusp at xi = 0 is corrected by subtracting a Gaussian
  reference window whose integral is known in closed form, which restores
  high-order agreement with the continuum integral (the plain lattice sum
  converges only like dxi^{n+2s-something} near the cusp).
* s = 0: the zero mode is included, so the norm is exactly the L2 norm.
* s < 0: the field must be mean-zero (zero mode below 1e-12 relative),
  otherwise the continuum integral has no discrete surrogate here.

The correction keeps the norm a genuine weighted-l2 norm of the coefficients
(absolute homogeneity and the triangle inequality hold exactly) and it is
additive across the orthogonal Helmholtz parts because exactly one of them
carries the zero mode.
"""

from __future__ import annotations

import math
from math import gamma, pi

import numpy as np

from .cutoff import default_cutoff
from .errors import DomainError, ShapeError
from .spectral import (
    GridSpec,
    VectorField,
    block_matrices,
    block_transform,
    forward_values,
    inverse_values,
)

__all__ = [
    "hs_norm",
    "lp_project",
    "lp_level_range",
    "local_smoothing_functional",
]

def _field_values(field, grid: GridSpec | None) -> tuple[np.ndarray, GridSpec]:
    """Accept a VectorField or a raw (scalar or component-stacked) array."""
    if isinstance(field, VectorField):
        return field.values, field.grid
    if grid is None:
        raise ShapeError("raw arrays need an explicit grid")
    arr = np.asarray(field, dtype=np.complex128)
    if arr.shape == grid.shape:
        return arr[np.newaxis], grid
    if arr.ndim == grid.dim + 1 and arr.shape[1:] == grid.shape:
        return arr, grid
    raise ShapeError(f"field shape {arr.shape} does not match grid {grid.shape}")


# the most bytes of planes that the pass transforms at once: 7 nodes of the
# frequency scan's 2 x 128 x 65 probe planes, 15 of the 2 x 65^2 elastic
# ones, 1 of a 3-d radial 2 x 33^3 (a node always fits); each transform then
# makes fewer calls per node, which the 2-thread frequency scan gains most from
_BATCH_BYTES = 2**20


def _time_pass(u_sampler, grid: GridSpec):
    """Yield (node index, t, weight, density) along one ascending pass.

    ``density`` is a (rows, points) float64 array in FFT storage order whose
    rows sum to |u(t)|^2 on the block ``grid.block(u_sampler.free)``: grid
    index m sits at x = dx * m (m taken mod N into [-N/2, N/2)), so the
    origin is index 0.  It is overwritten by a later node; reduce it with
    ``_weighted_sum`` before the next.

    A sampler with a ``spectrum``, an ``out_shape``, a ``signature`` and
    ``free`` axes (``elastic.WaveSampler``, of which ``ElasticPropagator``
    is one) writes each node's spectrum into ``float64`` planes of its
    block (real parts, then imaginary ones), each with the parity
    ``signature`` in every axis.
    The pass transforms the planes of as many nodes as ``_BATCH_BYTES``
    holds at once, in place, from the block to the block, with
    ``spectral.block_transform``: one real matmul per signed axis and, when
    an axis is free, one ``complex128`` FFT of each component over the free
    axes.  That gives each component's u * (N dx)^n up to a unimodular
    factor, so the pass folds (N dx)^{-2n} into the weight and squares each
    plane, or the modulus of each component, into one row; all of it runs
    in double precision, in two buffers allocated once per pass.  Each
    point is multiplied by its orbit size ``grid.orbit_sizes(free)``: |u|^2
    is even in every signed axis, whatever the parities.  That is the
    density contract of the block: a weight even in every axis, read on the
    block, sums against it to the sum over the whole lattice.  The lattice
    weights and masks of the consumers are all even (see ``weights``).

    A plain callable's physical-order samples are reordered by one
    ``ifftshift`` instead, all in double, on the full lattice.

    The sampler is called once per node, in ascending order, at every node,
    or only at the nodes with t >= 0 when it declares ``time_even``: the
    nodes are symmetric about 0, so each of those then carries the weight of
    its mirror node too (a node at t = 0 is its own mirror).  The density at
    -t may be that at t reflected, ``|u(-t, x)|^2 = |u(t, -x)|^2`` (real
    coefficients, see ``elastic.halfwave_sampler``), so a consumer's weight
    must be even in x as well as in t; every lattice weight and ball mask
    here is.
    """
    nodes, weights = grid.time_nodes(), grid.trapezoid_weights()
    first = 0
    if getattr(u_sampler, "time_even", False):
        first = len(nodes) // 2
        weights = weights.copy()
        weights[len(nodes) - first:] += weights[:first][::-1]
    spectrum = getattr(u_sampler, "spectrum", None)
    if spectrum is None:
        axes = tuple(range(-grid.dim, 0))
        for i in range(first, len(nodes)):
            # no sample outlives this statement, so the pass holds one field
            density = np.abs(np.fft.ifftshift(_field_values(u_sampler(nodes[i]), grid)[0],
                                              axes=axes))
            yield i, nodes[i], weights[i], np.square(density, out=density).reshape(
                -1, grid.mode_count)
        return
    free, shape = u_sampler.free, u_sampler.out_shape
    size = max(1, min(len(nodes) - first, _BATCH_BYTES // (8 * math.prod(shape))))
    buf = np.empty((size,) + shape)
    signature = u_sampler.signature
    matrices = block_matrices(np.tile(signature, (shape[0] // len(signature), 1)), grid)
    work, orbit = np.empty_like(buf), grid.orbit_sizes(free)
    scale = grid.dx ** (-2 * grid.dim) / grid.mode_count**2
    for start in range(first, len(nodes), size):
        batch = range(start, min(start + size, len(nodes)))
        for k, i in enumerate(batch):
            spectrum(nodes[i], out=buf[k])
        out = block_transform(buf[:len(batch)], matrices, work[:len(batch)], grid)
        if out.dtype == np.float64:
            dens = np.square(out, out=out)
        else:  # |z|^2 of each component, into the planes that z leaves free
            parts = np.square(out.view(np.float64), out=out.view(np.float64))  # re, im, ...
            dens = (buf if np.may_share_memory(out, work) else work)[:len(batch), :len(out[0])]
            np.add(parts[..., ::2], parts[..., 1::2], out=dens)
        dens *= orbit
        for k, i in enumerate(batch):
            yield i, nodes[i], weights[i] * scale, dens[k].reshape(-1, orbit.size)


def _weighted_sum(w: np.ndarray, density: np.ndarray) -> float:
    """sum_x w(x) |u(x)|^2, ``w`` flat in FFT storage order: one dot per row
    of ``_time_pass``'s density."""
    return float(sum(w @ d for d in density))


# J(s) by (dim, points_per_axis, half_width, s), at most 128 of them: keyed on
# scalars, so that equal grids share an entry and no grid is kept alive
_CUSP_CORRECTIONS: dict[tuple, float] = {}


def _cusp_correction(grid: GridSpec, s: float) -> float:
    """J(s) >= 0 with lattice-sum(|xi|^{2s} W) + J = int |xi|^{2s} W dxi.

    W is a Gaussian window of width tau = xi_max/8, wide enough to sample the
    cusp region yet negligible at the Nyquist edge; the integral has a closed
    form.  Grid-adapted tau keeps the correction exactly dilation-covariant.
    A miss reads the grid's own ``xi_norm``, which its samplers share.
    """
    key = (grid.dim, grid.points_per_axis, grid.half_width, s)
    if key in _CUSP_CORRECTIONS:
        return _CUSP_CORRECTIONS[key]
    n = grid.dim
    tau = grid.xi_max / 8.0
    xin = grid.xi_norm()
    w = np.where(xin > 0, xin ** (2 * s), 0.0)
    lattice = grid.dxi**n * float(np.sum(w * np.exp(-(xin**2) / (2 * tau**2))))
    sphere = 2 * pi ** (n / 2) / gamma(n / 2)
    try:
        integral = sphere * 0.5 * (2 * tau**2) ** (s + n / 2) * gamma(s + n / 2)
    except OverflowError:
        raise DomainError(f"Hdot^s with s = {s} overflows the float range on this grid") from None
    if len(_CUSP_CORRECTIONS) >= 128:
        _CUSP_CORRECTIONS.clear()
    _CUSP_CORRECTIONS[key] = value = max(integral - lattice, 0.0)
    return value


def hs_norm(field, s: float, grid: GridSpec | None = None) -> float:
    """Homogeneous Sobolev norm of a (vector or scalar) field.

    Raises
    ------
    DomainError
        If s < 0 and the field is not mean-zero (see the zero-mode policy in
        the module docstring), or if s is so large that the cusp correction
        overflows the float range.
    """
    values, grid = _field_values(field, grid)
    return _hs_norm(forward_values(values, grid), s, grid)


def _hs_norm(F: np.ndarray, s: float, grid: GridSpec) -> float:
    """``hs_norm`` of the field whose component-stacked coefficients
    ``forward_values`` gave F, or, for coefficients even in every axis, the
    block ``grid.even_block`` of them (trailing axes ``grid.even_shape``): a
    block point's ``|F|^2`` then counts ``grid.orbit_sizes()`` times, against
    ``xi_norm(False)``."""
    n = grid.dim
    block = F.shape[1:] == grid.even_shape
    G = np.sum(np.abs(F) ** 2, axis=0) / (2 * pi) ** n
    if block:
        G *= grid.orbit_sizes()
    xin = grid.xi_norm(not block)
    zero = tuple(0 for _ in range(n))
    g0 = float(G[zero])
    measure = grid.dxi**n

    if s == 0:
        return float(np.sqrt(measure * G.sum()))

    if s < 0:
        scale = float(np.max(np.abs(F)))
        if scale > 0 and np.sqrt(g0 * (2 * pi) ** n) > 1e-12 * scale:
            raise DomainError(
                "hs_norm with s < 0 requires a mean-zero field: the zero mode is "
                "excluded by policy and would make the norm infinite"
            )

    G[zero] = 0.0  # the sum runs over xi != 0 only: overflowed data give inf, not inf * 0
    with np.errstate(divide="ignore"):
        w = np.where(xin > 0, xin ** (2 * s), 0.0)
    total = measure * float(np.sum(w * G))
    if s > 0 and g0 > 0.0:
        correction = _cusp_correction(grid, float(s))
        total += g0 * correction if correction > 0 else 0.0
    return float(np.sqrt(total))


def lp_project(field, k: int, grid: GridSpec | None = None):
    """Littlewood-Paley projection to the dyadic band |xi| ~ 2^k.

    Multiplies the spectrum by phi(2^{-k}|xi|); the zero mode is annihilated
    (phi vanishes at 0).  Returns the same type that was passed in.
    """
    values, g = _field_values(field, grid)
    F = forward_values(values, g)
    levels, index = g.xi_levels()  # phi once per distinct |xi|, 0 at xi = 0
    table = np.zeros_like(levels)
    table[1:] = default_cutoff()(levels[1:] * 2.0 ** (-k))
    out = inverse_values(table[index] * F, g)
    if isinstance(field, VectorField):
        return VectorField(g, out)
    return out if np.asarray(field).ndim > g.dim else out[0]


def lp_level_range(grid: GridSpec) -> range:
    """Levels k whose bands (2^{k-1}, 2^{k+1}) touch the nonzero lattice frequencies."""
    lo = grid.dxi
    hi = grid.xi_max * np.sqrt(grid.dim)
    k_lo = int(np.floor(np.log2(lo))) - 1
    k_hi = int(np.ceil(np.log2(hi))) + 1
    return range(k_lo, k_hi + 1)


def local_smoothing_functional(u_sampler, grid: GridSpec, radii=None) -> float:
    """max over dyadic R of (1/R) int_{|x|<R} int_{-T}^{T} |u|^2 dt dx.

    ``u_sampler`` maps t to a VectorField or raw samples, or has a
    ``spectrum`` (see ``_time_pass``); it is called once per time node in
    ascending order, over all nodes, or over the nodes with t >= 0 if it is
    ``time_even`` (see ``elastic.WaveSampler``).  R runs over powers of two
    that fit in the box, down to a few grid cells; the ball masks are built
    in FFT storage order, like the samples, and read on the block of the
    sampler's pass.
    """
    if radii is None:
        m_lo = int(np.ceil(np.log2(2 * grid.dx)))
        m_hi = int(np.floor(np.log2(grid.half_width)))
        if m_hi < m_lo:
            raise DomainError("box too small to hold any dyadic ball")
        radii = [2.0**m for m in range(m_lo, m_hi + 1)]

    xnorm = np.sqrt(grid.x_sq_fft()[grid.block(getattr(u_sampler, "free", True))]).ravel()
    masks = [(xnorm < R).astype(np.float64) for R in radii]
    totals = np.zeros(len(radii))
    for _, _, tw, density in _time_pass(u_sampler, grid):
        for j, mask in enumerate(masks):
            totals[j] += tw * grid.dx**grid.dim * _weighted_sum(mask, density)
    return float(np.max(totals / np.asarray(radii)))
