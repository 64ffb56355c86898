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

import functools
from math import gamma, pi

import numpy as np

from .cutoff import default_cutoff
from .errors import DomainError, ShapeError
from .spectral import GridSpec, VectorField, cosine_transform, forward_values, inverse_values

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


def _time_pass(u_sampler, grid: GridSpec):
    """Yield (node index, t, weight, density) along one ascending pass.

    ``density`` is a (rows, points) float64 array in FFT storage order whose
    rows sum to |u(t)|^2: grid index m sits at x = dx * m (m taken mod N into
    [-N/2, N/2)), so the origin is index 0.  A sampler with a ``spectrum``
    and an ``out_shape`` (``elastic.WaveSampler``, ``ElasticPropagator``)
    writes each node's spectrum into one ``complex64`` buffer of that shape,
    which one unshifted, unscaled ``ifftn`` transforms in place; its modulus
    goes into one ``density`` array and is squared there.  The pass
    allocates both once.  A real sampler packs its components two per field,
    so a row then holds ``|Re u_0|^2 + |Re u_1|^2`` (see
    ``elastic.WaveSampler``); otherwise a row is one component.
    That transform is u * dx^n, so the constant dx^{-2n} is folded into the
    node's weight.  A plain callable's physical-order samples are reordered
    by one ``ifftshift`` instead.  ``density`` is overwritten at the next
    node; reduce it with ``_weighted_sum``.

    An ``even`` sampler (``_on_block``) writes the block ``grid.even_block``
    of its spectrum, and u is even in every axis too.  The pass transforms
    the block to the block with ``spectral.cosine_transform``, which gives
    u * (N dx)^n, so it folds (N dx)^{-2n} into the weight.  Its density then
    has ``grid.even_shape`` points per row, and each point is multiplied by
    its orbit size ``grid.orbit_sizes()``.  That is the density contract of
    the block: a weight even in every axis, read on the block, sums against
    it to the sum over the whole lattice.  The lattice weights and masks of
    the consumers are all even (see ``weights``).

    Precision: a sampler's phases stay ``complex128`` and the density and
    its reduction are ``float64``; only the spectrum buffer, the per-node
    FFT and its modulus run in single precision, which puts about 1e-7
    relative on the norms.  The cosine transform of an even pass reads that
    buffer but sums in double, which leaves about 1e-9.  A plain callable's
    pass is all double.

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
    axes = tuple(range(-grid.dim, 0))
    scale, orbit, points = 1.0, None, grid.mode_count
    if spectrum is not None:
        buf = np.empty(u_sampler.out_shape, np.complex64)
        density = np.empty(buf.shape)
        scale = grid.dx ** (-2 * grid.dim)
        if _on_block(u_sampler):
            work, orbit = np.empty((2,) + buf.shape, np.complex128), grid.orbit_sizes()
            points = orbit.size
            scale /= grid.mode_count**2

            def transform():
                return cosine_transform(buf, work, grid)
        else:
            def transform():
                return np.fft.ifftn(buf, axes=axes, out=buf)
    for i in range(first, len(nodes)):
        if spectrum is None:
            # no sample outlives this statement, so the pass holds one field
            density = np.abs(np.fft.ifftshift(_field_values(u_sampler(nodes[i]), grid)[0],
                                              axes=axes))
        else:
            spectrum(nodes[i], out=buf)
            np.abs(transform(), out=density)
        np.square(density, out=density)
        if orbit is not None:
            density *= orbit
        yield i, nodes[i], weights[i] * scale, density.reshape(-1, points)


def _on_block(u_sampler) -> bool:
    """Whether ``_time_pass`` runs on the block ``grid.even_block``: the
    sampler states that it is ``even`` (see ``elastic.WaveSampler``)."""
    return getattr(u_sampler, "even", False)


def _weighted_sum(w: np.ndarray, density: np.ndarray) -> float:
    """sum_x w(x) |u(x)|^2, ``w`` flat in FFT storage order: one dot per row
    of ``_time_pass``'s density."""
    return float(sum(w @ d for d in density))


@functools.lru_cache(maxsize=128)
def _cusp_correction(grid: GridSpec, s: float) -> float:
    """J(s) >= 0 with lattice-sum(|xi|^{2s} W) + J = int |xi|^{2s} W dxi.

    W is a Gaussian window of width tau = xi_max/8, wide enough to sample the
    cusp region yet negligible at the Nyquist edge; the integral has a closed
    form.  Grid-adapted tau keeps the correction exactly dilation-covariant.
    """
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
    return max(integral - lattice, 0.0)


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
    ``forward_values`` gave F."""
    n = grid.dim
    G = np.sum(np.abs(F) ** 2, axis=0) / (2 * pi) ** n
    xin = grid.xi_norm()
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

    with np.errstate(divide="ignore"):
        w = np.where(xin > 0, xin ** (2 * s), 0.0)
    total = measure * float(np.sum(w * G))
    if s > 0 and g0 > 0.0:
        total += g0 * _cusp_correction(grid, float(s))
    return float(np.sqrt(total))


def lp_project(field, k: int, grid: GridSpec | None = None):
    """Littlewood-Paley projection to the dyadic band |xi| ~ 2^k.

    Multiplies the spectrum by phi(2^{-k}|xi|); the zero mode is annihilated
    (phi vanishes at 0).  Returns the same type that was passed in.
    """
    values, g = _field_values(field, grid)
    F = forward_values(values, g)
    xin = g.xi_norm()
    mult = np.zeros_like(xin)
    pos = xin > 0
    mult[pos] = default_cutoff()(xin[pos] * 2.0 ** (-k))
    out = inverse_values(mult * F, g)
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
    in FFT storage order, like the samples, and read on the block of an
    ``even`` sampler's pass.
    """
    if radii is None:
        m_lo = int(np.ceil(np.log2(2 * grid.dx)))
        m_hi = int(np.floor(np.log2(grid.half_width)))
        if m_hi < m_lo:
            raise DomainError("box too small to hold any dyadic ball")
        radii = [2.0**m for m in range(m_lo, m_hi + 1)]

    xnorm = np.sqrt(grid.x_sq_fft()[grid.even_block if _on_block(u_sampler) else ()]).ravel()
    masks = [(xnorm < R).astype(np.float64) for R in radii]
    totals = np.zeros(len(radii))
    for _, _, tw, density in _time_pass(u_sampler, grid):
        for j, mask in enumerate(masks):
            totals[j] += tw * grid.dx**grid.dim * _weighted_sum(mask, density)
    return float(np.max(totals / np.asarray(radii)))
