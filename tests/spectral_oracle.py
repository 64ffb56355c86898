"""Reference implementations of the spectral fast paths, the test oracles of
the per-mode multiplier and of the FFT-order time pass."""

from typing import Callable

import numpy as np

from morawetz_lab.errors import ShapeError
from morawetz_lab.spectral import GridSpec, SpectralVectorField, VectorField, frequency_lattice
from morawetz_lab.weights import (
    RING_RADIUS_FRACTION,
    SPATIAL_POWER,
    QuadratureConfig,
    WeightSpec,
    _origin_patch,
    _ring_cells,
    _spacetime_ring_patch,
)


def apply_multiplier(
    F: SpectralVectorField,
    m: Callable[[np.ndarray], np.ndarray],
) -> SpectralVectorField:
    """Apply a matrix-valued Fourier multiplier mode by mode.

    ``m`` maps a frequency vector xi (length n) to an n-by-n complex matrix;
    it must be defined at xi = 0 as well (the caller owns the zero-mode
    convention).  Linear in ``F`` by construction.
    """
    grid = F.grid
    n = grid.dim
    lattice = frequency_lattice(grid)
    flat = F.coeffs.reshape(n, -1)
    out = np.empty_like(flat)
    for i, xi in enumerate(lattice.xi):
        mat = np.asarray(m(xi), dtype=np.complex128)
        if mat.shape != (n, n):
            raise ShapeError(f"multiplier returned shape {mat.shape}, expected {(n, n)}")
        out[:, i] = mat @ flat[:, i]
    return SpectralVectorField(grid, out.reshape(F.coeffs.shape))


# -- the time pass in physical order -------------------------------------------


def physical_densities(u_sampler, grid: GridSpec):
    """Yield (node index, trapezoid weight, |u(t)|^2 on the physical grid) at
    every node: ``fftshift(ifftn(uhat)) / dx^n`` for a sampler with a
    ``spectrum``, the samples themselves for a plain callable, then
    re^2 + im^2 summed over the components."""
    n = grid.dim
    for i, (t, tw) in enumerate(zip(grid.time_nodes(), grid.trapezoid_weights())):
        if hasattr(u_sampler, "spectrum"):
            coeffs = u_sampler.spectrum(t)
            axes = tuple(range(coeffs.ndim - n, coeffs.ndim))
            values = np.fft.fftshift(np.fft.ifftn(coeffs, axes=axes), axes=axes) / grid.dx**n
        else:
            sample = u_sampler(t)
            values = sample.values if isinstance(sample, VectorField) else np.asarray(sample)
        dens = values.real**2 + values.imag**2
        yield i, tw, dens.reshape((-1,) + grid.shape).sum(axis=0)


def _center_cells(ring: int, grid: GridSpec):
    return tuple(slice(c - ring, c + ring + 1) for c in grid.zero_index)


def weighted_norm_oracle(u_sampler, weight: WeightSpec, grid: GridSpec) -> float:
    """``weighted_spacetime_norm`` with physical-order weights, spliced at the center."""
    quad = QuadratureConfig()
    measure = grid.dx**grid.dim
    xnorm = grid.x_norm()
    total = 0.0
    if weight.kind == SPATIAL_POWER:
        with np.errstate(divide="ignore"):
            w = np.where(xnorm > 0, np.where(xnorm > 0, xnorm, 1.0) ** -weight.alpha, 0.0)
        ring = _ring_cells(grid.dx, grid.half_width / RING_RADIUS_FRACTION,
                           grid.points_per_axis // 4)
        w[_center_cells(ring, grid)] = _origin_patch(weight, [grid.dx] * grid.dim,
                                                     [ring] * grid.dim, quad)[0]
        for _, tw, dens in physical_densities(u_sampler, grid):
            total += tw * measure * float(np.sum(w * dens))
        return float(np.sqrt(total))

    patch, _ = _spacetime_ring_patch(grid, weight, quad)
    ring_t, ring = patch.shape[0] // 2, patch.shape[1] // 2
    tnodes = grid.time_nodes()
    i0 = int(np.argmin(np.abs(tnodes)))
    has_zero_node = abs(tnodes[i0]) < 1e-12 * (tnodes[1] - tnodes[0])
    for i, tw, dens in physical_densities(u_sampler, grid):
        t = tnodes[i]
        with np.errstate(divide="ignore"):
            w = (xnorm**2 + t * t) ** (-0.5 * weight.alpha)
        if t == 0:
            w[grid.zero_index] = 0.0
        if has_zero_node and abs(i - i0) <= ring_t:
            w[_center_cells(ring, grid)] = patch[ring_t + i - i0]
        total += tw * measure * float(np.sum(w * dens))
    return float(np.sqrt(total))


def local_smoothing_oracle(u_sampler, grid: GridSpec, radii) -> float:
    """``local_smoothing_functional`` over the given radii, in physical order."""
    totals = np.zeros(len(radii))
    for _, tw, dens in physical_densities(u_sampler, grid):
        for j, R in enumerate(radii):
            totals[j] += tw * grid.dx**grid.dim * float(dens[grid.x_norm() < R].sum())
    return float(np.max(totals / np.asarray(radii)))
