"""Reference implementations of the spectral fast paths, the test oracles of
the per-mode multiplier and of the FFT-order time pass, and the mode-by-mode
frequency lattice and Helmholtz projectors they are built from."""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from morawetz_lab.errors import ShapeError
from morawetz_lab.spectral import GridSpec
from morawetz_lab.weights import SPATIAL_POWER, QuadratureConfig, WeightSpec, _weight_patch


@dataclass(frozen=True)
class FrequencyLattice:
    """All N^n frequency modes of a grid, enumerated once in FFT storage order."""

    grid: GridSpec
    modes: np.ndarray = field(init=False, repr=False)
    xi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = self.grid
        mg = np.meshgrid(*([g.mode_axis] * g.dim), indexing="ij")
        modes = np.stack([m.ravel() for m in mg], axis=-1)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "xi", modes.astype(float) * g.dxi)

    def __len__(self) -> int:
        return self.modes.shape[0]


def frequency_lattice(grid: GridSpec) -> FrequencyLattice:
    return FrequencyLattice(grid)


def projection_matrices(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longitudinal projector P = xi xi^t/|xi|^2 and transverse Q = I - P.

    At xi = 0 returns P = 0, Q = I (declared convention).
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    nsq = float(xi @ xi)
    if nsq == 0.0:
        return np.zeros((n, n)), np.eye(n)
    P = np.outer(xi, xi) / nsq
    return P, np.eye(n) - P


def apply_multiplier(
    F: np.ndarray,
    grid: GridSpec,
    m: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Apply a matrix-valued Fourier multiplier mode by mode to the
    component-stacked coefficients F, shape (n, N, ..., N) in FFT storage order.

    ``m`` maps a frequency vector xi (length n) to an n-by-n complex matrix;
    it must be defined at xi = 0 as well (the caller owns the zero-mode
    convention).  Linear in ``F`` by construction.
    """
    n = grid.dim
    lattice = frequency_lattice(grid)
    flat = F.reshape(n, -1)
    out = np.empty_like(flat)
    for i, xi in enumerate(lattice.xi):
        mat = np.asarray(m(xi), dtype=np.complex128)
        if mat.shape != (n, n):
            raise ShapeError(f"multiplier returned shape {mat.shape}, expected {(n, n)}")
        out[:, i] = mat @ flat[:, i]
    return out.reshape(F.shape)


# -- the time pass in physical order -------------------------------------------


def physical_densities(u_sampler, grid: GridSpec):
    """Yield (node index, trapezoid weight, |u(t)|^2 on the physical grid) at
    every node: ``fftshift(ifftn(uhat)) / dx^n`` of the sampler's
    ``spectrum``, then re^2 + im^2 summed over the components."""
    n = grid.dim
    for i, (t, tw) in enumerate(zip(grid.time_nodes(), grid.trapezoid_weights())):
        coeffs = u_sampler.spectrum(t)
        axes = tuple(range(coeffs.ndim - n, coeffs.ndim))
        values = np.fft.fftshift(np.fft.ifftn(coeffs, axes=axes), axes=axes) / grid.dx**n
        dens = values.real**2 + values.imag**2
        yield i, tw, dens.reshape((-1,) + grid.shape).sum(axis=0)


def zero_index(grid: GridSpec) -> tuple[int, ...]:
    """Grid index of the point x = 0 in physical order (present since N is even)."""
    return (grid.points_per_axis // 2,) * grid.dim


def _center_cells(ring: int, grid: GridSpec):
    return tuple(slice(c - ring, c + ring + 1) for c in zero_index(grid))


def weighted_norm_oracle(u_sampler, weight: WeightSpec, grid: GridSpec) -> float:
    """``weighted_spacetime_norm`` with physical-order weights, spliced at the center."""
    quad = QuadratureConfig()
    measure = grid.dx**grid.dim
    xnorm = grid.x_norm()
    total = 0.0
    patch, _ = _weight_patch(weight, grid, quad)
    if weight.kind == SPATIAL_POWER:
        with np.errstate(divide="ignore"):
            w = np.where(xnorm > 0, np.where(xnorm > 0, xnorm, 1.0) ** -weight.alpha, 0.0)
        w[_center_cells(patch.shape[0] // 2, grid)] = patch
        for _, tw, dens in physical_densities(u_sampler, grid):
            total += tw * measure * float(np.sum(w * dens))
        return float(np.sqrt(total))

    ring_t, ring = patch.shape[0] // 2, patch.shape[1] // 2
    tnodes = grid.time_nodes()
    i0 = int(np.argmin(np.abs(tnodes)))
    has_zero_node = abs(tnodes[i0]) < 1e-12 * (tnodes[1] - tnodes[0])
    for i, tw, dens in physical_densities(u_sampler, grid):
        t = tnodes[i]
        with np.errstate(divide="ignore"):
            w = (xnorm**2 + t * t) ** (-0.5 * weight.alpha)
        if t == 0:
            w[zero_index(grid)] = 0.0
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
