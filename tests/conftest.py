import numpy as np
import pytest

from morawetz_lab import GridSpec, VectorField
from morawetz_lab.spectral import forward_values, inverse_values


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_vector_field(grid: GridSpec, rng, mean_zero: bool = False) -> VectorField:
    shape = (grid.dim,) + grid.shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if mean_zero:
        vals -= vals.reshape(grid.dim, -1).mean(axis=1).reshape((grid.dim,) + (1,) * grid.dim)
    return VectorField(grid, vals)


def smooth_random_field(grid: GridSpec, rng, width: float = 1.0, mean_zero: bool = False):
    """Random field with a Gaussian spectral envelope (smooth, well resolved)."""
    shape = (grid.dim,) + grid.shape
    white = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    envelope = np.exp(-(grid.xi_norm() ** 2) * width**2 / 2.0)
    coeffs = white * envelope
    if mean_zero:
        coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return VectorField(grid, inverse_values(coeffs, grid))


def l2_norm(field: VectorField) -> float:
    g = field.grid
    return float(np.sqrt(g.dx**g.dim * np.sum(np.abs(field.values) ** 2)))


def spectral_divergence(field: VectorField) -> np.ndarray:
    g = field.grid
    F = forward_values(field.values, g)
    xi = g.xi_open()
    div_hat = sum(1j * xi[i] * F[i] for i in range(g.dim))
    return inverse_values(div_hat, g)
