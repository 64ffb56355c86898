"""Discrete Fourier infrastructure on a periodic box.

Fields live on the uniform grid of ``[-L, L)^n`` with ``N`` points per axis;
frequencies live on the lattice ``xi = (pi/L) * m`` with integer modes
``m in [-N/2, N/2)^n``.  The transform normalization follows the continuum
convention ``fhat(xi) = int e^{-i x.xi} f(x) dx``:

    forward:  fhat(xi_m) = dx^n * sum_j f(x_j) e^{-i x_j . xi_m}
    inverse:  f(x_j)     = (dxi/(2 pi))^n * sum_m fhat(xi_m) e^{i x_j . xi_m}

so discrete Parseval holds exactly:
``dx^n sum |f|^2 = (dxi^n/(2 pi)^n) sum |fhat|^2``.

The box stands in for all of space; data should be concentrated near the
origin, and time evolution is valid while ``T + r_support * c_max < L``
(no wrap-around of the fastest wave front).  Every experiment downstream
records this margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "GridSpec",
    "FrequencyLattice",
    "VectorField",
    "SpectralVectorField",
    "forward_transform",
    "inverse_transform",
    "frequency_lattice",
]


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box and the sampling time window.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    points_per_axis : int
        N, a power of two, at least 8.
    half_width : float
        L; physical box is ``[-L, L)^dim``.
    time_samples : int
        M, number of uniform samples on ``[-T, T]`` (trapezoid rule nodes).
    time_horizon : float
        T > 0.
    """

    dim: int
    points_per_axis: int
    half_width: float
    time_samples: int = 2
    time_horizon: float = 1.0

    def __post_init__(self) -> None:
        n, N = self.dim, self.points_per_axis
        if n not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {n}")
        if N < 8 or (N & (N - 1)) != 0:
            raise DomainError(f"points_per_axis must be a power of two >= 8, got {N}")
        if not self.half_width > 0:
            raise DomainError("half_width must be positive")
        if not self.time_horizon > 0:
            raise DomainError("time_horizon must be positive")
        if self.time_samples < 2:
            raise DomainError("time_samples must be at least 2")
        object.__setattr__(self, "_cache", {})

    # -- derived spacings -------------------------------------------------
    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def dxi(self) -> float:
        return np.pi / self.half_width

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def mode_count(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def zero_index(self) -> tuple[int, ...]:
        """Grid index of the point x = 0 (present since N is even)."""
        return (self.points_per_axis // 2,) * self.dim

    def _memo(self, key: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        cache = self.__dict__["_cache"]
        if key not in cache:
            cache[key] = build()
            cache[key].setflags(write=False)
        return cache[key]

    # -- axes and lattices -------------------------------------------------
    @property
    def x_axis(self) -> np.ndarray:
        return self._memo("x_axis", lambda: -self.half_width + self.dx * np.arange(self.points_per_axis))

    @property
    def mode_axis(self) -> np.ndarray:
        """Integer modes in FFT storage order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        N = self.points_per_axis
        return self._memo("mode_axis", lambda: np.fft.fftfreq(N, d=1.0 / N).astype(np.int64))

    @property
    def xi_axis(self) -> np.ndarray:
        return self._memo("xi_axis", lambda: self.dxi * self.mode_axis.astype(float))

    def x_grids(self) -> tuple[np.ndarray, ...]:
        def build():
            return np.stack(np.meshgrid(*([self.x_axis] * self.dim), indexing="ij"))

        g = self._memo("x_grids", build)
        return tuple(g)

    def x_norm(self) -> np.ndarray:
        return self._memo("x_norm", lambda: np.sqrt(sum(x**2 for x in self.x_grids())))

    def x_sq_fft(self) -> np.ndarray:
        """|x|^2 in FFT storage order: index m sits at x = dx * m (m taken mod N
        into [-N/2, N/2)), so the origin is index 0."""
        def build():
            x2 = (self.dx * self.mode_axis) ** 2
            return sum(np.meshgrid(*([x2] * self.dim), indexing="ij", sparse=True))

        return self._memo("x_sq_fft", build)

    def xi_grids(self) -> tuple[np.ndarray, ...]:
        def build():
            return np.stack(np.meshgrid(*([self.xi_axis] * self.dim), indexing="ij"))

        g = self._memo("xi_grids", build)
        return tuple(g)

    def xi_norm(self) -> np.ndarray:
        return self._memo("xi_norm", lambda: np.sqrt(sum(x**2 for x in self.xi_grids())))

    @property
    def xi_max(self) -> float:
        """Per-axis Nyquist frequency (pi/L)(N/2)."""
        return self.dxi * self.points_per_axis / 2.0

    # -- time sampling ------------------------------------------------------
    def time_nodes(self) -> np.ndarray:
        return self._memo(
            "time_nodes",
            lambda: np.linspace(-self.time_horizon, self.time_horizon, self.time_samples),
        )

    def trapezoid_weights(self) -> np.ndarray:
        def build():
            t = self.time_nodes()
            dt = t[1] - t[0]
            w = np.full(self.time_samples, dt)
            w[0] *= 0.5
            w[-1] *= 0.5
            return w

        return self._memo("trapz_weights", build)

    def wraparound_margin(self, support_radius: float, max_speed: float) -> float:
        """Distance to spare before the fastest front reaches the box edge."""
        return self.half_width - (self.time_horizon * max_speed + support_radius)


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


def _check_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    values = np.asarray(values)
    expected = (grid.dim,) + grid.shape
    if values.shape != expected:
        raise ShapeError(f"expected values of shape {expected}, got {values.shape}")
    return np.ascontiguousarray(values, dtype=np.complex128)


@dataclass(frozen=True)
class VectorField:
    """n-component complex field sampled on the physical grid, shape (n, N, ..., N)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.values, self.grid))


@dataclass(frozen=True)
class SpectralVectorField:
    """n-component Fourier coefficients in FFT storage order, shape (n, N, ..., N)."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_values(self.coeffs, self.grid))


# -- raw-array transforms (shared by scalar and vector callers) -------------

def forward_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward transform of an array whose trailing axes are the spatial grid.

    ``e^{-i x_j . xi_m} = (-1)^m e^{-2 pi i j.m/N}``, and with N even the sign
    ``(-1)^m`` is an exact shift of the input by N/2 on every axis.
    """
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    out = np.fft.ifftshift(values, axes=axes).astype(np.complex128, copy=False)
    np.fft.fftn(out, axes=axes, out=out)
    out *= grid.dx**grid.dim
    return out


def inverse_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of ``forward_values``; the sign ``(-1)^m`` shifts the output."""
    axes = tuple(range(coeffs.ndim - grid.dim, coeffs.ndim))
    out = np.fft.fftshift(np.fft.ifftn(coeffs, axes=axes), axes=axes)
    out /= grid.dx**grid.dim
    return out


def forward_transform(f: VectorField) -> SpectralVectorField:
    """Fourier transform a vector field; see the module docstring for normalization."""
    return SpectralVectorField(f.grid, forward_values(f.values, f.grid))


def inverse_transform(F: SpectralVectorField) -> VectorField:
    return VectorField(F.grid, inverse_values(F.coeffs, F.grid))

