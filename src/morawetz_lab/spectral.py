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
    "cosine_transform",
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
        return self._memo("x_norm", lambda: np.sqrt(sum(x**2 for x in self._open(self.x_axis))))

    def _open(self, axis: np.ndarray) -> list[np.ndarray]:
        """One broadcasting copy of ``axis`` per dimension: the values of the
        dense grids without their memory."""
        return np.meshgrid(*([axis] * self.dim), indexing="ij", sparse=True)

    def _x_sq(self, block: bool = False) -> np.ndarray:
        m = np.arange(self.points_per_axis // 2 + 1) if block else self.mode_axis
        return sum(self._open((self.dx * m) ** 2))

    def x_sq_fft(self) -> np.ndarray:
        """|x|^2 in FFT storage order: index m sits at x = dx * m (m taken mod N
        into [-N/2, N/2)), so the origin is index 0."""
        return self._memo("x_sq_fft", self._x_sq)

    def x_sq_levels(self, block: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of ``x_sq_fft()``, ascending, and the index of
        each grid point's value among them (``intp``, of shape ``shape``, or
        of ``even_shape`` for the points of the block), so a radial function
        of |x|^2 can be evaluated once per value.  |x|^2 is even in every
        axis, so the block holds every value.  Neither keeps ``x_sq_fft()``
        alive."""
        def build():  # np.unique would import numpy.ma, about 1 MB
            ordered = np.sort(self._x_sq(block=True), axis=None)
            return ordered[np.diff(ordered, prepend=-1.0) > 0]

        levels = self._memo("x_sq_levels", build)
        return levels, self._memo(f"x_sq_index {block}",
                                  lambda: np.searchsorted(levels, self._x_sq(block)))

    # -- the even block ------------------------------------------------------
    # An array even in every axis, X(R_i m) = X(m) for each reflection
    # R_i: m_i -> -m_i mod N, is fixed by its values on one representative of
    # every orbit of those reflections, m_i in [0, N/2]: the block
    # [:N/2 + 1]^n of FFT storage order.  A point's orbit has
    # prod_i (1 if m_i in {0, N/2} else 2) points.

    @property
    def even_block(self) -> tuple[slice, ...]:
        """Index of the block ``[:N/2 + 1]^n`` in FFT storage order."""
        return (slice(0, self.points_per_axis // 2 + 1),) * self.dim

    @property
    def even_shape(self) -> tuple[int, ...]:
        return (self.points_per_axis // 2 + 1,) * self.dim

    def orbit_sizes(self) -> np.ndarray:
        """The number of lattice points in the orbit of each block point, of
        shape ``even_shape``: a sum over the lattice of an even array is the
        sum over the block of the array times these."""
        def build():
            axis = np.full(self.points_per_axis // 2 + 1, 2.0)
            axis[[0, -1]] = 1.0
            sizes = axis
            for _ in range(self.dim - 1):
                sizes = np.multiply.outer(sizes, axis)
            return sizes

        return self._memo("orbit_sizes", build)

    def unfold(self, block: np.ndarray) -> np.ndarray:
        """The full lattice, in FFT storage order, of an array even in its last
        ``dim`` axes, from its block: a new array, index m read at min(m, N - m)."""
        def build():
            m = np.arange(self.points_per_axis)
            return np.minimum(m, self.points_per_axis - m)

        return block[(Ellipsis,) + np.ix_(*([self._memo("fold_axis", build)] * self.dim))]

    def xi_grids(self) -> tuple[np.ndarray, ...]:
        def build():
            return np.stack(np.meshgrid(*([self.xi_axis] * self.dim), indexing="ij"))

        g = self._memo("xi_grids", build)
        return tuple(g)

    def xi_norm(self, block: bool = False) -> np.ndarray:
        """|xi| in FFT storage order, on the full lattice or on its even block."""
        if block:
            return self._memo("xi_norm block",
                              lambda: np.ascontiguousarray(self.xi_norm()[self.even_block]))
        return self._memo("xi_norm", lambda: np.sqrt(sum(x**2 for x in self.xi_open())))

    def xi_open(self) -> list[np.ndarray]:
        """The xi grids as an open mesh, one broadcasting axis per dimension."""
        return self._open(self.xi_axis)

    def phase_step(self, c: float, block: bool = False) -> np.ndarray:
        """``e^{i dt c |xi|}``, the phase a wave of speed c gains from one time
        node to the next, on the lattice ``xi_norm(block)``; built once per
        grid, speed and lattice and shared by every sampler on them."""
        def build():
            nodes = self.time_nodes()
            dt = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
            return np.exp(1j * dt * c * self.xi_norm(block))

        return self._memo(f"phase_step {c!r} {block}", build)

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


def cosine_transform(a: np.ndarray, work: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The unscaled inverse DFT ``sum_m a(m) e^{2 pi i j.m/N}`` of coefficients
    even in every spatial axis, from the block to the block.

    The sum over m's orbit is ``mult_m cos(2 pi j m/N)`` per axis, so along
    each axis it is the cosine transform (DCT-I) ``C[j, m] = mult_m cos(2 pi
    j m/N)`` on ``j, m in [0, N/2]``, ``mult_m`` 1 at m = 0 and N/2 and 2
    otherwise, applied by one matmul.  C is real, so along every axis but the
    last it multiplies the real view of the data, real and imaginary parts
    alike, at half the cost of a complex product.  ``a`` is complex, of any
    precision, with trailing axes ``grid.even_shape``; the sums run in
    double precision through ``work``, a ``complex128`` array of shape
    ``(2,) + a.shape`` that is overwritten.  Returns the half of ``work``
    that holds the result.
    """
    def build():
        N = grid.points_per_axis
        m = np.arange(N // 2 + 1)
        mult = np.where((m == 0) | (m == N // 2), 1.0, 2.0)
        return mult * np.cos(2 * np.pi * (np.outer(m, m) % N) / N)

    C = grid._memo("cosine_matrix", build)
    K = len(C)
    src = a
    for i in range(grid.dim):
        dst = work[i % 2]
        if i < grid.dim - 1:  # C @ (rows, K, columns) sums over the middle axis
            shape = (-1, K, 2 * K ** (grid.dim - 1 - i))
            np.matmul(C, src.view(src.real.dtype).reshape(shape),
                      out=dst.view(np.float64).reshape(shape))
        else:
            np.matmul(src.reshape(-1, K), C.T, out=dst.reshape(-1, K))
        src = dst
    return src


def forward_transform(f: VectorField) -> SpectralVectorField:
    """Fourier transform a vector field; see the module docstring for normalization."""
    return SpectralVectorField(f.grid, forward_values(f.values, f.grid))


def inverse_transform(F: SpectralVectorField) -> VectorField:
    return VectorField(F.grid, inverse_values(F.coeffs, F.grid))

