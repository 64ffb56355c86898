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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "GridSpec",
    "VectorField",
    "block_matrices",
    "block_transform",
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
        # the transforms scale by dx^n, the Sobolev sums by dxi^n and the mean by (2L)^n
        with np.errstate(over="ignore", under="ignore"):
            powers = np.array([self.dx, self.dxi, 2.0 * self.half_width]) ** n
        if not np.all((powers > 0) & (powers < np.inf)):
            raise DomainError(f"half_width {self.half_width} puts dx^{n}, dxi^{n} or (2L)^{n} "
                              "out of the finite nonzero float range")
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

    def unfold(self, block: np.ndarray, odd: np.ndarray | None = None) -> np.ndarray:
        """The full lattice, in FFT storage order, of an array with a parity
        in each of its last ``dim`` axes, from its block: a new array, index m
        read at min(m, N - m) and negated for m > N/2 along an axis where
        ``odd`` (bool, one row per component, the leading axes flattened,
        one column per axis) is True; even in every axis when None."""
        N = self.points_per_axis

        def build():
            m = np.arange(N)
            return np.minimum(m, N - m)

        out = block[(Ellipsis,) + np.ix_(*([self._memo("fold_axis", build)] * self.dim))]
        if odd is not None:
            lead = out.shape[:out.ndim - self.dim]
            for j, i in zip(*np.nonzero(odd)):
                out[np.unravel_index(j, lead) + (slice(None),) * i
                    + (slice(N // 2 + 1, None),)] *= -1
        return out

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
class VectorField:
    """n-component complex field sampled on the physical grid, shape (n, N, ..., N)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        expected = (self.grid.dim,) + self.grid.shape
        if values.shape != expected:
            raise ShapeError(f"expected values of shape {expected}, got {values.shape}")
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=np.complex128))


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


def block_matrices(odd: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """The matrices ``block_transform`` applies along each axis to planes
    with the parities ``odd`` (bool, ``(planes, dim)``, True where a plane
    is odd in an axis): per axis, the cosine matrix C or the sine matrix S
    when every plane shares its parity there, else a ``(planes, 1, K, K)``
    stack of them, transposed for the last axis, which they multiply from
    the right.  C and S are built once per grid."""
    N = grid.points_per_axis

    def matrix(is_odd: bool) -> np.ndarray:
        def build():
            m = np.arange(N // 2 + 1)
            k = np.outer(m, m) % N
            if is_odd:  # exactly 0 where j m is a multiple of N/2: rows and columns 0, N/2
                return np.where(k % (N // 2) == 0, 0.0, 2.0 * np.sin(2 * np.pi * k / N))
            mult = np.where((m == 0) | (m == N // 2), 1.0, 2.0)
            return mult * np.cos(2 * np.pi * k / N)

        return grid._memo(f"block_matrix {is_odd}", build)

    matrices = []
    for column in np.asarray(odd, bool).T.tolist():
        if len(set(column)) == 1:
            matrices.append(matrix(column[0]))
        else:
            matrices.append(np.stack([matrix(c) for c in column])[:, None])
    # the last axis multiplies from the right, by a contiguous transpose
    matrices[-1] = np.ascontiguousarray(matrices[-1].swapaxes(-1, -2))
    return matrices


def block_transform(planes: np.ndarray, matrices: list[np.ndarray], work: np.ndarray,
                    grid: GridSpec) -> np.ndarray:
    """The unscaled DFT ``sum_m a(m) e^{2 pi i j.m/N}`` of real arrays with a
    parity in every spatial axis, from the block to the block, up to a sign
    and a factor i per odd axis.

    ``planes`` (``float64``, shape ``(p,) + grid.even_shape``) holds p real
    arrays a on the block ``[:N/2 + 1]^n`` of FFT storage order, each even
    or odd in every axis, ``a(R_i m) = +-a(m)`` for the reflection
    ``R_i: m_i -> -m_i mod N``, which fixes ``m_i = 0`` and ``N/2``.
    ``matrices`` are ``block_matrices`` of those parities.  Along an even
    axis the sum over m's orbit is ``mult_m cos(2 pi j m/N)``, ``mult_m`` 1
    at m = 0 and N/2 and 2 otherwise: the cosine transform (DCT-I)
    ``C[j, m]``.  Along an odd axis it is ``2i sin(2 pi j m/N)``:
    ``S[j, m] = 2 sin(2 pi j m/N)``, which is exactly 0 at ``m, j in {0, N/2}``,
    so an odd axis's values on its Nyquist plane m_i = N/2 drop out, and the
    result, odd in that axis, is 0 there too.  So each plane takes one real
    matmul per axis, by C or S, summed in double, and comes out as the DFT
    divided by ``i^(number of odd axes)``: a unimodular constant, which no
    squared modulus sees.  The orbit sum of ``e^{-2 pi i j.m/N}`` is the same
    matrix (for odd axes, up to sign), so this is also the forward DFT of
    such data.  Complex data enter as two planes, their real and imaginary
    parts.  ``work``, a ``float64`` array of shape ``(2,) + planes.shape``, is
    overwritten; returns the half of it that holds the result.
    """
    K = grid.points_per_axis // 2 + 1
    p, dim = len(planes), grid.dim
    src = planes
    for i, M in enumerate(matrices):
        dst = work[i % 2]
        if i < dim - 1:  # M @ (planes, rows, K, columns) sums over the K axis
            shape = (p, K**i, K, K ** (dim - 1 - i))
            np.matmul(M, src.reshape(shape), out=dst.reshape(shape))
        else:
            shape = (p, 1, -1, K)
            np.matmul(src.reshape(shape), M, out=dst.reshape(shape))
        src = dst
    return src
