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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "EVEN",
    "ODD",
    "FREE",
    "GridSpec",
    "VectorField",
    "block_matrices",
    "block_transform",
]

# the parities of an array in one axis (see ``GridSpec.block``): even, odd,
# or free, neither
EVEN, ODD, FREE = 0, 1, 2

# the most lattice points and time nodes of a grid: 16 times the largest
# lattice (512^2 and 64^3) and far above the most nodes (97) in use, but
# below an allocation that would not fit in memory
MAX_LATTICE_POINTS = 2**22
MAX_TIME_SAMPLES = 2**14


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box and the sampling time window.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    points_per_axis : int
        N, a power of two, at least 8, with ``N^dim <= MAX_LATTICE_POINTS``.
    half_width : float
        L; physical box is ``[-L, L)^dim``.
    time_samples : int
        M, number of uniform samples on ``[-T, T]`` (trapezoid rule nodes),
        2 to ``MAX_TIME_SAMPLES``.
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
        if N**n > MAX_LATTICE_POINTS:
            raise DomainError(f"{N}^{n} lattice points exceed the cap {MAX_LATTICE_POINTS}")
        if not self.half_width > 0:
            raise DomainError("half_width must be positive")
        if not self.time_horizon > 0:
            raise DomainError("time_horizon must be positive")
        if not 2 <= self.time_samples <= MAX_TIME_SAMPLES:
            raise DomainError(f"time_samples must be in [2, {MAX_TIME_SAMPLES}], "
                              f"got {self.time_samples}")
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

    def _memo(self, key: str | tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
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

    def _x_sq(self, free=True) -> np.ndarray:
        return sum(np.ix_(*((self.dx * m) ** 2 for m in self._block_axes(free))))

    def x_sq_fft(self) -> np.ndarray:
        """|x|^2 in FFT storage order: index m sits at x = dx * m (m taken mod N
        into [-N/2, N/2)), so the origin is index 0."""
        return self._memo("x_sq_fft", self._x_sq)

    def x_sq_levels(self, free=True) -> tuple[np.ndarray, np.ndarray]:
        """``_levels`` of ``x_sq_fft()`` on ``block(free)``."""
        return self._levels("x_sq", self._x_sq, free)

    def xi_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """``_levels`` of ``xi_norm()`` on the lattice."""
        return self._levels("xi_norm", self.xi_norm, True)

    def _levels(self, name: str, values: Callable, free) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of a radial array, ascending, and the index
        (``intp``) of each point's value among them on the block
        ``values(free)``, so a function of it can be evaluated once per
        value.  It is even in every axis, so the even block holds every
        value; neither keeps the array alive."""
        def build():  # np.unique would import numpy.ma, about 1 MB
            ordered = np.sort(values(False), axis=None)
            return ordered[np.diff(ordered, prepend=-1.0) > 0]

        levels, free = self._memo(f"{name} levels", build), self._free(free)
        return levels, self._memo((name, free), lambda: np.searchsorted(levels, values(free)))

    # -- blocks ---------------------------------------------------------------
    # An array even or odd in axis i, X(R_i m) = +-X(m) for the reflection
    # R_i: m_i -> -m_i mod N, is fixed by its values on one representative of
    # every orbit of R_i, m_i in [0, N/2]; an axis with neither parity is
    # free and keeps all N.  The block of an array is [:N/2 + 1] of FFT
    # storage order on its signed axes and all of it on its free ones, so
    # the block with every axis free is the lattice.  A block point's orbit
    # has prod_i (1 if m_i in {0, N/2} or axis i is free else 2) points.
    # ``free`` is one bool per axis, or one for every axis.

    def _free(self, free) -> tuple[bool, ...]:
        return (bool(free),) * self.dim if isinstance(free, (bool, np.bool_)) else tuple(
            map(bool, free))

    def _block_axes(self, free) -> list[np.ndarray]:
        """The modes of each axis of the block: 0..N/2, or ``mode_axis`` on a free axis."""
        return [self.mode_axis if f else np.arange(self.points_per_axis // 2 + 1)
                for f in self._free(free)]

    def block(self, free) -> tuple[slice, ...]:
        """Index of the block with the free axes ``free`` in FFT storage order."""
        h = self.points_per_axis // 2 + 1
        return tuple(slice(None) if f else slice(0, h) for f in self._free(free))

    def block_shape(self, free) -> tuple[int, ...]:
        return tuple(len(m) for m in self._block_axes(free))

    @property
    def even_block(self) -> tuple[slice, ...]:
        """Index of the block ``[:N/2 + 1]^n``, no axis free."""
        return self.block(False)

    @property
    def even_shape(self) -> tuple[int, ...]:
        return self.block_shape(False)

    def orbit_sizes(self, free=False) -> np.ndarray:
        """The lattice points in the orbit of each point of ``block(free)``:
        a lattice sum of an array even in every signed axis is its block sum
        times these."""
        free, h = self._free(free), self.points_per_axis // 2

        def build():
            sizes = np.ones(())
            for f in free:
                sizes = np.multiply.outer(sizes, np.ones(2 * h) if f
                                          else np.r_[1.0, np.full(h - 1, 2.0), 1.0])
            return sizes

        return self._memo(f"orbit_sizes {free}", build)

    def unfold(self, block: np.ndarray, signature: np.ndarray | None = None) -> np.ndarray:
        """The full lattice, in FFT storage order, of an array with the
        parities ``signature`` (``EVEN``, ``ODD`` or ``FREE``, one row per
        component, the leading axes flattened, one column per axis; even in
        every axis when None) in its last ``dim`` axes, from its block: a new
        array, index m read at min(m, N - m) on a signed axis and negated for
        m > N/2 on an odd one."""
        N = self.points_per_axis
        signature = np.zeros((1, self.dim), int) if signature is None else np.asarray(signature)
        m = np.arange(N)
        fold = [m if f else np.minimum(m, N - m) for f in (signature == FREE).any(axis=0)]
        out = block[(Ellipsis,) + np.ix_(*fold)]
        lead = out.shape[:out.ndim - self.dim]
        for j, i in zip(*np.nonzero(signature == ODD)):
            out[np.unravel_index(j, lead) + (slice(None),) * i + (slice(N // 2 + 1, None),)] *= -1
        return out

    def xi_norm(self, free=True) -> np.ndarray:
        """|xi| in FFT storage order, on the block with the free axes ``free``
        (by default the full lattice)."""
        free = self._free(free)
        if all(free):
            return self._memo("xi_norm", lambda: np.sqrt(sum(x**2 for x in self.xi_open())))
        return self._memo(f"xi_norm {free}",
                          lambda: np.ascontiguousarray(self.xi_norm()[self.block(free)]))

    def xi_open(self) -> list[np.ndarray]:
        """The xi grids as an open mesh, one broadcasting axis per dimension."""
        return self._open(self.xi_axis)

    def phase_step(self, c: float, free=True) -> np.ndarray:
        """``e^{i dt c |xi|}``, the phase a wave of speed c gains from one time
        node to the next, on ``xi_norm(free)``; built once per grid, speed and
        block and shared by every sampler on them."""
        free = self._free(free)

        def build():
            nodes = self.time_nodes()
            dt = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
            return np.exp(1j * dt * c * self.xi_norm(free))

        return self._memo(f"phase_step {c!r} {free}", build)

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


def block_matrices(signature: np.ndarray, grid: GridSpec) -> list:
    """The matrices ``block_transform`` applies along each axis to planes
    with the parities ``signature`` (``(planes, dim)``): per axis, None where
    it is ``FREE``, else the cosine matrix C or the sine matrix S when every
    plane shares its parity there, else a ``(planes, 1, K, K)`` stack of
    them; the last axis's transposed, which it multiplies from the right.
    C and S are built once per grid."""
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
    for column in np.asarray(signature).T.tolist():
        if FREE in column:
            matrices.append(None)
        elif len(set(column)) == 1:
            matrices.append(matrix(column[0] == ODD))
        else:
            matrices.append(np.stack([matrix(c == ODD) for c in column])[:, None])
    if matrices[-1] is not None:  # multiplies from the right, by a contiguous transpose
        matrices[-1] = np.ascontiguousarray(matrices[-1].swapaxes(-1, -2))
    return matrices


def block_transform(planes: np.ndarray, matrices: list, work: np.ndarray,
                    grid: GridSpec) -> np.ndarray:
    """The unscaled DFT ``sum_m a(m) e^{2 pi i j.m/N}`` of arrays with a
    parity or none in every spatial axis, from their block to their block,
    up to a sign and a factor i per odd axis.

    ``planes`` (``float64``, shape ``(..., p) + block shape``) holds p real
    arrays a on the block (``GridSpec.block``) of FFT storage order, per
    index of its leading axes; each is even or odd in every signed axis,
    ``a(R_i m) = +-a(m)`` for the reflection ``R_i: m_i -> -m_i mod N``,
    which fixes ``m_i = 0`` and ``N/2``.  ``matrices`` are ``block_matrices``
    of those parities.  Along an even axis the sum over m's orbit is
    ``mult_m cos(2 pi j m/N)``, ``mult_m`` 1 at m = 0 and N/2 and 2
    otherwise: the cosine transform (DCT-I) ``C[j, m]``.  Along an odd axis
    it is ``2i sin(2 pi j m/N)``: ``S[j, m] = 2 sin(2 pi j m/N)``, exactly 0
    at ``m, j in {0, N/2}``, so an odd axis's values on its Nyquist plane
    drop out, and the result, odd in that axis, is 0 there too.  So each
    plane takes one real matmul per signed axis, summed in double, and comes
    out as the DFT along those axes divided by ``i^(number of odd axes)``, a
    unimodular constant that no squared modulus sees; the orbit sum of
    ``e^{-2 pi i j.m/N}`` is the same matrix (up to sign), so this is also
    the forward DFT.  Complex data enter as two planes, their real and
    imaginary parts.  On a free axis (None) the first half of the planes are
    the real parts and the second half the imaginary parts of ``p/2``
    complex arrays, which after the matmuls (they commute with the FFT) are
    combined and take one unscaled ``complex128`` inverse FFT per free axis.
    ``planes`` and ``work``, contiguous ``float64`` of one shape, are
    overwritten; returns the one that holds the result: ``float64`` planes,
    or with a free axis ``p/2`` ``complex128`` arrays.
    """
    dim = grid.dim
    lead, p, shape = planes.shape[:-dim - 1], planes.shape[-dim - 1], planes.shape[-dim:]
    src, done = planes, 0
    for i, M in enumerate(matrices):
        if M is None:
            continue
        done += 1
        dst = (planes, work)[done % 2]
        rows, K = math.prod(shape[:i]), shape[i]
        if i < dim - 1:  # M @ (planes, rows, K, columns) sums over the K axis
            view = lead + (p, rows, K, -1)
            np.matmul(M, src.reshape(view), out=dst.reshape(view))
        else:
            view = lead + (p, 1, rows, K)
            np.matmul(src.reshape(view), M, out=dst.reshape(view))
        src = dst
    if done == dim:
        return src
    z = (work, planes)[done % 2].reshape(-1).view(np.complex128).reshape(lead + (p // 2,) + shape)
    tail = (slice(None),) * dim
    np.copyto(z.real, src[(Ellipsis, slice(None, p // 2)) + tail])
    np.copyto(z.imag, src[(Ellipsis, slice(p // 2, None)) + tail])
    for i, M in enumerate(matrices):
        if M is None:
            np.fft.ifft(z, axis=i - dim, norm="forward", out=z)
    return z
