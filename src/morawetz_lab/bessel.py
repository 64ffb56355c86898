"""Bessel J0 by power series and large-argument asymptotics.

Accuracy target 1e-10 absolute over the real line: the power series is used
for |x| < 12 (peak term ~4e3, so cancellation costs ~1e-12), the Hankel
asymptotic expansion with seven terms beyond (first omitted term ~1e-10 at
the crossover, falling rapidly).  Validated in the test suite against the
integral definition (1/pi) int_0^pi cos(x sin th) dth.
"""

from __future__ import annotations

from math import factorial

import numpy as np

__all__ = ["j0", "sphere_sinc"]

_SERIES_CUTOFF = 12.0
_HANKEL_TERMS = 7


def _hankel_tables(terms: int) -> tuple[np.ndarray, np.ndarray]:
    # J0(x) ~ sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)] with
    #   P = sum_k P_k (8x)^{-2k},  Q = sum_k Q_k (8x)^{-(2k+1)},
    #   P_k = (-1)^k  prod(first 2k   odd squares) / (2k)!,
    #   Q_k = (-1)^{k+1} prod(first 2k+1 odd squares) / (2k+1)!.
    odd_sq = [(2 * j + 1) ** 2 for j in range(2 * terms + 1)]
    P, Q = [], []
    for k in range(terms):
        prod_p = 1.0
        for j in range(2 * k):
            prod_p *= odd_sq[j]
        P.append((-1.0) ** k * prod_p / factorial(2 * k))
        prod_q = prod_p * odd_sq[2 * k]
        Q.append((-1.0) ** (k + 1) * prod_q / factorial(2 * k + 1))
    return np.array(P), np.array(Q)


_P0, _Q0 = _hankel_tables(_HANKEL_TERMS)


def _j0_series(x: np.ndarray) -> np.ndarray:
    # sum_m (-1)^m (x^2/4)^m / (m!)^2; each element adds terms until one of
    # its own falls below 1e-18, so its value does not depend on the other
    # elements (past that term they only fall: z / m^2 < 1 there)
    nz = -0.25 * x * x
    term = np.ones_like(x)
    out = np.ones_like(x)
    live = np.ones(x.shape, bool)
    for m in range(1, 60):
        term = term * nz / (m * m)
        np.add(out, term, out=out, where=live)
        live = np.abs(term) >= 1e-18
        if not live.any():
            break
    return out


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    inv = 1.0 / (8.0 * x)
    inv2 = inv * inv
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for k in range(_HANKEL_TERMS - 1, -1, -1):
        p = p * inv2 + _P0[k]
        q = q * inv2 + _Q0[k]
    q = q * inv
    chi = x - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def j0(x) -> np.ndarray:
    """Bessel function of the first kind, order zero; vectorized, even in x,
    and elementwise: each value is that of its argument alone, bit for bit."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.abs(x)).astype(float)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    if np.any(small):
        out[small] = _j0_series(x[small])
    if np.any(~small):
        out[~small] = _j0_asymptotic(x[~small])
    return out[0] if scalar else out


def sphere_sinc(w) -> np.ndarray:
    """sin(w)/w, the 3-d spherical average of a plane wave; series below 1e-4."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 1.0, w)
    direct = np.sin(ws) / ws
    series = 1.0 - w * w / 6.0 + w**4 / 120.0
    return np.where(small, series, direct)
