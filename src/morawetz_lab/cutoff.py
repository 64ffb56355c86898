"""Dyadic cutoff for Littlewood-Paley projections.

The bump ``eta(t) = exp(-1/((t-1/2)(2-t)))`` on (1/2, 2) is normalized by its
own dyadic sum, ``phi(t) = eta(t) / sum_j eta(2^j t)``.  The denominator is
invariant under t -> 2t, so ``sum_k phi(2^k t) = 1`` holds identically for
every t > 0; at most two terms of the sum are nonzero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DyadicCutoff", "default_cutoff"]


def _eta(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ((ti - 0.5) * (2.0 - ti)))
    return out


def _octave(t: np.ndarray) -> np.ndarray:
    """``floor(-log2 t)``, so that ``2^j t`` lies in [1, 2), as ``int32``
    (numpy's fast ``ldexp`` loop; the values lie in [-1024, 1074]); 0 where
    it is not finite (t = 0 or inf)."""
    with np.errstate(divide="ignore"):
        j = np.floor(-np.log2(t))
    return np.where(np.isfinite(j), j, 0.0).astype(np.int32)


class DyadicCutoff:
    """The smooth phi above: supported in the fixed band (1/2, 2), values in [0, 1]."""

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        if tp.size:
            # only j with 2^j t in (1/2,2) contribute; they lie in a 3-window,
            # which holds j = 0 wherever eta(t) != 0, and 2^0 t == t exactly;
            # scaling by a power of two is exact, and ldexp does it without
            # forming 2^j, which overflows for subnormal t
            j0 = _octave(tp)
            num, den = np.zeros_like(tp), np.zeros_like(tp)
            for dj in (-1, 0, 1):
                term = _eta(np.ldexp(tp, j0 + dj))
                den += term
                num = np.where(j0 == -dj, term, num)
            # every window term vanishes only where phi does: t = inf
            out[pos] = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return out[0] if scalar else out

    def partition_deviation(self, t) -> np.ndarray:
        """|sum_k phi(2^k t) - 1| evaluated with the (at most two) active terms."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = np.zeros_like(t)
        j0 = _octave(t)
        for dj in (-1, 0, 1):
            total += self(np.ldexp(t, j0 + dj))
        return np.abs(total - 1.0)


def default_cutoff() -> DyadicCutoff:
    return DyadicCutoff()
