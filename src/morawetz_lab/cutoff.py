"""Dyadic cutoff for Littlewood-Paley projections.

The bump ``eta(t) = exp(-1/((t-1/2)(2-t)))`` on (1/2, 2) is normalized by its
own dyadic sum, ``phi(t) = eta(t) / sum_j eta(2^j t)``.  The denominator is
invariant under t -> 2t, so ``sum_k phi(2^k t) = 1`` holds identically for
every t > 0.  With t = s 2^e and s in [1/2, 1) (``np.frexp``, exact down to
subnormal t), the only terms of the sum that can be nonzero are eta(s) and
eta(2s), and ``DyadicCutoff`` evaluates just those two.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DyadicCutoff", "default_cutoff"]


def _eta(t: np.ndarray) -> np.ndarray:
    """The bump, 0 outside (1/2, 2), where its clamped denominator is 0 and
    exp(-inf) = 0; near the band edges it underflows to 0 as well."""
    with np.errstate(divide="ignore", under="ignore"):
        return np.exp(-1.0 / np.maximum((t - 0.5) * (2.0 - t), 0.0))


class DyadicCutoff:
    """The smooth phi above: supported in the fixed band (1/2, 2), values in [0, 1]."""

    def __call__(self, t) -> np.ndarray:
        """phi(t) = eta(t) / (eta(s) + eta(2s)), where t = s 2^e: the
        numerator is eta(s) if e = 0 (t = s), eta(2s) if e = 1 (t = 2s), and
        0 for every other e, where t lies outside the band."""
        s, e = np.frexp(np.asarray(t, dtype=float))
        low, high = _eta(s), _eta(2.0 * s)
        num = np.where(e == 0, low, np.where(e == 1, high, 0.0))
        den = low + high
        # both bumps vanish only where phi does: t <= 0, t = inf or nan
        with np.errstate(under="ignore"):
            out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return out[()] if out.ndim == 0 else out

    def partition_deviation(self, t) -> np.ndarray:
        """|sum_k phi(2^k t) - 1| evaluated with the (at most two) active
        terms, phi(s) and phi(2s) with t = s 2^e."""
        s, _ = np.frexp(np.atleast_1d(np.asarray(t, dtype=float)))
        return np.abs(self(s) + self(2.0 * s) - 1.0)


def default_cutoff() -> DyadicCutoff:
    return DyadicCutoff()
