"""Dense tensor-midpoint quadrature of the oscillatory kernel, the test oracle of
``kernel_value``."""

import numpy as np

from morawetz_lab.cutoff import DyadicCutoff, default_cutoff
from morawetz_lab.errors import DomainError
from morawetz_lab.kernel import KernelQuery


def kernel_value_bruteforce(
    q: KernelQuery,
    points_per_axis: int | None = None,
    cutoff: DyadicCutoff | None = None,
) -> complex:
    """Dense tensor-midpoint quadrature over the annulus bounding box.

    Test oracle for ``kernel_value``; guarded to k <= 2 because the cost grows
    like (oscillation * 2^k)^n.  The integrand is smooth and compactly
    supported, so the midpoint rule converges superalgebraically; the default
    resolution targets ~1e-6 accuracy at moderate arguments.
    """
    cutoff = cutoff or default_cutoff()
    if q.k > 2:
        raise DomainError("brute-force kernel evaluation is cost-guarded to k <= 2")
    half = 2.0 ** (q.k + 1)
    oscillation = abs(q.tau) + q.z_abs
    if points_per_axis is None:
        points_per_axis = int(max(128, min(1024, 16 * half * max(oscillation, 1.0))))
    m = points_per_axis
    h = 2 * half / m
    ax = -half + h * (np.arange(m) + 0.5)
    z = np.zeros(q.n)
    z[: len(q.z)] = q.z
    grids = np.meshgrid(*([ax] * q.n), indexing="ij")
    rad = np.sqrt(sum(g**2 for g in grids))
    phase = sum(z[i] * grids[i] for i in range(q.n)) + q.tau * rad
    amp = cutoff(2.0**-q.k * rad) ** 2
    return complex(np.sum(np.exp(1j * phase) * amp) * h**q.n)
