"""Exact moments of |z|^p over origin-centered cubes, the A2 test oracle."""

from scipy.integrate import nquad


def cube_moment_oracle(p: float, d: int, h: float) -> float:
    """integral of |z|^p over [-h, h]^d by the pyramid reduction.

    The 2d pyramids with apex at the origin over the faces give, exactly,
    ``2^d d h / (p + d) * integral_[0,h]^(d-1) (h^2 + |w|^2)^(p/2) dw``; the
    remaining integrand is smooth, so nquad resolves it to near round-off.
    """
    def face(*w):
        return (h * h + sum(x * x for x in w)) ** (p / 2.0)

    val, _ = nquad(face, [(0.0, h)] * (d - 1), opts={"epsabs": 0.0, "epsrel": 1e-12})
    return 2**d * d * h / (p + d) * val
