"""Exact moments of |z|^p over boxes, the quadrature test oracles."""

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


def box_moment_oracle(p: float, lo, hi) -> float:
    """integral of |z|^p over the box prod [lo_i, hi_i], for p > -d.

    By the divergence theorem, div(z |z|^p) = (p + d) |z|^p gives
    ``(p + d) integral_B |z|^p = sum_faces (z . n) integral_F |y|^p dS``, with
    z . n = hi_i on the face x_i = hi_i and -lo_i on x_i = lo_i.  Each face
    integral goes to nquad, which resolves it to near round-off as long as
    the face keeps a distance from the origin (a face through the origin
    carries no flux and is skipped); callers keep every face at least 0.05
    box widths away.
    """
    d = len(lo)
    total = 0.0
    for i in range(d):
        others = [(lo[j], hi[j]) for j in range(d) if j != i]
        for c, sign in ((hi[i], 1.0), (lo[i], -1.0)):
            if c == 0.0:
                continue

            def face(*w, c=c):
                return (c * c + sum(x * x for x in w)) ** (p / 2.0)

            val, _ = nquad(face, others, opts={"epsabs": 0.0, "epsrel": 1e-12})
            total += sign * c * val
    return total / (p + d)
