"""Reference series kernels on CQ coefficients, one Fraction operation at
a time: the series arithmetic as it was before the integer core.  They
take and return (coeffs, order) pairs, coeffs a list of CQ of length
order + 1, and share no code with mouldcalc.series or mouldcalc.borel,
so the property tests in test_kernels.py can catch a kernel bug that
the library's own verification routes would reproduce."""

from fractions import Fraction
from math import factorial

from mouldcalc.scalars import CQ

ZERO = CQ(0)


def ps_mul(a, ka, b, kb):
    k = min(ka, kb)
    out = [ZERO] * (k + 1)
    for i in range(k + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(k + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out, k


def add(a, ka, b, kb):
    k = min(ka, kb)
    return [a[i] + b[i] for i in range(k + 1)], k


def sub(a, ka, b, kb):
    k = min(ka, kb)
    return [a[i] - b[i] for i in range(k + 1)], k


def scale(a, ka, s):
    s = s if isinstance(s, CQ) else CQ(s)
    return [c * s for c in a], ka


def euler_derivation(a, ka):
    out = [ZERO] * (ka + 2)
    for k in range(1, ka + 1):
        out[k + 1] = a[k] * k
    return out, ka + 1


def solve_euler_shifted(b, kb, mu):
    """Requires b[0] == 0, and b[1] == 0 and kb >= 1 when mu == 0."""
    mu = mu if isinstance(mu, CQ) else CQ(mu)
    if not mu:
        out = [ZERO] * kb
        for j in range(1, kb):
            out[j] = b[j + 1] / j
        return out, kb - 1
    out = [ZERO] * (kb + 1)
    for k in range(1, kb + 1):
        out[k] = (b[k] - out[k - 1] * (k - 1)) / mu
    return out, kb


def to_z_coeffs(a, ka):
    return [c if k % 2 == 0 else -c for k, c in enumerate(a)], ka


def borel(f, kf):
    """Requires f[0] == 0 and kf >= 1."""
    out = []
    for n in range(kf):
        out.append(f[n + 1] * Fraction(1, factorial(n)))
    return out, kf - 1


def conv(f, kf, g, kg):
    k = min(kf, kg) + 1
    out = [ZERO] * (k + 1)
    for i in range(min(kf, k - 1) + 1):
        a = f[i]
        if not a:
            continue
        fi = factorial(i)
        for j in range(min(kg, k - 1 - i) + 1):
            b = g[j]
            if not b:
                continue
            d = i + j + 1
            out[d] = out[d] + a * b * Fraction(fi * factorial(j),
                                               factorial(d))
    return out, k


def divide_by_zeta_minus(m, f, kf):
    """Requires f[0] == 0 and kf >= 1 when m == 0."""
    if m == 0:
        return f[1:], kf - 1
    inv_m = Fraction(1, m)
    g = ZERO
    out = []
    for c in f:
        g = (g - c) * inv_m
        out.append(g)
    return out, kf
