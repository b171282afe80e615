"""Reference series kernels on CQ coefficients, one Fraction operation at
a time: the series arithmetic as it was before the integer core.  They
take and return (coeffs, order) pairs, coeffs a list of CQ of length
order + 1, and share no code with mouldcalc.series or mouldcalc.borel,
so the property tests in test_kernels.py can catch a kernel bug that
the library's own verification routes would reproduce.

The bivariate routes at the end are the substitution checks as they
were before the y-polynomial composition: products and sums of dicts
(m, n) -> CQ in a box, read from the library's types only through
their CQ coefficients.  test_substitution.py tests against them."""

from fractions import Fraction
from math import factorial

from mouldcalc.scalars import CQ

ZERO = CQ(0)
ONE = CQ(1)


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


# -- bivariate substitution ------------------------------------------------
# A bivariate series is a dict (m, n) -> CQ, the coefficient of x^m y^n;
# box = (x_order, y_order), and products drop the terms outside it.

def biv_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, ZERO) + c
    return out


def biv_mul(a, b, box):
    xo, yo = box
    out = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            m, n = m1 + m2, n1 + n2
            if m <= xo and n <= yo:
                out[(m, n)] = out.get((m, n), ZERO) + c1 * c2
    return out


def phi_bivariate(phi, box):
    """y + sum phi_n y^n for a PhiSeries; a component below the box's
    x-order counts as zero above its own order."""
    xo, yo = box
    out = {(0, 1): ONE}
    for n, s in phi.components.items():
        if n > yo:
            continue
        sc = s.coeffs
        for m in range(1, min(s.order, xo) + 1):
            if sc[m]:
                out[(m, n)] = out.get((m, n), ZERO) + sc[m]
    return out


def substitute_phi(A, phi, box):
    """A(x, phi(x, y)) for a BivariateSeries A."""
    xo, _ = box
    phib = phi_bivariate(phi, box)
    powers = {0: {(0, 0): ONE}}
    for j in range(1, max((n for (_, n) in A.coeffs), default=0) + 1):
        powers[j] = biv_mul(powers[j - 1], phib, box)
    out = {}
    for (m, n), c in A.coeffs.items():
        if m <= xo:
            out = biv_add(out, {(m + mm, nn): c * cc
                                for (mm, nn), cc in powers[n].items()
                                if m + mm <= xo})
    return out


def pde_residual(A, phi, box):
    """x^2 d_x phi + y d_y phi - A(x, phi(x, y))."""
    xo, yo = box
    lhs = {(0, 1): ONE}
    for n, s in phi.components.items():
        if n > yo:
            continue
        sc = list(s.coeffs)
        dc, _ = euler_derivation(sc, s.order)
        for m in range(1, xo + 1):
            c = dc[m] if m < len(dc) else ZERO
            if m < len(sc):
                c = c + sc[m] * n
            lhs[(m, n)] = lhs.get((m, n), ZERO) + c
    return biv_add(lhs, {k: -c for k, c in
                         substitute_phi(A, phi, box).items()})


def compose_check(phi, psi, box):
    """phi(x, psi(x, y)) - y."""
    xo, _ = box
    psib = phi_bivariate(psi, box)
    out = dict(psib)
    power = {(0, 0): ONE}
    for n in range(max(phi.components, default=0) + 1):
        if n > 0:
            power = biv_mul(power, psib, box)
        s = phi.components.get(n)
        if s is None:
            continue
        sc = s.coeffs
        for (m, k), c in power.items():
            for mm in range(1, min(s.order, xo - m) + 1):
                if sc[mm]:
                    out[(m + mm, k)] = out.get((m + mm, k), ZERO) + c * sc[mm]
    return biv_add(out, {(0, 1): -ONE})
