"""Formal Borel transform: series in w = 1/z to truncated series in
zeta, the convolution product, division by (zeta - m), and the Borel
transforms of the solver values and normalising components.  Both
sides are TruncatedSeries, in the w and zeta charts.
V^^ is one memoised Mould at one zeta-order, built by the solver's own
word recursion, and phi^_n is its component sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ConstantTermError
from .moulds import Mould
from .normalisation import component_sum
from .saddlenode import SaddleNodeField
from .scalars import ZERO
from .series import TruncatedSeries, to_z_coeffs
from .words import check_word, weight


def borel(f: TruncatedSeries) -> TruncatedSeries:
    """sum c_{n+1} w^{n+1} (w = 1/z) maps to sum c_{n+1} zeta^n / n!.
    The w-series must have zero constant term."""
    if f.coeffs[0]:
        raise ConstantTermError(
            "w-series with nonzero constant term has no Borel transform")
    if f.order == 0:
        raise ValueError("w-series of order 0 carries no coefficients")
    out = []
    for n in range(f.order):
        out.append(f.coeffs[n + 1] * Fraction(1, factorial(n)))
    return TruncatedSeries(out, f.order - 1)


def conv(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Convolution int_0^zeta f(t) g(zeta - t) dt, truncated.

    On basis elements: conv(zeta^i/i!, zeta^j/j!) = zeta^{i+j+1}/(i+j+1)!.
    Exact to min(order f, order g) + 1.
    """
    k = min(f.order, g.order) + 1
    out = [ZERO] * (k + 1)
    for i in range(min(f.order, k - 1) + 1):
        a = f.coeffs[i]
        if not a:
            continue
        fi = factorial(i)
        for j in range(min(g.order, k - 1 - i) + 1):
            b = g.coeffs[j]
            if not b:
                continue
            d = i + j + 1
            out[d] = out[d] + a * b * Fraction(fi * factorial(j),
                                               factorial(d))
    return TruncatedSeries(out, k)


def divide_by_zeta_minus(m: int, f: TruncatedSeries) -> TruncatedSeries:
    """Multiply f by 1/(zeta - m).

    For m != 0 this is the recurrence g_d = (g_{d-1} - f_d)/m, g_{-1} = 0,
    at the order of f; for m = 0 the coefficients shift down one
    degree, which requires a vanishing constant term.
    """
    if m == 0:
        if f.coeffs[0]:
            raise ConstantTermError(
                "1/zeta of a series with nonzero constant term is not a "
                "Taylor series at 0")
        if f.order == 0:
            raise ValueError("order 0 leaves nothing after the shift")
        return TruncatedSeries(f.coeffs[1:], f.order - 1)
    inv_m = Fraction(1, m)
    g = ZERO
    out = []
    for c in f.coeffs:
        g = (g - c) * inv_m
        out.append(g)
    return TruncatedSeries(out, f.order)


def borel_letter(field: SaddleNodeField, n: int,
                 order: int) -> TruncatedSeries:
    """Borel transform of a~_n(z) = a_n(-1/z); entire (polynomial
    letters), so exact at any requested order."""
    a = field.letter_series(n, order + 2)
    return borel(to_z_coeffs(a)).truncate(order)


def borel_mould(field: SaddleNodeField, zeta_order: int) -> Mould:
    """V^^w, the Borel transforms of the solver values, as one memoised
    mould at zeta_order (undefined on the empty word):
    V^^w = -(1/(zeta - weight(w))) (a^_{n_1} * V^^{w[1:]}), with a^_{n_1}
    alone on one-letter words.  Each letter is built once, at
    zeta_order + 1, which closes the recursion: conv is exact to
    min(orders) + 1, and 1/(zeta - m) loses one order only for m = 0.
    """
    letters = {}

    def fn(w):
        if w[0] not in letters:
            letters[w[0]] = borel_letter(field, w[0], zeta_order + 1)
        rhs = letters[w[0]]
        if len(w) > 1:
            rhs = conv(rhs, mould.value(w[1:]))
        return -divide_by_zeta_minus(weight(w), rhs).truncate(zeta_order)

    mould = Mould(zeta_order, fn, tag="borel")
    return mould


def borel_V(field: SaddleNodeField, w, zeta_order: int) -> TruncatedSeries:
    """Borel transform of the solver value on w (see borel_mould)."""
    w = check_word(w)
    if not w:
        raise ValueError("borel_V is defined on non-empty words")
    return borel_mould(field, zeta_order).value(w)


def borel_phi_n(field: SaddleNodeField, n: int,
                zeta_order: int) -> TruncatedSeries:
    """phi^_n = sum beta(w) V^^w over words of weight n - 1.

    The contributing-word bound is taken at x-order zeta_order + 1 (the
    Borel transform consumes one z-power).
    """
    return component_sum(field, n, zeta_order + 1,
                         borel_mould(field, zeta_order), reverse=False)[0]


def eval_partial_sum(f: TruncatedSeries, zeta: Fraction):
    """Evaluate the truncated polynomial at a rational point.

    Returns (value, tail_bound): the partial sum and a rational
    estimate of the omitted tail, geometric in the observed ratios of
    the coefficients.  It is not a proven bound and reads 0 whenever the
    top coefficient vanishes.  It is None when |zeta| >= 1 or the
    observed ratio rules out geometric decay of the terms.
    """
    zeta = Fraction(zeta)
    value = ZERO
    p = Fraction(1)
    for c in f.coeffs:
        value = value + c * p
        p = p * zeta
    q = abs(zeta)
    if q >= 1:
        return value, None
    # observed growth ratio of coefficient magnitudes
    mags = [c.abs_bound() for c in f.coeffs]
    ratio = Fraction(0)
    for a, b in zip(mags, mags[1:]):
        if a:
            ratio = max(ratio, Fraction(b, 1) / a)
        elif b:
            return value, None
    rho = ratio * q
    if rho >= 1:
        return value, None
    head = mags[-1] * q ** f.order if mags else Fraction(0)
    tail = head * rho / (1 - rho)
    return value, tail
