"""Formal Borel transform: z-series to polynomials in zeta, the
convolution product, division by (zeta - m), and the recursive Borel
transforms of the solver values and normalising components.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ConstantTermError
from .saddlenode import SaddleNodeField
from .scalars import CQ, ONE, ZERO
from .series import ZSeries, to_z_coeffs
from .words import beta, check_word, contributing_words, word_key


class BorelPoly:
    """Truncated Taylor expansion at zeta = 0 of a formal Borel
    transform: coefficients of zeta^0..zeta^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [c if isinstance(c, CQ) else CQ(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [ZERO] * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))

    def __setattr__(self, name, value):
        raise AttributeError("BorelPoly is immutable")

    @classmethod
    def zero(cls, order: int) -> "BorelPoly":
        return cls([], order)

    def coefficient(self, n: int) -> CQ:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient zeta^{n} beyond order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def truncate(self, order: int) -> "BorelPoly":
        if order > self.order:
            raise ValueError(
                f"cannot extend from order {self.order} to {order}")
        return BorelPoly(self.coeffs[: order + 1], order)

    def __add__(self, other):
        if not isinstance(other, BorelPoly):
            return NotImplemented
        k = min(self.order, other.order)
        return BorelPoly([self.coeffs[i] + other.coeffs[i]
                          for i in range(k + 1)], k)

    def __sub__(self, other):
        if not isinstance(other, BorelPoly):
            return NotImplemented
        k = min(self.order, other.order)
        return BorelPoly([self.coeffs[i] - other.coeffs[i]
                          for i in range(k + 1)], k)

    def __neg__(self):
        return BorelPoly([-c for c in self.coeffs], self.order)

    def scale(self, scalar) -> "BorelPoly":
        s = scalar if isinstance(scalar, CQ) else CQ(scalar)
        return BorelPoly([c * s for c in self.coeffs], self.order)

    def __eq__(self, other):
        if not isinstance(other, BorelPoly):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*zeta^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(zeta^{self.order + 1})>"

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [c.to_quad() for c in self.coeffs]}


def borel(f: ZSeries) -> BorelPoly:
    """sum c_n z^{-n-1} maps to sum c_n zeta^n / n!."""
    if f.order == 0:
        raise ValueError("z-series of order 0 carries no coefficients")
    out = []
    for n in range(f.order):
        out.append(f.coeffs[n] * Fraction(1, factorial(n)))
    return BorelPoly(out, f.order - 1)


def conv(f: BorelPoly, g: BorelPoly) -> BorelPoly:
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
    return BorelPoly(out, k)


def divide_by_zeta_minus(m: int, f: BorelPoly) -> BorelPoly:
    """Multiply f by 1/(zeta - m).

    For m != 0 this is the exact geometric expansion
    -(1/m) sum (zeta/m)^k; for m = 0 the coefficients shift down one
    degree, which requires a vanishing constant term.
    """
    if m == 0:
        if f.coeffs[0]:
            raise ConstantTermError(
                "1/zeta of a series with nonzero constant term is not a "
                "Taylor series at 0")
        if f.order == 0:
            raise ValueError("order 0 leaves nothing after the shift")
        return BorelPoly(list(f.coeffs[1:]), f.order - 1)
    inv_m = Fraction(-1, m)
    out = [ZERO] * (f.order + 1)
    # out[d] = -(1/m) sum_{i <= d} f_i / m^{d-i}
    for d in range(f.order + 1):
        acc = ZERO
        p = Fraction(1)
        for i in range(d, -1, -1):
            if f.coeffs[i]:
                acc = acc + f.coeffs[i] * p
            p = p / m
        out[d] = acc * inv_m
    return BorelPoly(out, f.order)


def borel_letter(field: SaddleNodeField, n: int, order: int) -> BorelPoly:
    """Borel transform of a~_n(z) = a_n(-1/z); entire (polynomial
    letters), so exact at any requested order."""
    a = field.letter_series(n, order + 2)
    return borel(to_z_coeffs(a)).truncate(order)


def borel_V(field: SaddleNodeField, w, zeta_order: int) -> BorelPoly:
    """Borel transform of the solver value on w, via the nested
    recursion (-1)^r (1/(zeta - nhat_1)) (a^_{n_1} * (1/(zeta - nhat_2))
    (a^_{n_2} * ...)), with nhat_i = n_i + ... + n_r.
    """
    w = check_word(w)
    if not w:
        raise ValueError("borel_V is defined on non-empty words")
    r = len(w)
    work = zeta_order + r + 1
    suffix = list(w)
    # nhat_i for i = 1..r
    nhat = []
    s = 0
    for n in reversed(w):
        s += n
        nhat.append(s)
    nhat.reverse()
    cur = divide_by_zeta_minus(nhat[-1], borel_letter(field, w[-1], work))
    for i in range(r - 2, -1, -1):
        cur = conv(borel_letter(field, w[i], work), cur)
        cur = divide_by_zeta_minus(nhat[i], cur)
    if r % 2 == 1:
        cur = -cur
    if cur.order < zeta_order:
        raise AssertionError("order bookkeeping fell short in borel_V")
    return cur.truncate(zeta_order)


def borel_phi_n(field: SaddleNodeField, n: int,
                zeta_order: int) -> BorelPoly:
    """phi^_n = sum beta(w) V^^w over words of weight n - 1.

    The contributing-word bound is taken at x-order zeta_order + 1 (the
    Borel transform consumes one z-power).
    """
    if n < 0:
        raise ValueError("component index must be >= 0")
    x_order = zeta_order + 1
    acc = BorelPoly.zero(zeta_order)
    for w in sorted(contributing_words(n - 1, x_order, field.support),
                    key=word_key):
        b = beta(w)
        if b == 0:
            continue
        acc = acc + borel_V(field, w, zeta_order).scale(b)
    return acc


def eval_partial_sum(f: BorelPoly, zeta: Fraction):
    """Evaluate the truncated polynomial at a rational point.

    Returns (value, tail_bound): the partial sum and an exact rational
    bound for the omitted tail, estimated geometrically from the
    observed coefficient growth.  The bound is None when |zeta| >= 1 or
    the observed ratio rules out geometric decay of the terms.
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
