"""Truncated power series over exact complex rationals.

A TruncatedSeries stores the coefficients c_0..c_K of t^0..t^K together
with the order K up to which they are exactly valid.  Every operation
reports the largest order to which its result is exact and never emits
coefficients beyond it; binary operations truncate to the minimum of
the operand orders.

The coefficients are held as integer numerators over one shared
denominator, the representation of FLINT's fmpq_poly: c_k =
(re[k] + i im[k]) / den.  The form is canonical: den > 0,
gcd(den, re, im) = 1, and im is None exactly when every imaginary part
is 0, so equal series have equal fields.  The kernels below are integer
loops with one gcd per result; CQ is the boundary type, for input
(the constructor) and output (coeffs, to_json).

It is the only series type, used in three charts: the variable x of
the field, w = 1/z for the formal integral (a series in z^{-1} is a
w-series with zero constant term, and to_z_coeffs makes the
substitution x = -1/z), and the Borel variable zeta.

The module also provides the derivation d = x^2 d/dx and the inversion
of the shifted derivation (x^2 d/dx + mu).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import ConstantTermError, IllPosedError
from .scalars import CQ, ONE, ZERO


def _cq(v) -> CQ:
    return v if isinstance(v, CQ) else CQ(v)


def _make(order, den, re, im):
    """The series sum (re[k] + i im[k]) x^k / den, reduced to canonical
    form; re and im (or None) are sequences of order + 1 ints."""
    if im is not None and not any(im):
        im = None
    if den < 0:
        den, re, im = -den, [-c for c in re], im and [-c for c in im]
    g = gcd(den, *re) if im is None else gcd(den, *re, *im)
    if g != 1:
        den, re = den // g, [c // g for c in re]
        im = im and [c // g for c in im]
    s = object.__new__(TruncatedSeries)
    _set_order(s, order)
    _set_den(s, den)
    _set_re(s, tuple(re))
    _set_im(s, im and tuple(im))
    return s


def _conv(a, b, k):
    """The first k + 1 coefficients of the Cauchy product of the integer
    sequences a and b (each of length >= k + 1)."""
    out = [0] * (k + 1)
    for i in range(k + 1):
        x = a[i]
        if x:
            for j, y in enumerate(b[: k + 1 - i], i):
                out[j] += x * y
    return out


def _scalar_parts(scalar):
    """(re, im, den) of an int, Fraction or CQ scalar: integers with
    scalar = (re + i im) / den, den > 0."""
    if isinstance(scalar, int):
        return scalar, 0, 1
    if isinstance(scalar, Fraction):
        return scalar.numerator, 0, scalar.denominator
    s = _cq(scalar)
    d = lcm(s.re.denominator, s.im.denominator)
    return (s.re.numerator * (d // s.re.denominator),
            s.im.numerator * (d // s.im.denominator), d)


class TruncatedSeries:
    """Element of C[[x]] known exactly up to a stated order."""

    __slots__ = ("order", "den", "re", "im")

    def __init__(self, coeffs, order=None):
        quads = [_cq(c).to_quad() for c in coeffs]
        if order is None:
            order = len(quads) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        quads += [[0, 1, 0, 1]] * (order + 1 - len(quads))
        s = self.from_quads(quads, order)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(s, name))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        return _make(order, 1, (0,) * (order + 1), None)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, k: int, order: int, coeff=1) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        re = [0] * (order + 1)
        im = [0] * (order + 1)
        den = 1
        if k <= order:
            re[k], im[k], den = _scalar_parts(coeff)
        return _make(order, den, re, im)

    @classmethod
    def from_ints(cls, order: int, den: int, re, im) -> "TruncatedSeries":
        """The series sum (re[k] + i im[k]) x^k / den, k = 0..order, for
        a nonzero int den and int sequences re and im (im may be None for
        a real series), reduced to canonical form."""
        return _make(order, den, re, im)

    @classmethod
    def from_quads(cls, quads, order: int) -> "TruncatedSeries":
        """The series at `order` from its first order + 1 coefficients,
        each [re_num, re_den, im_num, im_den] (the to_json layout).
        Raises ValueError unless there are enough quads, each of four
        ints with positive denominators."""
        quads = quads[: order + 1]
        if len(quads) < order + 1:
            raise ValueError(f"{len(quads)} coefficients for order {order}")
        if set(map(len, quads)) != {4}:
            raise ValueError("a coefficient is not four integers")
        flat = list(chain.from_iterable(quads))
        if set(map(type, flat)) != {int}:
            raise ValueError("a coefficient is not four integers")
        re_n, re_d, im_n, im_d = flat[::4], flat[1::4], flat[2::4], flat[3::4]
        if min(re_d) <= 0 or min(im_d) <= 0:
            raise ValueError("a coefficient has a denominator <= 0")
        real = not any(im_n)
        den = lcm(*re_d) if real else lcm(*re_d, *im_d)
        re = [n * (den // d) for n, d in zip(re_n, re_d)]
        im = None if real else [n * (den // d) for n, d in zip(im_n, im_d)]
        return _make(order, den, re, im)

    def with_numerators(self, f, order: int, den: int) -> "TruncatedSeries":
        """The series at `order` over `den` whose numerators are f(re)
        and f(im): f maps a tuple of ints to order + 1 ints, linearly,
        so that a zero imaginary part stays zero."""
        return _make(order, den, f(self.re), self.im and f(self.im))

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients c_0..c_order as CQ."""
        den = self.den
        im = self.im or (0,) * (self.order + 1)
        return tuple(CQ(Fraction(r, den), Fraction(i, den))
                     for r, i in zip(self.re, im))

    def coefficient(self, k: int) -> CQ:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient x^{k} beyond valid order {self.order}")
        return self.coeffs[k]

    def valuation(self):
        """Least k with c_k != 0, or None when all stored coefficients
        vanish (the truncation only certifies valuation >= order + 1)."""
        im = self.im or (0,) * (self.order + 1)
        for k, (r, i) in enumerate(zip(self.re, im)):
            if r or i:
                return k
        return None

    def is_zero(self) -> bool:
        return self.im is None and not any(self.re)

    def constant_term(self) -> CQ:
        return self.coefficient(0)

    # -- arithmetic -------------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series from order {self.order} to {order}")
        if order == self.order:
            return self
        return self.with_numerators(lambda cs: cs[: order + 1], order,
                                    self.den)

    def zero_pad(self, order: int) -> "TruncatedSeries":
        """The same coefficients, with zeros up to a higher order."""
        if order < self.order:
            raise ValueError(
                f"cannot pad a series from order {self.order} to {order}")
        pad = (0,) * (order - self.order)
        return self.with_numerators(lambda cs: cs + pad, order, self.den)

    def at(self, order: int) -> "TruncatedSeries":
        """The series at `order`: truncated, or zero-padded above its
        own order (for a series known to vanish there)."""
        if order <= self.order:
            return self.truncate(order)
        return self.zero_pad(order)

    def _add(self, other, sign):
        k = min(self.order, other.order) + 1
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        re = [a * m1 + b * m2 for a, b in zip(self.re, other.re)]
        im = None
        if self.im or other.im:
            zero = (0,) * k
            im = [a * m1 + b * m2 for a, b in zip(self.im or zero,
                                                  other.im or zero)]
        return _make(k - 1, d1 // g * d2, re, im)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._add(other, 1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._add(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return ps_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "TruncatedSeries":
        sr, si, d = _scalar_parts(scalar)
        if si:  # a non-real scalar multiplies as a constant series
            pad = [0] * self.order
            re, im = cauchy(self.re, self.im, [sr, *pad], [si, *pad],
                            self.order)
            return _make(self.order, self.den * d, re, im)
        return self.with_numerators(lambda cs: [c * sr for c in cs],
                                    self.order, self.den * d)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse in C[[x]]; requires an invertible
        constant term."""
        coeffs = self.coeffs
        c0 = coeffs[0]
        if not c0:
            raise ConstantTermError(
                "series with zero constant term is not invertible in C[[x]]")
        inv = [ONE / c0]
        for k in range(1, self.order + 1):
            acc = ZERO
            for j in range(1, k + 1):
                acc = acc + coeffs[j] * inv[k - j]
            inv.append(-acc / c0)
        return TruncatedSeries(inv, self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.order, self.den, self.re, self.im))

    def __repr__(self):
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.order + 1})>"

    # -- serialization ------------------------------------------------

    def quads(self) -> list:
        """[re_num, re_den, im_num, im_den] per coefficient, each part
        reduced (the layout of CQ.to_quad)."""
        den = self.den
        out = []
        for r, i in zip(self.re, self.im or (0,) * (self.order + 1)):
            g, h = gcd(r, den), gcd(i, den)
            out.append([r // g, den // g, i // h, den // h])
        return out

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": self.quads()}

    @classmethod
    def from_json(cls, obj) -> "TruncatedSeries":
        return cls.from_quads(obj["coeffs"], int(obj["order"]))


# the slot setters, which bypass TruncatedSeries.__setattr__
_set_order, _set_den, _set_re, _set_im = (
    getattr(TruncatedSeries, f).__set__ for f in TruncatedSeries.__slots__)


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to min(order(a), order(b))."""
    k = min(a.order, b.order)
    re, im = cauchy(a.re, a.im, b.re, b.im, k)
    return _make(k, a.den * b.den, re, im)


def cauchy(are, aim, bre, bim, k):
    """(re, im): the first k + 1 coefficients of the product of the
    integer Gaussian sequences (are + i aim)(bre + i bim), an imaginary
    part being None when it is known to be zero."""
    re = _conv(are, bre, k)
    im = bim and _conv(are, bim, k)
    if aim:
        t = _conv(aim, bre, k)
        im = [x + y for x, y in zip(im, t)] if im else t
        if bim:
            re = [x - y for x, y in zip(re, _conv(aim, bim, k))]
    return re, im


def euler_derivation(a: TruncatedSeries) -> TruncatedSeries:
    """d = x^2 d/dx: maps x^k to k x^{k+1}.  The result is valid to
    order(a) + 1, its top coefficient coming from the top of a."""
    return a.with_numerators(
        lambda cs: [0, 0] + [k * cs[k] for k in range(1, a.order + 1)],
        a.order + 1, a.den)


def solve_euler_shifted(b: TruncatedSeries, mu) -> TruncatedSeries:
    """Solve (x^2 d/dx + mu) V = b for the unique V in xC[[x]].

    For mu != 0 the coefficient recursion is c_1 = b_1/mu,
    c_k = (b_k - (k-1) c_{k-1})/mu, giving V to order(b).  For mu = 0
    the equation forces c_j = b_{j+1}/j, giving V to order(b) - 1; b
    must then have zero x^1 coefficient as well.

    For a real mu = p/q and b_k = B_k/D, the numerators over D p^k are
    C_k = q (B_k p^(k-1) - (k-1) C_(k-1)); a non-real mu runs the
    recursion on CQ.
    """
    v = b.valuation()
    if v == 0:
        raise ConstantTermError(
            "right-hand side must have zero constant term")
    K = b.order
    p, pi, q = _scalar_parts(mu)
    if pi:
        bc, mu = b.coeffs, _cq(mu)
        out = [ZERO] * (K + 1)
        for k in range(1, K + 1):
            out[k] = (bc[k] - out[k - 1] * (k - 1)) / mu
        return TruncatedSeries(out, K)
    if p == 0:
        if v == 1:
            raise IllPosedError(
                "mu = 0 requires a right-hand side in x^2 C[[x]]")
        if K == 0:
            raise IllPosedError("mu = 0 needs order >= 1 to determine V")
        L = lcm(*range(1, K))
        return b.with_numerators(
            lambda cs: [0] + [cs[j + 1] * (L // j) for j in range(1, K)],
            K - 1, b.den * L)
    powers = [1] * (K + 1)  # p^0..p^K
    for k in range(1, K + 1):
        powers[k] = powers[k - 1] * p

    def solve(bs):
        out = [0] * (K + 1)
        c = 0
        for k in range(1, K + 1):
            c = q * (bs[k] * powers[k - 1] - (k - 1) * c)
            out[k] = c * powers[K - k]
        return out

    return b.with_numerators(solve, K, b.den * powers[K])


def to_z_coeffs(a: TruncatedSeries) -> TruncatedSeries:
    """Substitute x = -1/z: the result is the series in w = 1/z whose
    w^k coefficient is (-1)^k times the x^k coefficient of a.  The map
    is its own inverse.  Requires zero constant term, so that the image
    lies in z^{-1}C[[z^{-1}]]."""
    if a.valuation() == 0:
        raise ConstantTermError(
            "series with nonzero constant term has no z^{-1}C[[z^{-1}]] image")
    return a.with_numerators(
        lambda cs: [-c if k % 2 else c for k, c in enumerate(cs)],
        a.order, a.den)
