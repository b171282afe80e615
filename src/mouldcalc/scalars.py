"""Exact complex-rational scalars.

All coefficients in the library are Gaussian rationals.  CQ holds one
as a pair of `fractions.Fraction`; arithmetic is exact and equality is
canonical (Fraction keeps reduced form).  CQ is the boundary type for
coefficients in (field files, field letters) and out (the tables,
TruncatedSeries.coeffs, BivariateSeries residuals).  Series arithmetic
and substitution work on integer numerators over one shared denominator
(series.py, saddlenode.py), except TruncatedSeries.invert,
eval_partial_sum and a non-real mu in solve_euler_shifted.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class CQ:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("CQ is immutable")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CQ):
            return other
        if isinstance(other, (int, Fraction)):
            return CQ(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CQ(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.im == 0 and o.im == 0:
            return CQ(self.re * o.re)
        return CQ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.re == 0 and o.im == 0:
            raise ZeroDivisionError("division by zero CQ")
        if o.im == 0:
            return CQ(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im
        return CQ((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "CQ":
        return CQ(self.re, -self.im)

    def abs_bound(self) -> Fraction:
        """An exact rational upper bound for |self| (the 1-norm)."""
        return abs(self.re) + abs(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"CQ({self.re})"
        return f"CQ({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"

    # -- serialization ------------------------------------------------

    def to_quad(self) -> list[int]:
        """[re_num, re_den, im_num, im_den]."""
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]


ZERO = CQ(0)
ONE = CQ(1)


def cq(re=0, im=0) -> CQ:
    """Shorthand constructor accepting ints or Fractions."""
    return CQ(re, im)
