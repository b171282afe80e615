"""Truncated power series over exact complex rationals.

A TruncatedSeries stores the coefficients c_0..c_K of t^0..t^K together
with the order K up to which they are exactly valid.  Every operation
reports the largest order to which its result is exact and never emits
coefficients beyond it; binary operations truncate to the minimum of
the operand orders.

It is the only series type, used in three charts: the variable x of
the field, w = 1/z for the formal integral (a series in z^{-1} is a
w-series with zero constant term, and to_z_coeffs makes the
substitution x = -1/z), and the Borel variable zeta.

The module also provides the derivation d = x^2 d/dx and the inversion
of the shifted derivation (x^2 d/dx + mu).
"""

from __future__ import annotations

from .errors import ConstantTermError, IllPosedError
from .scalars import CQ, ONE, ZERO, cq


def _cq(v) -> CQ:
    return v if isinstance(v, CQ) else CQ(v)


class TruncatedSeries:
    """Element of C[[x]] known exactly up to a stated order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [_cq(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [ZERO] * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([ONE], order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls([ZERO, ONE], order)

    @classmethod
    def monomial(cls, k: int, order: int, coeff=1) -> "TruncatedSeries":
        c = [ZERO] * (order + 1)
        if k <= order:
            c[k] = _cq(coeff)
        return cls(c, order)

    # -- basic queries ---------------------------------------------------

    def coefficient(self, k: int) -> CQ:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient x^{k} beyond valid order {self.order}")
        return self.coeffs[k]

    def valuation(self):
        """Least k with c_k != 0, or None when all stored coefficients
        vanish (the truncation only certifies valuation >= order + 1)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def constant_term(self) -> CQ:
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series from order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(k + 1)], k)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(k + 1)], k)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return ps_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "TruncatedSeries":
        s = _cq(scalar)
        return TruncatedSeries([c * s for c in self.coeffs], self.order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse in C[[x]]; requires an invertible
        constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ConstantTermError(
                "series with zero constant term is not invertible in C[[x]]")
        inv = [ONE / c0]
        for k in range(1, self.order + 1):
            acc = ZERO
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv.append(-acc / c0)
        return TruncatedSeries(inv, self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.order + 1})>"

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [c.to_quad() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "TruncatedSeries":
        return cls([CQ.from_quad(q) for q in obj["coeffs"]], int(obj["order"]))


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to min(order(a), order(b))."""
    k = min(a.order, b.order)
    out = [ZERO] * (k + 1)
    for i in range(k + 1):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(k + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return TruncatedSeries(out, k)


def euler_derivation(a: TruncatedSeries) -> TruncatedSeries:
    """d = x^2 d/dx: maps x^k to k x^{k+1}.  The result is valid to
    order(a) + 1, its top coefficient coming from the top of a."""
    out = [ZERO] * (a.order + 2)
    for k in range(1, a.order + 1):
        out[k + 1] = a.coeffs[k] * k
    return TruncatedSeries(out, a.order + 1)


def solve_euler_shifted(b: TruncatedSeries, mu) -> TruncatedSeries:
    """Solve (x^2 d/dx + mu) V = b for the unique V in xC[[x]].

    For mu != 0 the coefficient recursion is c_1 = b_1/mu,
    c_k = (b_k - (k-1) c_{k-1})/mu, giving V to order(b).  For mu = 0
    the equation forces c_j = b_{j+1}/j, giving V to order(b) - 1; b
    must then have zero x^1 coefficient as well.
    """
    mu = _cq(mu)
    if b.coeffs[0]:
        raise ConstantTermError(
            "right-hand side must have zero constant term")
    if not mu:
        if b.order >= 1 and b.coeffs[1]:
            raise IllPosedError(
                "mu = 0 requires a right-hand side in x^2 C[[x]]")
        if b.order == 0:
            raise IllPosedError("mu = 0 needs order >= 1 to determine V")
        out = [ZERO] * b.order
        for j in range(1, b.order):
            out[j] = b.coeffs[j + 1] / j
        return TruncatedSeries(out, b.order - 1)
    out = [ZERO] * (b.order + 1)
    for k in range(1, b.order + 1):
        out[k] = (b.coeffs[k] - out[k - 1] * (k - 1)) / mu
    return TruncatedSeries(out, b.order)


def to_z_coeffs(a: TruncatedSeries) -> TruncatedSeries:
    """Substitute x = -1/z: the result is the series in w = 1/z whose
    w^k coefficient is (-1)^k times the x^k coefficient of a.  The map
    is its own inverse.  Requires zero constant term, so that the image
    lies in z^{-1}C[[z^{-1}]]."""
    if a.coeffs[0]:
        raise ConstantTermError(
            "series with nonzero constant term has no z^{-1}C[[z^{-1}]] image")
    return TruncatedSeries([c if k % 2 == 0 else -c
                            for k, c in enumerate(a.coeffs)], a.order)
