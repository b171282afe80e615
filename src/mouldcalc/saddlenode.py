"""Prepared saddle-node fields A(x, y), their homogeneous letters, and
substitution of y-polynomials.

The input is a bivariate polynomial representative of A with
A(0, y) = y and vanishing x*y coefficient.  Its decomposition
A = y + sum a_n(x) y^{n+1} (n >= -1) yields the letters a_n used by
the mould machinery.  Input polynomials are taken as exact: every
coefficient not stored is exactly zero, so letters can be produced at
any requested x-order.

A y-polynomial maps y-exponents to TruncatedSeries in x.  y_compose,
sum_k outer[k] inner^k, is the one substitution that every check of
phi and psi makes; BivariateSeries only carries field files in and
residuals out.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FieldValidationError
from .scalars import CQ, ONE, ZERO
from .series import TruncatedSeries, euler_derivation, ps_mul

YPolynomial = dict


class BivariateSeries:
    """Truncated bivariate series: map (m, n) -> coefficient of x^m y^n."""

    __slots__ = ("x_order", "y_order", "coeffs")

    def __init__(self, coeffs, x_order: int, y_order: int):
        clean = {}
        for (m, n), c in coeffs.items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponent ({m}, {n})")
            if m <= x_order and n <= y_order and c:
                clean[(m, n)] = c if isinstance(c, CQ) else CQ(c)
        object.__setattr__(self, "x_order", x_order)
        object.__setattr__(self, "y_order", y_order)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariateSeries is immutable")

    def coefficient(self, m: int, n: int) -> CQ:
        return self.coeffs.get((m, n), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (self.x_order == other.x_order
                and self.y_order == other.y_order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = [f"{c}*x^{m}*y^{n}"
                 for (m, n), c in sorted(self.coeffs.items())]
        body = " + ".join(terms) if terms else "0"
        return f"<{body}; orders ({self.x_order}, {self.y_order})>"


class SaddleNodeField:
    """Validated letters a_n(x), n >= -1, of a prepared field.

    Letters are exact polynomials in x: they can be rendered as
    TruncatedSeries at any order.
    """

    __slots__ = ("letters", "x_order", "y_order", "_series")

    def __init__(self, letters: dict):
        clean = {}
        max_deg = 0
        for n, poly in letters.items():
            poly = tuple(c if isinstance(c, CQ) else CQ(c) for c in poly)
            while poly and not poly[-1]:
                poly = poly[:-1]
            if not poly:
                continue
            if n < -1:
                raise ValueError(f"letter index {n} < -1")
            if poly[0]:
                raise FieldValidationError(
                    "A(0, y) = y", f"a_{n} has nonzero constant term")
            if n == 0 and len(poly) > 1 and poly[1]:
                raise FieldValidationError(
                    "d2A/dxdy(0, 0) = 0", "a_0 has nonzero x^1 coefficient")
            clean[n] = poly
            max_deg = max(max_deg, len(poly) - 1)
        object.__setattr__(self, "letters", clean)
        # each letter converted once to the integer series form
        object.__setattr__(self, "_series", {
            n: TruncatedSeries(poly) for n, poly in clean.items()})
        object.__setattr__(self, "x_order", max_deg)
        # at least 1, so that to_bivariate keeps the linear term y
        object.__setattr__(
            self, "y_order", max(1, max((n + 1 for n in clean), default=0)))

    def __setattr__(self, name, value):
        raise AttributeError("SaddleNodeField is immutable")

    @property
    def support(self) -> tuple:
        """Sorted letter indices with nonzero a_n."""
        return tuple(sorted(self.letters))

    def letter_series(self, n: int, order: int) -> TruncatedSeries:
        """a_n as a TruncatedSeries at the requested order (exact,
        because the stored letters are polynomials)."""
        s = self._series.get(n)
        return TruncatedSeries.zero(order) if s is None else s.at(order)

    def to_bivariate(self, x_order=None, y_order=None) -> BivariateSeries:
        """Reassemble A = y + sum a_n y^{n+1}."""
        if x_order is None:
            x_order = self.x_order
        if y_order is None:
            y_order = self.y_order
        return bivariate_from_y_poly(
            y_add({1: TruncatedSeries.one(x_order)},
                  {n + 1: self.letter_series(n, x_order)
                   for n in self.letters}), x_order, y_order)

    def __repr__(self):
        return f"<SaddleNodeField support={self.support}>"


class PhiSeries:
    """Components phi_n(x) of a fibred transformation
    (x, y) -> (x, y + sum phi_n(x) y^n); each phi_n is in xC[[x]]."""

    __slots__ = ("components", "x_order")

    def __init__(self, components: dict, x_order: int):
        clean = {}
        for n, s in components.items():
            if n < 0:
                raise ValueError(f"component index {n} < 0")
            if s.constant_term():
                raise FieldValidationError(
                    "phi_n in xC[[x]]", f"phi_{n} has a constant term")
            clean[n] = s.truncate(min(s.order, x_order))
        object.__setattr__(self, "components", clean)
        object.__setattr__(self, "x_order", x_order)

    def __setattr__(self, name, value):
        raise AttributeError("PhiSeries is immutable")

    def component(self, n: int) -> TruncatedSeries:
        return self.components.get(n, TruncatedSeries.zero(self.x_order))

    def y_poly(self, x_order: int) -> YPolynomial:
        """phi(x, y) = y + sum phi_n(x) y^n, every coefficient at
        x_order."""
        return y_add({1: TruncatedSeries.one(x_order)},
                     {n: s.at(x_order) for n, s in self.components.items()})

    def to_bivariate(self, x_order: int, y_order: int) -> BivariateSeries:
        """phi(x, y) = y + sum phi_n(x) y^n as a bivariate series."""
        return bivariate_from_y_poly(self.y_poly(x_order), x_order, y_order)

    def __repr__(self):
        ns = sorted(self.components)
        return f"<PhiSeries components={ns} x_order={self.x_order}>"


# -- y-polynomials --------------------------------------------------------

def y_add(p: YPolynomial, q: YPolynomial) -> YPolynomial:
    """p + q."""
    out = dict(p)
    for k, s in q.items():
        out[k] = out[k] + s if k in out else s
    return out


def y_mul(p: YPolynomial, q: YPolynomial, y_order: int) -> YPolynomial:
    """p q without the y-exponents above y_order."""
    out: YPolynomial = {}
    for i, a in p.items():
        out = y_add(out, {i + j: ps_mul(a, b) for j, b in q.items()
                          if i + j <= y_order})
    return out


def y_compose(outer: YPolynomial, inner: YPolynomial, y_order: int,
              order: int) -> YPolynomial:
    """sum_k outer[k] inner^k (k >= 0) without the y-exponents above
    y_order, inner^0 being 1 at x-order `order`.

    The powers of inner are truncated as they are built: exponents
    never fall under multiplication, so what is dropped cannot return.
    """
    out: YPolynomial = {}
    power = {0: TruncatedSeries.one(order)}
    for k in range(max(outer, default=0) + 1):
        if k:
            power = y_mul(power, inner, y_order)
        if k in outer:
            out = y_add(out, y_mul({0: outer[k]}, power, y_order))
    return out


def _y_poly_of(A: BivariateSeries, x_order: int) -> YPolynomial:
    """A as a y-polynomial, every coefficient at x_order."""
    rows: dict = {}
    for (m, n), c in A.coeffs.items():
        if m <= x_order:
            rows.setdefault(n, [ZERO] * (x_order + 1))[m] = c
    return {n: TruncatedSeries(row, x_order) for n, row in rows.items()}


def bivariate_from_y_poly(p: YPolynomial, x_order: int,
                          y_order: int) -> BivariateSeries:
    """The y-polynomial p in the box x <= x_order, y <= y_order."""
    return BivariateSeries({(m, n): c for n, s in p.items()
                            for m, c in enumerate(s.coeffs)},
                           x_order, y_order)


def extract_letters(A: BivariateSeries, repair: bool = False) -> SaddleNodeField:
    """Decompose A = y + sum a_n(x) y^{n+1} after validating the
    prepared-form conditions.

    With repair=True the offending terms (A(0, y) - y and the x*y
    monomial) are zeroed out instead of raising.
    """
    coeffs = dict(A.coeffs)
    for n in range(A.y_order + 1):
        c = coeffs.get((0, n), ZERO)
        expected = ONE if n == 1 else ZERO
        if c != expected:
            if repair:
                if n == 1:
                    coeffs[(0, 1)] = ONE
                else:
                    coeffs.pop((0, n), None)
            else:
                raise FieldValidationError(
                    "A(0, y) = y", f"coefficient of y^{n} at x = 0 is {c}")
    if (0, 1) not in coeffs:
        if repair:
            coeffs[(0, 1)] = ONE
        else:
            raise FieldValidationError(
                "A(0, y) = y", "coefficient of y at x = 0 is 0")
    if coeffs.get((1, 1), ZERO):
        if repair:
            coeffs.pop((1, 1), None)
        else:
            raise FieldValidationError(
                "d2A/dxdy(0, 0) = 0",
                f"x*y coefficient is {coeffs[(1, 1)]}")

    letters: dict[int, list] = {}
    for (m, n), c in coeffs.items():
        if not c:
            continue
        if (m, n) == (0, 1):
            continue
        idx = n - 1  # a_{n-1} multiplies y^n
        poly = letters.setdefault(idx, [ZERO] * (A.x_order + 1))
        poly[m] = poly[m] + c
    # the identity part y contributes nothing to a_0
    return SaddleNodeField(letters)


def substitute_phi(A: BivariateSeries, phi: PhiSeries,
                   x_order=None, y_order=None) -> BivariateSeries:
    """A(x, phi(x, y)), truncated to the requested box."""
    if x_order is None:
        x_order = min(A.x_order, phi.x_order)
    if y_order is None:
        y_order = A.y_order
    return bivariate_from_y_poly(
        y_compose(_y_poly_of(A, x_order), phi.y_poly(x_order), y_order,
                  x_order), x_order, y_order)


def pde_residual(A: BivariateSeries, phi: PhiSeries,
                 x_order=None, y_order=None) -> BivariateSeries:
    """x^2 d_x phi + y d_y phi - A(x, phi(x, y)).

    The zero series certifies that (x, y) -> (x, phi(x, y)) conjugates
    the normal form to the field, to the stated orders.
    """
    if x_order is None:
        x_order = min(A.x_order, phi.x_order)
    if y_order is None:
        y_order = A.y_order
    p = phi.y_poly(x_order)
    lhs = {n: euler_derivation(s).truncate(x_order) + s.scale(n)
           for n, s in p.items()}
    rhs = y_compose(_y_poly_of(A, x_order), p, y_order, x_order)
    return bivariate_from_y_poly(
        y_add(lhs, {n: -s for n, s in rhs.items()}), x_order, y_order)


# -- JSON field files ---------------------------------------------------

def field_to_json(A: BivariateSeries) -> dict:
    monomials = []
    for (m, n), c in sorted(A.coeffs.items()):
        monomials.append({
            "m": m, "n": n,
            "re": [c.re.numerator, c.re.denominator],
            "im": [c.im.numerator, c.im.denominator],
        })
    return {"x_order": A.x_order, "y_order": A.y_order,
            "monomials": monomials}


def _int(v) -> int:
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _ratio(pair) -> Fraction:
    num, den = pair
    return Fraction(_int(num), _int(den))


def field_from_json(obj) -> BivariateSeries:
    """The field of a field file.  Raises ValueError unless every
    order, exponent, numerator and denominator is a JSON integer and
    every monomial lies in the declared box."""
    try:
        x_order, y_order = _int(obj["x_order"]), _int(obj["y_order"])
        coeffs = {}
        for mono in obj["monomials"]:
            m, n = _int(mono["m"]), _int(mono["n"])
            if not (0 <= m <= x_order and 0 <= n <= y_order):
                raise ValueError(f"monomial x^{m} y^{n} outside the box "
                                 f"({x_order}, {y_order})")
            c = CQ(_ratio(mono["re"]), _ratio(mono["im"]))
            if c:
                coeffs[(m, n)] = coeffs.get((m, n), ZERO) + c
    except (KeyError, TypeError, IndexError, ValueError,
            ZeroDivisionError) as exc:
        raise ValueError(f"malformed field file: {exc}") from exc
    return BivariateSeries(coeffs, x_order, y_order)


def load_field_file(path) -> BivariateSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return field_from_json(json.load(fh))
