"""Assembly of the normalising series from the mould expansion, the
comould action on y-polynomials, and three verification routes
independent of the moulds: the PDE oracle, the composition check and
the formal-integral residual, each a substitution through
saddlenode.y_compose.
"""

from __future__ import annotations

from math import ceil

from .errors import ComouldDomainError
from .moulds import Mould, solve_V
from .saddlenode import (BivariateSeries, PhiSeries, SaddleNodeField,
                         YPolynomial, bivariate_from_y_poly, y_add,
                         y_compose)
from .series import (TruncatedSeries, euler_derivation, ps_mul,
                     solve_euler_shifted, to_z_coeffs)
from .words import beta, sweep_words, word_key


def y_monomial(k: int, x_order: int, series=None) -> YPolynomial:
    """The monomial s(x) * y^k (s = 1 by default)."""
    if series is None:
        series = TruncatedSeries.one(x_order)
    return {k: series}


def comould_apply(word, f: YPolynomial) -> YPolynomial:
    """Apply B_w = B_{n_r} ... B_{n_1} to f, i.e. B_{n_1} first.

    B_n = y^{n+1} d/dy maps s(x) y^k to k s(x) y^{k+n}.  Negative
    y-exponents must cancel along the way; a survivor is an internal
    invariant violation.
    """
    cur = {k: s for k, s in f.items() if not s.is_zero()}
    for n in word:
        nxt: YPolynomial = {}
        for k, s in cur.items():
            if k == 0:
                continue  # d/dy kills the constant-in-y part
            scaled = s.scale(k)
            if scaled.is_zero():
                continue
            k2 = k + n
            if k2 < 0:
                raise ComouldDomainError(
                    f"letter {n} drove y-exponent {k} below zero")
            nxt[k2] = nxt.get(k2, TruncatedSeries.zero(s.order)) + scaled
        cur = {k: s for k, s in nxt.items() if not s.is_zero()}
    return cur


def mould_expansion_apply(M: Mould, words, f: YPolynomial) -> YPolynomial:
    """sum over the given words of M^w * (B_w f): the action of a
    finitely supported mould expansion on a y-polynomial."""
    out: YPolynomial = {}
    for w in sorted(words, key=word_key):
        coeff = M.value(w)
        if coeff.is_zero():
            continue
        out = y_add(out, {k: ps_mul(coeff, s)
                          for k, s in comould_apply(w, f).items()})
    return {k: s for k, s in out.items() if not s.is_zero()}


def component_sums(field: SaddleNodeField, ns: range, x_order: int,
                   mould: Mould, phi: bool = True,
                   psi: bool = False) -> dict:
    """{n: (phi_n, psi_n, word_count)} for each n in the range ns (step
    1), from one sweep over the words of weights ns - 1 that contribute
    at x-order x_order (words.sweep_words), at M's order:

        phi_n = sum beta(w) M^w,
        psi_n = sum (-1)^len(w) beta(reversed w) M^w,

    psi_n being sum beta(u) M^-1(u) over the reversed words u, with
    M^-1(u) = (-1)^len(u) M^(reversed u) the symmetral inverse.  Each
    word's value is read once, and only when a sum asked for has a
    nonzero beta on it; a sum not asked for is None.
    """
    if ns and ns[0] < 0:
        raise ValueError("component index must be >= 0")
    zero = TruncatedSeries.zero(mould.x_order)
    sums = {n: [zero if phi else None, zero if psi else None, 0]
            for n in ns}
    for wt, w in sweep_words(range(ns.start - 1, ns.stop - 1), x_order,
                             field.support):
        entry = sums[wt + 1]
        entry[2] += 1
        b = phi and beta(w)
        b_rev = psi and beta(w[::-1])
        if b or b_rev:
            v = mould.value(w)
            if b:
                entry[0] = entry[0] + v.scale(b)
            if b_rev:
                entry[1] = entry[1] + v.scale(-b_rev if len(w) % 2
                                              else b_rev)
    return {n: tuple(entry) for n, entry in sums.items()}


def phi_component(field: SaddleNodeField, n: int, x_order: int,
                  mould: Mould = None):
    """phi_n = sum beta(w) V^w over words of weight n - 1; returns
    (series, word_count)."""
    if mould is None:
        mould = solve_V(field, x_order)
    series, _, count = component_sums(field, range(n, n + 1), x_order,
                                      mould)[n]
    return series, count


def phi_n(field: SaddleNodeField, n: int, x_order: int,
          mould: Mould = None) -> TruncatedSeries:
    return phi_component(field, n, x_order, mould)[0]


def psi_component(field: SaddleNodeField, n: int, x_order: int,
                  mould: Mould = None):
    """psi_n, the same assembly with the symmetral inverse of the
    solver mould, over the reversed words; returns (series,
    word_count)."""
    if mould is None:
        mould = solve_V(field, x_order)
    _, series, count = component_sums(field, range(n, n + 1), x_order,
                                      mould, phi=False, psi=True)[n]
    return series, count


def psi_n(field: SaddleNodeField, n: int, x_order: int,
          mould: Mould = None) -> TruncatedSeries:
    return psi_component(field, n, x_order, mould)[0]


def assemble_phi(field: SaddleNodeField, n_max: int, x_order: int,
                 mould: Mould = None, inverse: bool = False) -> PhiSeries:
    """PhiSeries with components 0..n_max from the mould expansion
    (the inverse transformation when inverse=True), from one sweep."""
    if mould is None:
        mould = solve_V(field, x_order)
    sums = component_sums(field, range(n_max + 1), x_order, mould,
                          phi=not inverse, psi=inverse)
    k = 1 if inverse else 0
    return PhiSeries({n: s[k] for n, s in sums.items()}, x_order)


def components_needed(field: SaddleNodeField, x_order: int,
                      y_order: int) -> int:
    """Largest component index that can contribute to the box
    (x <= x_order, y <= y_order) in a composition phi(x, psi(x, y)).

    Based on the valuation bound: phi_n is a sum over words of weight
    n - 1, which need at least ceil((n-1)/L) letters (L = max letter of
    the support), hence has x-valuation >= ceil(ceil((n-1)/L)/2); the
    term phi_n psi^n additionally carries x-valuation n - y_order from
    the component factors of psi^n that do not fit in the y-box.
    """
    sup = field.support
    if not sup:
        return y_order
    top = max(sup)
    n = y_order
    while True:
        m = n + 1
        if top <= 0 and m >= 2:
            # weight m - 1 >= 1 is unreachable: phi_m = 0
            return n
        vbound = max(1, ceil(ceil((m - 1) / top) / 2)) if m >= 2 else 1
        if vbound + max(0, m - y_order) > x_order:
            return n
        n = m


def oracle_phi(field: SaddleNodeField, n_max: int,
               x_order: int) -> PhiSeries:
    """Solve the conjugacy PDE x^2 d_x phi + y d_y phi = A(x, phi)
    order by order, independently of the mould machinery.

    The y^n component reads (x^2 d/dx + (n - 1)) phi_n = C_n(phi) with
    C_n the y^n coefficient of sum_m a_m(x) phi^{m+1}.  Since every a_m
    is divisible by x (and a_0 by x^2), the fixed-point iteration
    phi <- E(C(phi)) is a contraction in the x-adic sense and reaches
    its exact fixed point after at most (working order) steps.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    work = x_order + 2
    zero = TruncatedSeries.zero(work)
    comp = {n: zero for n in range(n_max + 1)}
    # C(phi) = sum_m a_m phi^{m+1} = sum_k outer[k] phi^k
    outer = {m + 1: field.letter_series(m, work) for m in field.support}
    for _ in range(work + 2):
        phi = y_add({1: TruncatedSeries.one(work)}, comp)
        rhs = y_compose(outer, phi, n_max, work)
        # intermediate iterates may be shorter after the mu = 0 solve;
        # zero-padding is harmless, the affected coefficients influence
        # nothing at or below the working order
        new = {n: solve_euler_shifted(rhs.get(n, zero), n - 1).at(work)
               for n in range(n_max + 1)}
        if new == comp:
            break
        comp = new
    else:
        raise AssertionError("oracle fixed-point iteration did not settle")
    return PhiSeries({n: s.truncate(x_order) for n, s in comp.items()},
                     x_order)


def compose_check(phi: PhiSeries, psi: PhiSeries, x_order: int,
                  y_order: int) -> BivariateSeries:
    """Residual phi(x, psi(x, y)) - y in the stated box; the zero
    series certifies mutual inversion there (provided both PhiSeries
    carry every component that can contribute, see
    components_needed)."""
    phi_of_psi = y_compose(phi.y_poly(x_order), psi.y_poly(x_order),
                           y_order, x_order)
    return bivariate_from_y_poly(
        y_add(phi_of_psi, {1: -TruncatedSeries.one(x_order)}),
        x_order, y_order)


def formal_integral_residual(field: SaddleNodeField, phi: PhiSeries,
                             u_order: int, z_order: int) -> dict:
    """Residual of the formal-integral equation dY/dz = A(-1/z, Y) for
    the ansatz Y = U + sum phi~_n(z) U^n, U = u e^z.

    Returns a map n -> residual coefficients (c_1..c_{z_order} of
    z^{-1}..z^{-z_order}) for each row 0 <= n <= u_order.  All rows are
    zero when the supplied components solve the conjugacy problem.

    Internally everything is carried as series in w = z^{-1}, where
    d/dz acts as -w^2 d/dw and s(x) maps to s(-w).
    """
    work = z_order + 1
    zero = TruncatedSeries.zero(work)

    def to_w(s: TruncatedSeries) -> TruncatedSeries:
        # x -> -w at the working order (components are exact to their
        # stated order; beyond it they are unknown, so demand enough
        # x-order up front)
        if s.order < work:
            raise ValueError(
                f"need components to x-order {work}, got {s.order}")
        return to_z_coeffs(s.truncate(work))

    # Y = U + sum phi~_n U^n and A(-1/z, Y) = Y + sum a~_m Y^{m+1},
    # as polynomials in U with w-series coefficients
    one = TruncatedSeries.one(work)
    Y = y_add({1: one}, {n: to_w(s) for n, s in phi.components.items()
                         if n <= u_order and not s.is_zero()})
    A = y_add({1: one}, {m + 1: to_w(field.letter_series(m, work))
                         for m in field.support})

    # dY/dz row by row: d/dz (phi~_n U^n) = (phi~_n' + n phi~_n) U^n
    lhs = {n: -euler_derivation(s).truncate(work) + s.scale(n)
           for n, s in Y.items()}
    rhs = y_compose(A, Y, u_order, work)

    residual = {}
    for n in range(0, u_order + 1):
        r = lhs.get(n, zero) - rhs.get(n, zero)
        residual[n] = tuple(r.coeffs[1: z_order + 1])
    return residual
