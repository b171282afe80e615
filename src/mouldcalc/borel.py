"""Formal Borel transform: series in w = 1/z to truncated series in
zeta, the convolution product, division by (zeta - m), and the Borel
transforms of the solver values and normalising components.  Both
sides are TruncatedSeries, in the w and zeta charts.
V^^ is one memoised Mould at one zeta-order, built by the solver's own
word recursion, and phi^_0..phi^_n are its component sums from one
sweep over the words.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstantTermError
from .moulds import Mould
from .normalisation import component_sums
from .saddlenode import SaddleNodeField
from .scalars import ZERO
from .series import TruncatedSeries, cauchy, to_z_coeffs
from .words import check_word, weight


def borel(f: TruncatedSeries) -> TruncatedSeries:
    """sum c_{n+1} w^{n+1} (w = 1/z) maps to sum c_{n+1} zeta^n / n!.
    The w-series must have zero constant term.  Over the denominator
    D (K-1)!, K = order(f), the numerators are F_{n+1} (K-1)!/n!."""
    if f.valuation() == 0:
        raise ConstantTermError(
            "w-series with nonzero constant term has no Borel transform")
    K = f.order
    if K == 0:
        raise ValueError("w-series of order 0 carries no coefficients")
    ratios = [1] * K  # (K-1)!/n!
    for n in range(K - 1, 0, -1):
        ratios[n - 1] = ratios[n] * n
    return f.with_numerators(
        lambda cs: [c * r for c, r in zip(cs[1:], ratios)],
        K - 1, f.den * ratios[0])


def conv(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Convolution int_0^zeta f(t) g(zeta - t) dt, truncated.

    On basis elements: conv(zeta^i/i!, zeta^j/j!) = zeta^{i+j+1}/(i+j+1)!.
    Exact to min(order f, order g) + 1.  Over the denominator
    D_f D_g k!, k = min(orders) + 1, the zeta^d numerator is k!/d! times
    the Cauchy product of F_i i! and G_j j! at i + j = d - 1.
    """
    m = min(f.order, g.order)
    fact = [1] * (m + 2)  # 0!..(m+1)!
    for n in range(1, m + 2):
        fact[n] = fact[n - 1] * n

    def weighted(cs):
        return cs and [c * w for c, w in zip(cs, fact)]

    def lift(cs):
        return cs and [0] + [c * (fact[m + 1] // fact[d])
                             for d, c in enumerate(cs, 1)]

    re, im = cauchy(weighted(f.re), weighted(f.im),
                    weighted(g.re), weighted(g.im), m)
    return TruncatedSeries.from_ints(m + 1, f.den * g.den * fact[m + 1],
                                     lift(re), lift(im))


def divide_by_zeta_minus(m: int, f: TruncatedSeries) -> TruncatedSeries:
    """Multiply f by 1/(zeta - m).

    For m != 0 this is the recurrence g_d = (g_{d-1} - f_d)/m, g_{-1} = 0,
    at the order of f: with f_d = F_d/D the numerators over D m^(d+1) are
    G_d = G_{d-1} - F_d m^d.  For m = 0 the coefficients shift down one
    degree, which requires a vanishing constant term.
    """
    K = f.order
    if m == 0:
        if f.valuation() == 0:
            raise ConstantTermError(
                "1/zeta of a series with nonzero constant term is not a "
                "Taylor series at 0")
        if K == 0:
            raise ValueError("order 0 leaves nothing after the shift")
        return f.with_numerators(lambda cs: cs[1:], K - 1, f.den)
    powers = [1] * (K + 2)  # m^0..m^(K+1)
    for d in range(1, K + 2):
        powers[d] = powers[d - 1] * m

    def divide(cs):
        out = []
        acc = 0
        for d, c in enumerate(cs):
            acc -= c * powers[d]
            out.append(acc * powers[K - d])
        return out

    return f.with_numerators(divide, K, f.den * powers[K + 1])


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


def borel_components(field: SaddleNodeField, ns: range, zeta_order: int,
                     mould: Mould = None) -> dict:
    """{n: phi^_n} for each n in ns, phi^_n = sum beta(w) V^^w over words
    of weight n - 1, from one sweep over the words and the given
    borel_mould(field, zeta_order) or a new one, so the components
    share its suffixes.

    The contributing-word bound is taken at x-order zeta_order + 1 (the
    Borel transform consumes one z-power).
    """
    if mould is None:
        mould = borel_mould(field, zeta_order)
    sums = component_sums(field, ns, zeta_order + 1, mould)
    return {n: s[0] for n, s in sums.items()}


def borel_phi_n(field: SaddleNodeField, n: int, zeta_order: int,
                mould: Mould = None) -> TruncatedSeries:
    """phi^_n alone (see borel_components)."""
    return borel_components(field, range(n, n + 1), zeta_order, mould)[n]


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
    coeffs = f.coeffs
    for c in coeffs:
        value = value + c * p
        p = p * zeta
    q = abs(zeta)
    if q >= 1:
        return value, None
    # observed growth ratio of coefficient magnitudes
    mags = [c.abs_bound() for c in coeffs]
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
