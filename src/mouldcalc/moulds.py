"""Moulds over C[[x]]: algebra operations, the normalising solver and
the symmetry checkers.

A Mould is a memoizing evaluator from words to TruncatedSeries at a
fixed x-order.  Evaluation is deterministic and pure: a word's value
never depends on which words were evaluated before it.
"""

from __future__ import annotations

from math import ceil

from .errors import NonInvertibleMouldError
from .saddlenode import SaddleNodeField
from .series import (TruncatedSeries, euler_derivation, ps_mul,
                     solve_euler_shifted)
from .words import check_word, shuffles, weight


class Mould:
    """Map from words to TruncatedSeries at a fixed x-order, the order
    in the series' chart (zeta for a Borel mould).  Every value, and
    every memo table entry, is at exactly x_order."""

    __slots__ = ("x_order", "tag", "_fn", "_memo")

    def __init__(self, x_order: int, fn, tag: str = "constructed"):
        self.x_order = x_order
        self.tag = tag
        self._fn = fn
        self._memo = {}

    def value(self, word) -> TruncatedSeries:
        word = tuple(word)
        v = self._memo.get(word)
        if v is None:
            v = self._memo[word] = self._fn(word)
        return v

    __call__ = value

    def known_words(self):
        """Words evaluated so far (snapshot of the memo table)."""
        return list(self._memo)

    def preload(self, entries: dict) -> None:
        """Seed the memo table, e.g. from a cache file, with values at
        x_order."""
        self._memo.update(entries)

    def __repr__(self):
        return f"<Mould tag={self.tag!r} x_order={self.x_order}>"


def unit_mould(x_order: int) -> Mould:
    """1 on the empty word, 0 elsewhere: the unit of mould multiplication."""
    one = TruncatedSeries.one(x_order)
    zero = TruncatedSeries.zero(x_order)
    return Mould(x_order, lambda w: one if not w else zero, tag="unit")


def constant_mould(x_order: int, scalar=1) -> Mould:
    c = TruncatedSeries.monomial(0, x_order, scalar)
    return Mould(x_order, lambda w: c, tag="constant")


def mould_from_dict(x_order: int, values: dict, tag="constructed") -> Mould:
    """Finitely supported mould: given values, 0 on all other words."""
    table = {tuple(w): s.truncate(x_order) for w, s in values.items()}
    zero = TruncatedSeries.zero(x_order)
    return Mould(x_order, lambda w: table.get(w, zero), tag=tag)


def j_a_mould(field: SaddleNodeField, x_order: int) -> Mould:
    """a_{n1} on one-letter words, 0 on all other words."""
    zero = TruncatedSeries.zero(x_order)

    def fn(w):
        if len(w) == 1:
            return field.letter_series(w[0], x_order)
        return zero

    return Mould(x_order, fn, tag="derived")


def mould_mul(M: Mould, N: Mould) -> Mould:
    """(M x N)^w = sum over concatenation splittings w = w1.w2 of
    M^{w1} N^{w2}."""
    if M.x_order != N.x_order:
        raise ValueError("incompatible x_order")

    def fn(w):
        acc = TruncatedSeries.zero(M.x_order)
        for i in range(len(w) + 1):
            acc = acc + ps_mul(M.value(w[:i]), N.value(w[i:]))
        return acc

    return Mould(M.x_order, fn, tag="derived")


def mould_inverse(M: Mould) -> Mould:
    """Multiplicative inverse, by recursion on word length; requires
    M on the empty word to be invertible in C[[x]]."""
    m_empty = M.value(())
    if not m_empty.constant_term():
        raise NonInvertibleMouldError(
            "value on the empty word has zero constant term")
    inv_empty = m_empty.invert()
    out = Mould(M.x_order, None, tag="derived")

    def fn(w):
        if not w:
            return inv_empty
        acc = TruncatedSeries.zero(M.x_order)
        for i in range(1, len(w) + 1):
            acc = acc + ps_mul(M.value(w[:i]), out.value(w[i:]))
        return -ps_mul(inv_empty, acc)

    out._fn = fn
    return out


def symmetral_inverse(M: Mould) -> Mould:
    """w -> (-1)^{len(w)} M^{reversed w}; this is the multiplicative
    inverse when M is symmetral (checked in tests, not enforced
    here)."""

    def fn(w):
        v = M.value(w[::-1])
        return v if len(w) % 2 == 0 else -v

    return Mould(M.x_order, fn, tag="derived")


def nabla(M: Mould) -> Mould:
    """Multiply the value on each word by the word's weight; 0 on the
    empty word."""

    def fn(w):
        if not w:
            return TruncatedSeries.zero(M.x_order)
        return M.value(w).scale(weight(w))

    return Mould(M.x_order, fn, tag="derived")


def solve_V(field: SaddleNodeField, x_order: int) -> Mould:
    """The unique mould with value 1 on the empty word, values in
    xC[[x]] elsewhere, solving

        x^2 d_x V + (weight) V = (J_a x V)   wordwise.

    Each value is obtained by inverting the shifted Euler derivation on
    a_{n1} * V^{tail}.  The returned mould's memo table is the only
    store: it is keyed on words, so suffix sharing across the word set
    is automatic.  Each word is solved once, at x_order K: the
    zero-weight branch loses one order, but a_{n1} has zero constant
    term, so the x^{K+1} coefficient of a_{n1} * V^{tail} reads the tail
    only up to x^K.
    """
    mould = Mould(x_order, None, tag="solver")
    memo = mould._memo
    mould._fn = lambda w: _solve(field, x_order, memo, check_word(w))
    return mould


def _solve(field: SaddleNodeField, x_order: int, memo: dict, word):
    """The solver value on word, memoised with its suffixes in memo.  A
    module function, not a closure that calls itself: such a closure is
    a reference cycle, and would keep a finished job's memo alive until
    the cycle collector runs."""
    if not word:
        return TruncatedSeries.one(x_order)
    v = memo.get(word)
    if v is not None:
        return v
    mu = weight(word)
    tail = _solve(field, x_order, memo, word[1:])
    if mu == 0:
        # the padding x^{K+1} coefficient is never read; for a valid
        # field the right-hand side lies in x^2 C[[x]], and
        # solve_euler_shifted checks it
        tail = tail.zero_pad(x_order + 1)
    b = ps_mul(field.letter_series(word[0], tail.order), tail)
    v = solve_euler_shifted(b, mu)
    val = v.valuation()
    bound = ceil(len(word) / 2)
    if val is not None and val < bound:
        raise AssertionError(
            f"valuation bound violated on {word}: {val} < {bound}")
    memo[word] = v
    return v


def check_symmetral(M: Mould, w1, w2) -> TruncatedSeries:
    """Residual of the shuffle identity
    sum sh(w1, w2; w) M^w - M^{w1} M^{w2}; the zero series certifies
    the identity for this pair."""
    acc = TruncatedSeries.zero(M.x_order)
    for w, mult in sorted(shuffles(w1, w2).items()):
        acc = acc + M.value(w).scale(mult)
    return acc - ps_mul(M.value(tuple(w1)), M.value(tuple(w2)))


def check_alternal(M: Mould, w1, w2) -> TruncatedSeries:
    """Residual sum sh(w1, w2; w) M^w; zero certifies alternality for
    this pair."""
    acc = TruncatedSeries.zero(M.x_order)
    for w, mult in sorted(shuffles(w1, w2).items()):
        acc = acc + M.value(w).scale(mult)
    return acc


def residual_mould_equation(V: Mould, field: SaddleNodeField,
                            w) -> TruncatedSeries:
    """x^2 d_x V^w + weight(w) V^w - (J_a x V)^w, recomputed through
    generic mould multiplication."""
    w = tuple(w)
    if not w:
        raise ValueError("the mould equation is stated on non-empty words")
    v = V.value(w)
    lhs = euler_derivation(v).truncate(V.x_order) + v.scale(weight(w))
    rhs = mould_mul(j_a_mould(field, V.x_order), V).value(w)
    return lhs - rhs
