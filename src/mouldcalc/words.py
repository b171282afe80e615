"""The free monoid of words over the alphabet {n in Z : n >= -1}.

Words are plain tuples of ints.  Canonical ordering is by length, then
lexicographic, so that iteration over word sets is deterministic.
"""

from __future__ import annotations

Word = tuple  # tuple[int, ...]


def check_word(w) -> tuple:
    w = tuple(int(n) for n in w)
    for n in w:
        if n < -1:
            raise ValueError(f"letter {n} < -1 is not in the alphabet")
    return w


def word_key(w):
    """Canonical sort key: (length, letters)."""
    return (len(w), w)


def weight(w) -> int:
    """Sum of the letters; 0 for the empty word."""
    return sum(w)


def shuffle_coeff(w1, w2, w) -> int:
    """Number of order-preserving interleavings of w1 and w2 equal to w.

    Computed by dynamic programming over prefix pairs; zero whenever
    len(w) != len(w1) + len(w2).
    """
    r1, r2 = len(w1), len(w2)
    if len(w) != r1 + r2:
        return 0
    # table[i][j] = ways to produce w[:i+j] from w1[:i] and w2[:j]
    table = [[0] * (r2 + 1) for _ in range(r1 + 1)]
    table[0][0] = 1
    for i in range(r1 + 1):
        for j in range(r2 + 1):
            cur = table[i][j]
            if not cur:
                continue
            k = i + j
            if i < r1 and w1[i] == w[k]:
                table[i + 1][j] += cur
            if j < r2 and w2[j] == w[k]:
                table[i][j + 1] += cur
    return table[r1][r2]


def shuffles(w1, w2) -> dict:
    """All shuffle words of w1 and w2 with their multiplicities."""
    out: dict[tuple, int] = {}

    def rec(i, j, acc):
        if i == len(w1) and j == len(w2):
            word = tuple(acc)
            out[word] = out.get(word, 0) + 1
            return
        if i < len(w1):
            acc.append(w1[i])
            rec(i + 1, j, acc)
            acc.pop()
        if j < len(w2):
            acc.append(w2[j])
            rec(i, j + 1, acc)
            acc.pop()

    rec(0, 0, [])
    return out


def beta(w) -> int:
    """The scalar with B_w y = beta(w) y^{weight(w)+1}: the product of
    (prefix weight + 1) over the proper non-empty prefixes of w."""
    if not w:
        raise ValueError("beta is undefined on the empty word")
    if len(w) == 1:
        return 1
    acc = 0
    out = 1
    for n in w[:-1]:
        acc += n
        out *= acc + 1
        if out == 0:
            return 0
    return out


def _suffix_count(w) -> int:
    """card R^w: the number of positions i with suffix weight
    n_i + ... + n_r != 0 or n_i = 0.  A lower bound for the x-valuation
    of the solver value on w."""
    c = 0
    s = 0
    for n in reversed(w):
        s += n
        if s != 0 or n == 0:
            c += 1
    return c


def valuation_lower_bound(w) -> int:
    """Exact lower bound card R^w for the x-valuation of V^w; it
    dominates ceil(len(w)/2)."""
    return _suffix_count(w)


def enumerate_words(n: int, x_order: int, support) -> list:
    """All words over `support` with weight n - 1 and length <= 2*x_order.

    Words longer than 2*x_order have solver values of x-valuation
    exceeding x_order and contribute nothing at that order.
    """
    support = sorted(set(support))
    for s in support:
        if s < -1:
            raise ValueError(f"letter {s} < -1 is not in the alphabet")
    if not support:
        return []
    target = n - 1
    lo, hi = support[0], support[-1]
    max_len = 2 * x_order
    result = []

    def rec(prefix, w, rest):
        if w == target and prefix:
            result.append(tuple(prefix))
        if rest == 0:
            return
        for s in support:
            w2 = w + s
            if _reachable(target - w2, target - w2, lo, hi, rest - 1):
                prefix.append(s)
                rec(prefix, w2, rest - 1)
                prefix.pop()

    rec([], 0, max_len)
    return sorted(result, key=word_key)


def _reachable(dlo: int, dhi: int, lo: int, hi: int, kmax: int) -> bool:
    """Whether some d in [dlo, dhi] is a sum of at most kmax integers
    from [lo, hi]."""
    return any(lo * k <= dhi and dlo <= hi * k for k in range(kmax + 1))


def enumerate_bounded_weight(delta: int) -> list:
    """All words w with weight(w) + 2*len(w) <= delta (finitely many,
    since every letter is >= -1)."""
    out = []

    def rec(prefix, w):
        if w + 2 * len(prefix) <= delta:
            out.append(tuple(prefix))
        # appending letter s then k extra letters: the minimum of
        # weight + 2*length over all continuations is reached at k = 0,
        # because each extra letter adds at least -1 + 2 = +1.
        top = delta - 2 * (len(prefix) + 1) - w
        for s in range(-1, top + 1):
            prefix.append(s)
            rec(prefix, w + s)
            prefix.pop()

    rec([], 0)
    return sorted(out, key=word_key)


def sweep_words(weights: range, x_order: int, support):
    """The words over `support` whose weight lies in the range `weights`
    (step 1) and whose solver value can be nonzero at the given
    x-order, i.e. with card R^w <= x_order, as (weight, word) pairs
    from one traversal of the word tree, in an implementation order.
    """
    support = sorted(set(support))
    if not support or not weights:
        return
    lo, hi = support[0], support[-1]
    tlo, thi = weights[0], weights[-1]

    # build right to left: state = (word, suffix weight s, card R so
    # far c); consecutive positions outside R are impossible, so at most
    # 2*(x_order - c) + 1 letters can still be prepended.  admissible[c]
    # holds the suffix weights from which some target weight stays
    # reachable with that many letters.
    top = 2 * x_order + 1
    admissible = [
        {s for s in range(min(lo, 0) * top, max(hi, 0) * top + 1)
         if _reachable(tlo - s, thi - s, lo, hi, 2 * (x_order - c) + 1)}
        for c in range(x_order + 1)]
    stack = [((), 0, 0)]
    while stack:
        w, s, c = stack.pop()
        if w and tlo <= s <= thi:
            yield s, w
        for n in support:
            s2 = s + n
            c2 = c if (s2 == 0 and n != 0) else c + 1
            if c2 <= x_order and s2 in admissible[c2]:
                stack.append(((n,) + w, s2, c2))


def contributing_words(target_weight: int, x_order: int, support,
                       reverse: bool = False):
    """Words over `support` of the given weight whose solver value can
    be nonzero at the given x-order: the one-weight case of
    sweep_words.

    With reverse=True the words are reversed (the words of the
    symmetral-inverse mould, whose value on w is +/- the solver value
    on the reversal).

    Yields words in an implementation order; sort by word_key for
    deterministic output.
    """
    for _, w in sweep_words(range(target_weight, target_weight + 1),
                            x_order, support):
        yield w[::-1] if reverse else w
