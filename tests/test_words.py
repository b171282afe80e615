import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc.words import (beta, contributing_words, enumerate_bounded_weight,
                             enumerate_words, shuffle_coeff, shuffles,
                             sweep_words, valuation_lower_bound, weight,
                             word_key)

letters = st.integers(min_value=-1, max_value=3)
short_words = st.lists(letters, min_size=0, max_size=3).map(tuple)


def shuffle_coeff_bruteforce(w1, w2, w):
    """Independent oracle: place the letters of w1 at every choice of
    positions and check both subsequences."""
    r1, r2 = len(w1), len(w2)
    if len(w) != r1 + r2:
        return 0
    count = 0
    for pos in itertools.combinations(range(r1 + r2), r1):
        rest = [i for i in range(r1 + r2) if i not in pos]
        if all(w[p] == a for p, a in zip(pos, w1)) and \
           all(w[p] == b for p, b in zip(rest, w2)):
            count += 1
    return count


class TestWeight:
    def test_empty(self):
        assert weight(()) == 0

    def test_examples(self):
        assert weight((-1, 2)) == 1
        assert weight((-1, -1, -1)) == -3


class TestShuffleCoeff:
    def test_distinct_single_letters(self):
        assert shuffle_coeff((1,), (2,), (1, 2)) == 1

    def test_equal_single_letters(self):
        assert shuffle_coeff((1,), (1,), (1, 1)) == 2

    def test_three_letters(self):
        assert shuffle_coeff((1, 2), (3,), (1, 3, 2)) == 1

    def test_length_mismatch_is_zero(self):
        assert shuffle_coeff((1,), (2,), (1, 2, 3)) == 0

    @settings(max_examples=80, deadline=None)
    @given(short_words, short_words, st.lists(letters, min_size=0,
                                              max_size=6).map(tuple))
    def test_matches_bruteforce(self, w1, w2, w):
        assert shuffle_coeff(w1, w2, w) == shuffle_coeff_bruteforce(w1, w2, w)

    @settings(max_examples=60, deadline=None)
    @given(short_words, short_words)
    def test_symmetry(self, w1, w2):
        for w in shuffles(w1, w2):
            assert shuffle_coeff(w1, w2, w) == shuffle_coeff(w2, w1, w)

    def test_total_count_is_binomial(self):
        for r1, r2 in [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (1, 5)]:
            w1 = tuple(range(r1))
            w2 = tuple(range(10, 10 + r2))
            total = sum(shuffles(w1, w2).values())
            assert total == math.comb(r1 + r2, r1)
        # repeated letters collapse words but not multiplicity totals
        for w1, w2 in [((1, 1), (1,)), ((0, 1, 0), (0, 1, 0))]:
            total = sum(shuffles(w1, w2).values())
            assert total == math.comb(len(w1) + len(w2), len(w1))

    def test_shuffles_consistent_with_coeff(self):
        w1, w2 = (0, 1), (1, -1)
        sh = shuffles(w1, w2)
        for w, mult in sh.items():
            assert shuffle_coeff(w1, w2, w) == mult


class TestBeta:
    def test_single_letter(self):
        assert beta((5,)) == 1

    def test_double_minus_one_vanishes(self):
        assert beta((-1, -1)) == 0

    def test_ones(self):
        assert beta((1, 1)) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            beta(())

    def test_vanishes_below_weight_minus_one(self):
        for r in range(1, 6):
            for w in itertools.product((-1, 0, 1), repeat=r):
                if weight(w) <= -2:
                    assert beta(w) == 0, w


class TestEnumerateWords:
    def test_single_letter_support(self):
        assert enumerate_words(0, 5, {-1}) == [(-1,)]

    def test_three_letter_support_low_order(self):
        got = enumerate_words(0, 1, {-1, 0, 1})
        assert set(got) == {(-1,), (0, -1), (-1, 0)}

    def test_empty_support(self):
        assert enumerate_words(1, 4, set()) == []

    def test_canonical_order(self):
        got = enumerate_words(1, 1, {-1, 0, 1})
        assert got == sorted(got, key=word_key)

    def test_exhaustive_small(self):
        support = (-1, 0, 1)
        for n in (0, 1, 2):
            got = set(enumerate_words(n, 2, support))
            expected = {w for r in range(1, 5)
                        for w in itertools.product(support, repeat=r)
                        if weight(w) == n - 1}
            assert got == expected


class TestEnumerateBoundedWeight:
    def test_delta_zero(self):
        assert enumerate_bounded_weight(0) == [()]

    def test_delta_two(self):
        assert set(enumerate_bounded_weight(2)) == \
            {(), (-1,), (0,), (-1, -1)}

    def test_negative_delta(self):
        assert enumerate_bounded_weight(-1) == []

    @pytest.mark.parametrize("delta", range(0, 9))
    def test_matches_bruteforce(self, delta):
        # double loop over (length, letter tuples); the weight bound
        # caps the largest letter per length
        expected = set()
        if delta >= 0:
            expected.add(())
        for r in range(1, delta + 1):
            top = delta - 2 * r + (r - 1)
            for w in itertools.product(range(-1, top + 1), repeat=r):
                if weight(w) + 2 * r <= delta:
                    expected.add(w)
        assert set(enumerate_bounded_weight(delta)) == expected


class TestContributingWords:
    def test_subset_of_enumerate(self):
        support = (-1, 0, 1)
        for n in (0, 1, 2):
            contributing = set(contributing_words(n - 1, 2, support))
            full = set(enumerate_words(n, 2, support))
            assert contributing <= full

    def test_keeps_exactly_low_valuation_words(self):
        support = (-1, 0, 1)
        K = 3
        for n in (0, 1, 2, 3):
            contributing = set(contributing_words(n - 1, K, support))
            full = set(enumerate_words(n, K, support))
            for w in full:
                if valuation_lower_bound(w) <= K:
                    assert w in contributing, w
                else:
                    assert w not in contributing, w

    def test_dropped_words_have_zero_solver_value(self, quadratic_field):
        K = 2
        mould = mc.solve_V(quadratic_field, K)
        support = quadratic_field.support
        for n in (0, 1):
            contributing = set(contributing_words(n - 1, K, support))
            for w in enumerate_words(n, K, support):
                if w not in contributing:
                    assert mould.value(w).is_zero(), w

    def test_reverse_flag_reverses_criterion(self):
        support = (-1, 0, 1)
        fwd = set(contributing_words(0, 2, support))
        rev = set(contributing_words(0, 2, support, reverse=True))
        assert rev == {w[::-1] for w in fwd}

    @settings(max_examples=60, deadline=None)
    @given(st.sets(letters, min_size=1), st.integers(0, 6),
           st.integers(0, 5))
    def test_one_sweep_buckets_every_weight(self, support, x_order, n_max):
        """The one traversal over the weights -1..n_max-1 yields, bucketed
        by weight, each component's contributing words once, and their
        reversals are the reverse=True sets."""
        buckets = {n: [] for n in range(n_max + 1)}
        for wt, w in sweep_words(range(-1, n_max), x_order, support):
            assert wt == weight(w)
            buckets[wt + 1].append(w)
        for n, words in buckets.items():
            assert len(set(words)) == len(words)
            assert set(words) == set(
                contributing_words(n - 1, x_order, support))
            assert {w[::-1] for w in words} == set(
                contributing_words(n - 1, x_order, support, reverse=True))

    def test_suffix_count_bounds_solver_valuation(self, quadratic_field):
        mould = mc.solve_V(quadratic_field, 6)
        for r in range(1, 4):
            for w in itertools.product(quadratic_field.support, repeat=r):
                v = mould.value(w).valuation()
                if v is not None:
                    assert v >= valuation_lower_bound(w), w
