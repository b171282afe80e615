import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.borel import borel_letter
from mouldcalc.errors import ConstantTermError

# the package attribute mouldcalc.borel is the function of that name
borelmod = importlib.import_module("mouldcalc.borel")


def zseries(*coeffs):
    """The w-series (w = 1/z) sum coeffs[k-1] w^k."""
    return TS([0, *coeffs], len(coeffs))


def random_zseries(rng, order):
    return zseries(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(order)))


def reference_divide_by_zeta_minus(m, f):
    """f / (zeta - m) for m != 0 by the geometric expansion
    -(1/m) sum (zeta/m)^k: out[d] = -(1/m) sum_{i <= d} f_i / m^{d-i}."""
    inv_m = Fraction(-1, m)
    out = [mc.cq(0)] * (f.order + 1)
    for d in range(f.order + 1):
        acc = mc.cq(0)
        p = Fraction(1)
        for i in range(d, -1, -1):
            if f.coeffs[i]:
                acc = acc + f.coeffs[i] * p
            p = p / m
        out[d] = acc * inv_m
    return TS(out, f.order)


gaussian_rationals = st.builds(
    mc.cq, st.fractions(min_value=-6, max_value=6, max_denominator=5),
    st.fractions(min_value=-6, max_value=6, max_denominator=5))


class TestBorel:
    def test_z_inverse_maps_to_one(self):
        assert mc.borel(zseries(1)) == TS([mc.cq(1)], 0)

    def test_basis_elements(self):
        # z^{-n-1} -> zeta^n / n!
        got = mc.borel(zseries(0, 0, 0, 1))
        expected = TS([0, 0, 0, Fraction(1, 6)], 3)
        assert got == expected

    def test_euler_signature(self):
        coeffs = [(-1) ** (k + 1) * math.factorial(k - 1)
                  for k in range(1, 9)]
        got = mc.borel(zseries(*coeffs))
        assert got == TS([(-1) ** n for n in range(8)], 7)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mc.borel(zseries())

    def test_rejects_constant_term(self):
        with pytest.raises(ConstantTermError):
            mc.borel(TS([1, 1], 1))


class TestConv:
    def test_one_one(self):
        one = TS([1], 0)
        assert mc.conv(one, one) == TS([0, 1], 1)

    def test_zeta_one(self):
        zeta = TS([0, 1], 1)
        one = TS([1, 0], 1)
        assert mc.conv(zeta, one) == TS([0, 0, Fraction(1, 2)], 2)

    def test_basis_rule(self):
        for i, j in itertools.product(range(4), range(4)):
            f = TS([Fraction(1, math.factorial(i)) if k == i else 0
                    for k in range(4)], 3)
            g = TS([Fraction(1, math.factorial(j)) if k == j else 0
                    for k in range(4)], 3)
            got = mc.conv(f, g)
            d = i + j + 1
            if d <= got.order:
                for k in range(got.order + 1):
                    expected = mc.cq(Fraction(1, math.factorial(d))) \
                        if k == d else mc.cq(0)
                    assert got.coefficient(k) == expected

    def test_commutative_associative(self):
        rng = random.Random(5)
        for _ in range(10):
            f = mc.borel(random_zseries(rng, 7))
            g = mc.borel(random_zseries(rng, 7))
            h = mc.borel(random_zseries(rng, 7))
            assert mc.conv(f, g) == mc.conv(g, f)
            lhs = mc.conv(mc.conv(f, g), h)
            rhs = mc.conv(f, mc.conv(g, h))
            k = min(lhs.order, rhs.order)
            assert lhs.truncate(k) == rhs.truncate(k)

    def test_ring_morphism_from_cauchy_product(self):
        """borel(f * g) = conv(borel f, borel g) where * is the Cauchy
        product of z-series."""
        rng = random.Random(7)
        for _ in range(50):
            order = rng.randint(2, 8)
            f = random_zseries(rng, order)
            g = random_zseries(rng, order)
            # Cauchy product on z^{-1}C[[z^{-1}]]: exponents add
            prod = [mc.cq(0)] * (order + 1)
            for i in range(1, order + 1):
                for j in range(1, order + 1 - i):
                    prod[i + j] = prod[i + j] + f.coeffs[i] * g.coeffs[j]
            lhs = mc.borel(TS(prod, order))
            rhs = mc.conv(mc.borel(f), mc.borel(g))
            k = min(lhs.order, rhs.order)
            assert lhs.truncate(k) == rhs.truncate(k)


class TestDivideByZetaMinus:
    def test_geometric_expansion(self):
        # 1/(zeta + 1) = sum (-1)^n zeta^n
        got = mc.divide_by_zeta_minus(-1, TS([1, 0, 0, 0, 0], 4))
        assert got == TS([(-1) ** n for n in range(5)], 4)

    def test_zero_shift(self):
        got = mc.divide_by_zeta_minus(0, TS([0, 1], 1))
        assert got == TS([1], 0)

    def test_zero_with_constant_rejected(self):
        with pytest.raises(ConstantTermError):
            mc.divide_by_zeta_minus(0, TS([1, 0], 1))

    def test_inverse_of_multiplication(self):
        rng = random.Random(11)
        for m in (-2, -1, 1, 3):
            f = mc.borel(random_zseries(rng, 8))
            g = mc.divide_by_zeta_minus(m, f)
            # multiply back by (zeta - m)
            back = [g.coeffs[k - 1] if k else mc.cq(0)
                    for k in range(g.order + 1)]
            back = [back[k] - g.coeffs[k] * mc.cq(m)
                    for k in range(g.order + 1)]
            # the top coefficient of the product is polluted by the
            # truncated zeta-shift
            assert back[:-1] == list(f.coeffs[: f.order])

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(-7, 7).filter(bool),
           coeffs=st.lists(gaussian_rationals, min_size=1, max_size=9))
    def test_recurrence_matches_geometric_sum(self, m, coeffs):
        f = TS(coeffs, len(coeffs) - 1)
        assert mc.divide_by_zeta_minus(m, f) == \
            reference_divide_by_zeta_minus(m, f)


class TestBorelV:
    def test_euler_geometric(self, euler_field):
        got = mc.borel_V(euler_field, (-1,), 8)
        assert got == TS([(-1) ** n for n in range(9)], 8)

    def test_single_letter_formula(self, quadratic_field):
        for n in quadratic_field.support:
            got = mc.borel_V(quadratic_field, (n,), 6)
            expected = -mc.divide_by_zeta_minus(
                n, borel_letter(quadratic_field, n, 8))
            assert got == expected.truncate(6)

    def test_rejects_empty_word(self, euler_field):
        with pytest.raises(ValueError):
            mc.borel_V(euler_field, (), 4)

    def test_route_equivalence(self, quadratic_field):
        """borel_V must equal borel(to_z_coeffs(solve_V value)) on
        every word: two fully independent computation paths.  The long
        words have zero-weight suffixes, where 1/zeta spends the one
        order of margin that the letters carry."""
        zeta_order = 5
        V = mc.solve_V(quadratic_field, zeta_order + 1)
        words = [w for r in range(1, 4)
                 for w in itertools.product(quadratic_field.support,
                                            repeat=r)]
        words += [(1, -1, 1, -1, 1, -1), (0, 0, 0, 0, 0),
                  (2, -1, -1, 0, 1, -1), (-1, 1, 0, -1, 1),
                  (2, -1, 0, -1, 0, 1)]
        for w in words:
            direct = mc.borel_V(quadratic_field, w, zeta_order)
            via_x = mc.borel(mc.to_z_coeffs(V.value(w)))
            assert direct == via_x.truncate(zeta_order), w


class TestBorelPhiN:
    def test_euler(self, euler_field):
        got = mc.borel_phi_n(euler_field, 0, 10)
        assert got == TS([(-1) ** n for n in range(11)], 10)

    def test_trivial(self, trivial_field):
        for n in range(3):
            assert mc.borel_phi_n(trivial_field, n, 6).is_zero()

    def test_one_division_per_memo_entry(self, quadratic_field,
                                         monkeypatch):
        """One borel_phi_n call builds one mould: each memo entry costs
        one division, each distinct letter one Borel polynomial, and
        every value is at zeta_order."""
        zeta_order = 5
        moulds, divisions, letters = [], [], []
        real_mould = borelmod.borel_mould
        real_divide = borelmod.divide_by_zeta_minus
        real_letter = borelmod.borel_letter

        def borel_mould(field, order):
            moulds.append(real_mould(field, order))
            return moulds[-1]

        def divide(m, f):
            divisions.append(m)
            return real_divide(m, f)

        def letter(field, n, order):
            letters.append((n, order))
            return real_letter(field, n, order)

        monkeypatch.setattr(borelmod, "borel_mould", borel_mould)
        monkeypatch.setattr(borelmod, "divide_by_zeta_minus", divide)
        monkeypatch.setattr(borelmod, "borel_letter", letter)
        mc.borel_phi_n(quadratic_field, 2, zeta_order)
        [mould] = moulds
        memo = mould._memo
        assert len(divisions) == len(memo) > 0
        assert sorted(letters) == sorted(
            {(n, zeta_order + 1) for w in memo for n in w})
        assert {v.order for v in memo.values()} == {zeta_order}

    def test_matches_x_route(self, cubic_field):
        zeta_order = 5
        mould = mc.solve_V(cubic_field, zeta_order + 1)
        for n in range(4):
            direct = mc.borel_phi_n(cubic_field, n, zeta_order)
            phi = mc.phi_n(cubic_field, n, zeta_order + 1, mould)
            if phi.is_zero():
                assert direct.is_zero()
            else:
                via_x = mc.borel(mc.to_z_coeffs(phi))
                assert direct == via_x.truncate(zeta_order), n


class TestEvalPartialSum:
    def test_geometric_tail_bound(self):
        f = TS([(-1) ** n for n in range(10)], 9)
        value, tail = mc.eval_partial_sum(f, Fraction(1, 2))
        # partial sum of sum (-1/2)^n
        expected = sum(Fraction(-1, 2) ** n for n in range(10))
        assert value == mc.cq(expected)
        assert tail is not None
        # the true tail is bounded by the reported bound
        true_tail = abs(Fraction(2, 3) - expected)
        assert true_tail <= tail

    def test_no_bound_outside_disc(self):
        f = TS([(-1) ** n for n in range(10)], 9)
        _, tail = mc.eval_partial_sum(f, Fraction(3, 2))
        assert tail is None

    def test_exact_on_polynomials(self):
        f = TS([1, 2, 3], 2)
        value, _ = mc.eval_partial_sum(f, Fraction(1, 3))
        assert value == mc.cq(Fraction(1) + Fraction(2, 3) + Fraction(3, 9))
