import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.errors import ConstantTermError, IllPosedError


def series(*coeffs, order=None):
    return TS([mc.cq(*c) if isinstance(c, tuple) else mc.cq(c)
               for c in coeffs], order)


small_scalars = st.fractions(min_value=-5, max_value=5,
                             max_denominator=4).map(mc.cq)
small_series = st.lists(small_scalars, min_size=1, max_size=13).map(
    lambda cs: TS(cs, 12))


class TestMul:
    def test_difference_of_squares(self):
        a = series(1, 1, order=2)
        b = series(1, -1, order=2)
        assert mc.ps_mul(a, b) == series(1, 0, -1, order=2)

    def test_direct_expansion(self):
        a = series(3, 1, order=2)
        b = series(1, 2, order=2)
        assert mc.ps_mul(a, b) == series(3, 7, 2, order=2)

    def test_truncates_to_min_order(self):
        a = series(1, 1, order=2)
        b = series(1, 1, 1, 1, 1, 1, order=5)
        assert mc.ps_mul(a, b).order == 2

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, a, b, c):
        assert mc.ps_mul(a, b) == mc.ps_mul(b, a)
        assert mc.ps_mul(mc.ps_mul(a, b), c) == mc.ps_mul(a, mc.ps_mul(b, c))
        assert mc.ps_mul(a, b + c) == mc.ps_mul(a, b) + mc.ps_mul(a, c)


class TestEulerDerivation:
    def test_kills_constants(self):
        assert mc.euler_derivation(series(1, order=3)).is_zero()

    def test_x_maps_to_x_squared(self):
        assert mc.euler_derivation(series(0, 1, order=1)) == \
            series(0, 0, 1, order=2)

    def test_termwise(self):
        a = series(0, 2, 0, 5, order=3)
        assert mc.euler_derivation(a) == series(0, 0, 2, 0, 15, order=4)

    def test_gains_one_order(self):
        a = series(0, 1, order=4)
        assert mc.euler_derivation(a).order == 5


class TestSolveEulerShifted:
    def test_euler_series(self):
        # (x^2 d/dx - 1) V = x has V = -sum (k-1)! x^k
        b = series(0, 1, order=8)
        v = mc.solve_euler_shifted(b, -1)
        expected = [0] + [-math.factorial(k - 1) for k in range(1, 9)]
        assert v == series(*expected, order=8)

    def test_mu_zero(self):
        b = series(0, 0, 1, order=2)
        assert mc.solve_euler_shifted(b, 0) == series(0, 1, order=1)

    def test_positive_shift_recursion(self):
        for n in (1, 2, 3):
            b = series(0, 1, order=7)
            v = mc.solve_euler_shifted(b, n)
            expected = [mc.cq(0)] + [
                mc.cq(Fraction((-1) ** (k - 1) * math.factorial(k - 1),
                               n ** k)) for k in range(1, 8)]
            assert v == TS(expected, 7)

    @pytest.mark.parametrize("mu", [-3, -2, -1, 1, 2, 3])
    def test_two_sided_inverse(self, mu):
        import random
        rng = random.Random(17 + mu)
        b = TS([mc.cq(0)] + [mc.cq(Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5)))
                             for _ in range(10)], 10)
        v = mc.solve_euler_shifted(b, mu)
        lhs = mc.euler_derivation(v).truncate(10) + v.scale(mu)
        assert lhs == b

    def test_two_sided_inverse_mu_zero(self):
        import random
        rng = random.Random(3)
        b = TS([mc.cq(0), mc.cq(0)] +
               [mc.cq(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(9)], 10)
        v = mc.solve_euler_shifted(b, 0)
        lhs = mc.euler_derivation(v).truncate(9) + v.scale(0)
        assert lhs == b.truncate(9)

    def test_rejects_constant_term(self):
        with pytest.raises(ConstantTermError):
            mc.solve_euler_shifted(series(1, 0, order=3), 2)

    def test_rejects_linear_term_when_mu_zero(self):
        with pytest.raises(IllPosedError):
            mc.solve_euler_shifted(series(0, 1, order=3), 0)


class TestZCorrespondence:
    def test_single_powers(self):
        z = mc.to_z_coeffs(series(0, 1, order=2))
        assert z.coefficient(1) == mc.cq(-1)
        assert z.coefficient(2) == mc.cq(0)
        z = mc.to_z_coeffs(series(0, 0, 1, order=2))
        assert z.coefficient(2) == mc.cq(1)

    def test_euler_series_signs(self):
        coeffs = [0] + [-math.factorial(k - 1) for k in range(1, 7)]
        z = mc.to_z_coeffs(series(*coeffs, order=6))
        for k in range(1, 7):
            assert z.coefficient(k) == \
                mc.cq((-1) ** (k + 1) * math.factorial(k - 1))

    def test_rejects_constant_term(self):
        with pytest.raises(ConstantTermError):
            mc.to_z_coeffs(series(2, 1, order=2))

    @settings(max_examples=40, deadline=None)
    @given(small_series)
    def test_round_trip(self, a):
        a = TS([mc.cq(0)] + list(a.coeffs[1:]), a.order)
        assert mc.to_z_coeffs(mc.to_z_coeffs(a)) == a

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series)
    def test_linear(self, a, b):
        k = min(a.order, b.order)
        a = TS([mc.cq(0)] + list(a.coeffs[1:k + 1]), k)
        b = TS([mc.cq(0)] + list(b.coeffs[1:k + 1]), k)
        za, zb, zs = (mc.to_z_coeffs(s) for s in (a, b, a + b))
        assert [x + y for x, y in zip(za.coeffs, zb.coeffs)] == list(zs.coeffs)


class TestValuation:
    def test_plain(self):
        assert series(0, 0, 3, order=5).valuation() == 2

    def test_zero_series_reports_none(self):
        assert series(0, 0, order=1).valuation() is None

    def test_truncate_refuses_extension(self):
        with pytest.raises(ValueError):
            series(1, order=2).truncate(5)


class TestSerialization:
    def test_json_round_trip(self):
        a = series(Fraction(1, 2), 0, (0, 1), order=3)
        assert TS.from_json(a.to_json()) == a

    def test_quad_layout(self):
        a = series(Fraction(-3, 4), order=0)
        assert a.to_json() == {"order": 0, "coeffs": [[-3, 4, 0, 1]]}
