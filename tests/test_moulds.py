import itertools
import math
from fractions import Fraction

import pytest

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.errors import NonInvertibleMouldError
from mouldcalc.moulds import constant_mould, mould_from_dict
from mouldcalc.normalisation import comould_apply, y_monomial
from mouldcalc.words import weight


def words_up_to(support, max_len, include_empty=False):
    out = [()] if include_empty else []
    for r in range(1, max_len + 1):
        out.extend(itertools.product(support, repeat=r))
    return out


def random_mould(x_order, seed):
    import random
    rng = random.Random(seed)
    table = {}
    for w in words_up_to((-1, 0, 1), 4, include_empty=True):
        coeffs = [mc.cq(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                  for _ in range(x_order + 1)]
        table[w] = TS(coeffs, x_order)
    return mould_from_dict(x_order, table)


class TestMouldMul:
    def test_unit_neutral(self):
        M = random_mould(4, seed=1)
        U = mc.unit_mould(4)
        for w in words_up_to((-1, 0, 1), 3, include_empty=True):
            assert mc.mould_mul(M, U).value(w) == M.value(w)
            assert mc.mould_mul(U, M).value(w) == M.value(w)

    def test_length_one_splittings(self):
        M, N = random_mould(3, seed=2), random_mould(3, seed=3)
        P = mc.mould_mul(M, N)
        w = (1,)
        expected = mc.ps_mul(M.value(()), N.value(w)) + \
            mc.ps_mul(M.value(w), N.value(()))
        assert P.value(w) == expected

    def test_length_two_splittings(self):
        M, N = random_mould(3, seed=4), random_mould(3, seed=5)
        P = mc.mould_mul(M, N)
        a, b = (0,), (1,)
        expected = mc.ps_mul(M.value(()), N.value((0, 1))) + \
            mc.ps_mul(M.value(a), N.value(b)) + \
            mc.ps_mul(M.value((0, 1)), N.value(()))
        assert P.value((0, 1)) == expected

    def test_associative(self):
        M = random_mould(3, seed=6)
        N = random_mould(3, seed=7)
        P = random_mould(3, seed=8)
        left = mc.mould_mul(mc.mould_mul(M, N), P)
        right = mc.mould_mul(M, mc.mould_mul(N, P))
        for w in words_up_to((-1, 0, 1), 4, include_empty=True):
            assert left.value(w) == right.value(w)

    def test_incompatible_orders(self):
        with pytest.raises(ValueError):
            mc.mould_mul(mc.unit_mould(3), mc.unit_mould(4))


class TestMouldFromDict:
    def test_values_at_x_order(self):
        f = TS([mc.cq(0), mc.cq(2), mc.cq(-1), mc.cq(5)], 3)
        M = mould_from_dict(2, {(1,): f})
        assert M.value((1,)) == f.truncate(2)
        with pytest.raises(ValueError, match="from order 3 to 4"):
            mould_from_dict(4, {(1,): f})


class TestMouldInverse:
    def test_unit_self_inverse(self):
        U = mc.unit_mould(3)
        inv = mc.mould_inverse(U)
        for w in words_up_to((0, 1), 3, include_empty=True):
            assert inv.value(w) == U.value(w)

    def test_single_letter_support(self):
        # M^empty = 1, M^{(a)} = f, rest 0:
        # inverse is -f on (a) and f*f on (a, a)
        f = TS([mc.cq(0), mc.cq(2), mc.cq(-1), mc.cq(0)], 3)
        M = mould_from_dict(3, {(): TS.one(3), (1,): f})
        inv = mc.mould_inverse(M)
        assert inv.value((1,)) == -f
        assert inv.value((1, 1)) == mc.ps_mul(f, f)

    def test_two_sided(self):
        M = random_mould(3, seed=9)
        inv = mc.mould_inverse(M)
        U = mc.unit_mould(3)
        left = mc.mould_mul(inv, M)
        right = mc.mould_mul(M, inv)
        for w in words_up_to((-1, 0, 1), 5, include_empty=True):
            assert left.value(w) == U.value(w)
            assert right.value(w) == U.value(w)

    def test_j_a_not_invertible(self, euler_field):
        with pytest.raises(NonInvertibleMouldError):
            mc.mould_inverse(mc.j_a_mould(euler_field, 4))


class TestSymmetralInverse:
    def test_single_letter_negates(self):
        M = random_mould(3, seed=10)
        assert mc.symmetral_inverse(M).value((1,)) == -M.value((1,))

    def test_double_letter_reverses(self):
        M = random_mould(3, seed=11)
        assert mc.symmetral_inverse(M).value((0, 1)) == M.value((1, 0))

    def test_agrees_with_mould_inverse_on_solver(self, quadratic_field):
        V = mc.solve_V(quadratic_field, 6)
        sym = mc.symmetral_inverse(V)
        gen = mc.mould_inverse(V)
        for w in words_up_to(quadratic_field.support, 4,
                             include_empty=True):
            assert sym.value(w) == gen.value(w), w


class TestJaMould:
    def test_euler_letter(self, euler_field):
        ja = mc.j_a_mould(euler_field, 3)
        assert ja.value((-1,)) == TS.monomial(1, 3)

    def test_zero_off_length_one(self, euler_field):
        ja = mc.j_a_mould(euler_field, 3)
        assert ja.value(()).is_zero()
        assert ja.value((0, 1)).is_zero()


class TestNabla:
    def test_empty_word(self):
        M = constant_mould(3)
        assert mc.nabla(M).value(()).is_zero()

    def test_scales_by_weight(self):
        M = random_mould(3, seed=12)
        N = mc.nabla(M)
        assert N.value((2,)) == M.value((2,)).scale(2)
        assert N.value((-1, -1)) == M.value((-1, -1)).scale(-2)


class TestSolveV:
    def test_empty_word_is_one(self, euler_field):
        assert mc.solve_V(euler_field, 5).value(()) == TS.one(5)

    def test_euler_word(self, euler_field):
        V = mc.solve_V(euler_field, 8)
        expected = TS([mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                                    for k in range(1, 9)], 8)
        assert V.value((-1,)) == expected

    def test_positive_letter_word(self):
        # a_1 = x: (x^2 d_x + 1) V = x gives the alternating factorials
        from conftest import bivariate
        f = mc.extract_letters(bivariate({(0, 1): 1, (1, 2): 1},
                                         x_order=1, y_order=2))
        V = mc.solve_V(f, 8)
        expected = TS([mc.cq(0)] + [mc.cq((-1) ** (k - 1) *
                                          math.factorial(k - 1))
                                    for k in range(1, 9)], 8)
        assert V.value((1,)) == expected

    def test_values_in_x_ideal(self, quadratic_field):
        V = mc.solve_V(quadratic_field, 5)
        for w in words_up_to(quadratic_field.support, 3):
            assert not V.value(w).constant_term()

    def test_valuation_bound(self, quadratic_field):
        V = mc.solve_V(quadratic_field, 8)
        for w in words_up_to(quadratic_field.support, 4):
            v = V.value(w).valuation()
            assert v is None or v >= math.ceil(len(w) / 2), w

    def test_deterministic_reevaluation(self, cubic_field):
        V = mc.solve_V(cubic_field, 6)
        w = (0, 1, -1)
        assert V.value(w) == V.value(w)


class TestCheckSymmetral:
    def test_solver_square_relation(self, quadratic_field):
        # (V^{(0)})^2 = 2 V^{(0,0)}
        V = mc.solve_V(quadratic_field, 8)
        assert mc.check_symmetral(V, (0,), (0,)).is_zero()
        v0 = V.value((0,))
        assert mc.ps_mul(v0, v0) == V.value((0, 0)).scale(2)

    def test_constant_mould_fails(self):
        M = constant_mould(4)
        res = mc.check_symmetral(M, (1,), (2,))
        assert res == TS.one(4)

    def test_solver_pairs(self, cubic_field):
        V = mc.solve_V(cubic_field, 6)
        ws = words_up_to(cubic_field.support, 2)
        for w1, w2 in itertools.product(ws, ws):
            if len(w1) + len(w2) <= 4:
                assert mc.check_symmetral(V, w1, w2).is_zero(), (w1, w2)


class TestCheckAlternal:
    def test_j_a_alternal(self, quadratic_field):
        ja = mc.j_a_mould(quadratic_field, 5)
        ws = words_up_to(quadratic_field.support, 2)
        for w1, w2 in itertools.product(ws, ws):
            assert mc.check_alternal(ja, w1, w2).is_zero()

    def test_solver_not_alternal(self, quadratic_field):
        V = mc.solve_V(quadratic_field, 6)
        res = mc.check_alternal(V, (0,), (0,))
        assert res == V.value((0, 0)).scale(2)
        assert not res.is_zero()


class TestMouldEquation:
    def test_solver_satisfies_equation(self, quadratic_field):
        V = mc.solve_V(quadratic_field, 6)
        for w in words_up_to(quadratic_field.support, 3):
            assert mc.residual_mould_equation(
                V, quadratic_field, w).is_zero(), w

    def test_euler_single_word(self, euler_field):
        V = mc.solve_V(euler_field, 8)
        assert mc.residual_mould_equation(V, euler_field, (-1,)).is_zero()

    def test_perturbed_value_detected(self, euler_field):
        V = mc.solve_V(euler_field, 6)
        table = {w: V.value(w)
                 for w in words_up_to((-1,), 3, include_empty=True)}
        table[(-1,)] = table[(-1,)] + TS.monomial(2, 6)
        W = mould_from_dict(6, table)
        assert not mc.residual_mould_equation(
            W, euler_field, (-1,)).is_zero()

    def test_rejects_empty_word(self, euler_field):
        V = mc.solve_V(euler_field, 4)
        with pytest.raises(ValueError):
            mc.residual_mould_equation(V, euler_field, ())


class TestOperatorCommutator:
    def test_derivation_commutator_identity(self, quadratic_field):
        """[x^2 d_x + y d_y, sum M^w B_w] acting on a monomial equals
        the expansion of x^2 d_x M + nabla(M) acting on it, for a
        finitely supported mould."""
        x_order = 6
        support = quadratic_field.support
        ws = words_up_to(support, 2)
        M = random_mould(x_order, seed=13)
        table = {w: M.value(w) for w in ws}
        M = mould_from_dict(x_order, table)
        dM = mould_from_dict(
            x_order,
            {w: (mc.euler_derivation(table[w]).truncate(x_order)
                 + table[w].scale(weight(w))) for w in ws})

        def x0_apply(p):
            # X_0 = x^2 d_x + y d_y on a y-polynomial
            out = {}
            for k, s in p.items():
                t = mc.euler_derivation(s).truncate(x_order) + s.scale(k)
                if not t.is_zero():
                    out[k] = out.get(k, TS.zero(x_order)) + t
            return out

        def expansion(mould, p):
            out = {}
            for w in ws:
                coeff = mould.value(w)
                if coeff.is_zero():
                    continue
                for k, s in comould_apply(w, p).items():
                    term = mc.ps_mul(coeff, s)
                    out[k] = out.get(k, TS.zero(x_order)) + term
            return {k: s for k, s in out.items() if not s.is_zero()}

        for mono in (y_monomial(1, x_order), y_monomial(2, x_order),
                     y_monomial(1, x_order, TS.monomial(1, x_order))):
            lhs_a = x0_apply(expansion(M, mono))
            lhs_b = expansion(M, x0_apply(mono))
            commutator = {k: lhs_a.get(k, TS.zero(x_order))
                          - lhs_b.get(k, TS.zero(x_order))
                          for k in set(lhs_a) | set(lhs_b)}
            commutator = {k: s for k, s in commutator.items()
                          if not s.is_zero()}
            rhs = expansion(dM, mono)
            # compare at one order below: x^2 d_x loses the top order
            # when truncated back to x_order
            for k in set(commutator) | set(rhs):
                a = commutator.get(k, TS.zero(x_order)).truncate(x_order - 1)
                b = rhs.get(k, TS.zero(x_order)).truncate(x_order - 1)
                assert a == b, (mono, k)
