import itertools
import math
from fractions import Fraction

import pytest

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.errors import ComouldDomainError
from mouldcalc.normalisation import mould_expansion_apply
from mouldcalc.words import weight

from conftest import bivariate, random_field_suite


def words_up_to(support, max_len):
    for r in range(1, max_len + 1):
        yield from itertools.product(support, repeat=r)


class TestComouldApply:
    def test_lowering_letter(self):
        # B_{(-1)} y = 1
        got = mc.comould_apply((-1,), mc.y_monomial(1, 3))
        assert got == {0: TS.one(3)}

    def test_raising_letters(self):
        # B_{(1,1)} y = 2 y^3
        got = mc.comould_apply((1, 1), mc.y_monomial(1, 3))
        assert got == {3: TS.one(3).scale(2)}

    def test_neutral_letters(self):
        # B_{(0,0)} y = y
        got = mc.comould_apply((0, 0), mc.y_monomial(1, 3))
        assert got == {1: TS.one(3)}

    def test_empty_word_is_identity(self):
        f = {2: TS.monomial(1, 3), 0: TS.one(3)}
        assert mc.comould_apply((), f) == f

    def test_overshooting_letters_annihilate(self):
        # repeated lowering on a monomial bottoms out at zero, never
        # at a negative exponent
        assert mc.comould_apply((-1, -1, -1), {2: TS.one(2)}) == {}

    def test_negative_exponent_rejected(self):
        # an out-of-alphabet letter is the only way to drive the
        # exponent below zero
        with pytest.raises(ComouldDomainError):
            mc.comould_apply((-2,), mc.y_monomial(1, 2))

    def test_beta_consistency(self):
        # B_w y = beta(w) y^{weight + 1} for words of length <= 5
        for r in range(1, 6):
            for w in itertools.product((-1, 0, 1), repeat=r):
                try:
                    got = mc.comould_apply(w, mc.y_monomial(1, 2))
                except ComouldDomainError:
                    # only reachable when the symbolic result is zero
                    assert mc.beta(w) == 0, w
                    continue
                b = mc.beta(w)
                if b == 0:
                    assert got == {}, w
                else:
                    assert got == {weight(w) + 1: TS.one(2).scale(b)}, w

    def test_cosymmetrality_leibniz(self):
        """B_w(f g) = sum sh(w1, w2; w) (B_{w1} f)(B_{w2} g), the
        iterated Leibniz rule, on monomial pairs for words up to
        length 3."""
        x_order = 3
        monomials = {
            "y": mc.y_monomial(1, x_order),
            "y2": mc.y_monomial(2, x_order),
            "xy": mc.y_monomial(1, x_order, TS.monomial(1, x_order)),
        }

        def poly_mul(p, q):
            out = {}
            for k1, s1 in p.items():
                for k2, s2 in q.items():
                    term = mc.ps_mul(s1, s2)
                    k = k1 + k2
                    out[k] = out.get(k, TS.zero(term.order)) + term
            return {k: s for k, s in out.items() if not s.is_zero()}

        def poly_add(p, q, mult=1):
            out = dict(p)
            for k, s in q.items():
                out[k] = out.get(k, TS.zero(s.order)) + s.scale(mult)
            return {k: s for k, s in out.items() if not s.is_zero()}

        for w in words_up_to((-1, 0, 1), 3):
            r = len(w)
            for f in monomials.values():
                for g in monomials.values():
                    try:
                        lhs = mc.comould_apply(w, poly_mul(f, g))
                    except ComouldDomainError:
                        continue
                    rhs = {}
                    # split the positions of w between the two factors
                    for k in range(r + 1):
                        for pos in itertools.combinations(range(r), k):
                            w1 = tuple(w[i] for i in pos)
                            w2 = tuple(w[i] for i in range(r)
                                       if i not in pos)
                            term = poly_mul(mc.comould_apply(w1, f),
                                            mc.comould_apply(w2, g))
                            rhs = poly_add(rhs, term)
                    assert lhs == rhs, (w,)


class TestPhiComponents:
    def test_euler_phi0(self, euler_field):
        expected = TS([mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                                    for k in range(1, 11)], 10)
        assert mc.phi_n(euler_field, 0, 10) == expected

    def test_euler_higher_components_vanish(self, euler_field):
        mould = mc.solve_V(euler_field, 10)
        for n in range(1, 6):
            assert mc.phi_n(euler_field, n, 10, mould).is_zero()

    def test_single_raising_letter(self):
        # A = y + x y^2: phi_2 comes from the single word (1)
        f = mc.extract_letters(bivariate({(0, 1): 1, (1, 2): 1},
                                         x_order=1, y_order=2))
        expected = TS([mc.cq(0)] + [mc.cq((-1) ** (k - 1) *
                                          math.factorial(k - 1))
                                    for k in range(1, 9)], 8)
        assert mc.phi_n(f, 2, 8) == expected

    def test_euler_psi0_negates_phi0(self, euler_field):
        mould = mc.solve_V(euler_field, 10)
        assert mc.psi_n(euler_field, 0, 10, mould) == \
            -mc.phi_n(euler_field, 0, 10, mould)
        for n in range(1, 4):
            assert mc.psi_n(euler_field, n, 10, mould).is_zero()

    def test_trivial_field_all_zero(self, trivial_field):
        for n in range(4):
            assert mc.phi_n(trivial_field, n, 6).is_zero()
            assert mc.psi_n(trivial_field, n, 6).is_zero()

    def test_rejects_negative_component(self, euler_field):
        with pytest.raises(ValueError):
            mc.phi_n(euler_field, -1, 4)


class TestMouldExpansionApply:
    def test_affine_expansion_matches_phi(self, euler_field):
        # summing V^w B_w over the weight -1 words applied to y gives
        # the 0-component of the transformation
        V = mc.solve_V(euler_field, 8)
        words = mc.enumerate_words(0, 8, euler_field.support)
        got = mould_expansion_apply(V, words, mc.y_monomial(1, 8))
        assert got == {0: mc.phi_n(euler_field, 0, 8, V)}


class TestOraclePhi:
    def test_euler(self, euler_field):
        phi = mc.oracle_phi(euler_field, 3, 10)
        expected = TS([mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                                    for k in range(1, 11)], 10)
        assert phi.component(0) == expected
        for n in range(1, 4):
            assert phi.component(n).is_zero()

    def test_trivial(self, trivial_field):
        phi = mc.oracle_phi(trivial_field, 3, 8)
        for n in range(4):
            assert phi.component(n).is_zero()

    def test_single_raising_letter(self):
        f = mc.extract_letters(bivariate({(0, 1): 1, (1, 2): 1},
                                         x_order=1, y_order=2))
        phi = mc.oracle_phi(f, 3, 8)
        assert phi.component(0).is_zero()
        assert phi.component(1).is_zero()
        # phi_2 solves (x^2 d/dx + 1) phi_2 = x
        lhs = mc.euler_derivation(phi.component(2)).truncate(8) + \
            phi.component(2)
        assert lhs == TS.monomial(1, 8)

    def test_matches_mould_route(self, quadratic_field, cubic_field):
        for f in (quadratic_field, cubic_field):
            oracle = mc.oracle_phi(f, 4, 6)
            mould = mc.solve_V(f, 6)
            for n in range(5):
                assert mc.phi_n(f, n, 6, mould) == oracle.component(n), n


class TestComposeCheck:
    def test_identity_pair(self):
        phi = mc.PhiSeries({}, 4)
        assert mc.compose_check(phi, phi, 4, 3).is_zero()

    def test_euler_affine_pair(self, euler_field):
        phi = mc.assemble_phi(euler_field, 2, 8)
        psi = mc.assemble_phi(euler_field, 2, 8, inverse=True)
        assert mc.compose_check(phi, psi, 8, 2).is_zero()

    def test_fixed_field_composition(self, quadratic_field):
        x_order, y_order = 6, 4
        n_max = mc.components_needed(quadratic_field, x_order, y_order)
        mould = mc.solve_V(quadratic_field, x_order)
        phi = mc.assemble_phi(quadratic_field, n_max, x_order, mould)
        psi = mc.assemble_phi(quadratic_field, n_max, x_order, mould,
                              inverse=True)
        assert mc.compose_check(phi, psi, x_order, y_order).is_zero()
        assert mc.compose_check(psi, phi, x_order, y_order).is_zero()

    def test_broken_pair_detected(self, euler_field):
        phi = mc.assemble_phi(euler_field, 1, 6)
        bad = mc.PhiSeries({0: phi.component(0)}, 6)  # psi = phi here
        assert not mc.compose_check(phi, bad, 6, 1).is_zero()


class TestComponentsNeeded:
    def test_nonpositive_support_stops_at_y_order(self, euler_field):
        assert mc.components_needed(euler_field, 8, 6) == 6

    def test_empty_support(self, trivial_field):
        assert mc.components_needed(trivial_field, 8, 6) == 6

    def test_grows_with_x_order(self, quadratic_field):
        a = mc.components_needed(quadratic_field, 4, 4)
        b = mc.components_needed(quadratic_field, 8, 4)
        assert 4 <= a <= b

    def test_bound_is_sufficient(self, quadratic_field):
        # one extra component beyond the bound must not change the
        # composition residual
        x_order, y_order = 5, 3
        n_max = mc.components_needed(quadratic_field, x_order, y_order)
        mould = mc.solve_V(quadratic_field, x_order)
        phi = mc.assemble_phi(quadratic_field, n_max + 1, x_order, mould)
        psi = mc.assemble_phi(quadratic_field, n_max + 1, x_order, mould,
                              inverse=True)
        assert mc.compose_check(phi, psi, x_order, y_order).is_zero()


class TestModifiedValuation:
    def test_summability_bound(self, quadratic_field):
        """nu(V^w B_w f) >= nu(f) + weight(w) + 2 r(w) with
        nu(x^m y^n) = 4 m + n, on monomials f = y^j."""
        x_order = 5
        V = mc.solve_V(quadratic_field, x_order)
        for w in words_up_to(quadratic_field.support, 3):
            v = V.value(w)
            xval = v.valuation()
            if xval is None:
                continue
            for j in (1, 2, 3):
                try:
                    applied = mc.comould_apply(
                        w, mc.y_monomial(j, x_order))
                except ComouldDomainError:
                    continue
                for k, s in applied.items():
                    term = mc.ps_mul(v, s)
                    tval = term.valuation()
                    if tval is None:
                        continue
                    nu = 4 * tval + k
                    assert nu >= j + weight(w) + 2 * len(w), (w, j, k)


class TestFormalIntegral:
    def test_trivial(self, trivial_field):
        phi = mc.PhiSeries({n: TS.zero(9) for n in range(4)}, 9)
        res = mc.formal_integral_residual(trivial_field, phi, 3, 8)
        assert all(all(not c for c in row) for row in res.values())

    def test_euler(self, euler_field):
        phi = mc.assemble_phi(euler_field, 4, 9)
        res = mc.formal_integral_residual(euler_field, phi, 4, 8)
        assert all(all(not c for c in row) for row in res.values())

    def test_perturbed_detected(self, euler_field):
        phi = mc.assemble_phi(euler_field, 4, 9)
        coeffs = list(phi.component(0).coeffs)
        coeffs[2] = coeffs[2] + mc.cq(1)
        bad = mc.PhiSeries(
            {n: (TS(coeffs, 9) if n == 0 else phi.component(n))
             for n in range(5)}, 9)
        res = mc.formal_integral_residual(euler_field, bad, 4, 8)
        assert any(c for c in res[0])

    def test_random_field(self):
        field = random_field_suite(count=1, seed=99)[0]
        n_max = 4
        phi = mc.assemble_phi(field, n_max, 9)
        res = mc.formal_integral_residual(field, phi, n_max, 8)
        assert all(all(not c for c in row) for row in res.values())
