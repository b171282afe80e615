"""Acceptance gate: thirteen exact-equality criteria, one reported
pass/fail line each.  Criteria with a stated runtime budget assert it.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.words import weight

from conftest import bivariate, random_field_suite


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # lets _report print past pytest's output capture, so the run
    # shows one pass/fail line per criterion
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num, title, ok, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s"
        timing += f" < {budget}s]" if budget is not None else "]"
    line = f"{status} criterion {num:2d}: {title}{timing}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num} failed: {title}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def euler_field():
    return mc.extract_letters(
        bivariate({(1, 0): 1, (0, 1): 1}, x_order=1, y_order=1))


def quadratic_test_field():
    return mc.extract_letters(
        bivariate({(0, 1): 1, (1, 0): 1, (2, 1): 1, (1, 2): 1, (2, 3): 1},
                  x_order=2, y_order=3))


def cubic_test_field():
    return mc.extract_letters(
        bivariate({(0, 1): 1, (2, 0): Fraction(1, 2),
                   (1, 2): Fraction(-2, 3), (3, 3): Fraction(1, 5)},
                  x_order=3, y_order=3))


def words_up_to(support, max_len, include_empty=False):
    out = [()] if include_empty else []
    for r in range(1, max_len + 1):
        out.extend(itertools.product(support, repeat=r))
    return out


def test_criterion_01_euler_closed_form():
    start = time.perf_counter()
    f = euler_field()
    mould = mc.solve_V(f, 25)
    phi0 = mc.phi_n(f, 0, 25, mould)
    ok = phi0 == TS([mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                                  for k in range(1, 26)], 25)
    for n in range(1, 6):
        ok = ok and mc.phi_n(f, n, 25, mould).is_zero()
    elapsed = time.perf_counter() - start
    _report(1, "Euler phi_0 = -(k-1)! x^k and phi_1..5 = 0 at order 25",
            ok, elapsed, 1)


def test_criterion_02_euler_borel_signature():
    start = time.perf_counter()
    f = euler_field()
    poly = mc.borel_phi_n(f, 0, 24)
    ok = list(poly.coeffs) == [mc.cq((-1) ** n) for n in range(25)]
    elapsed = time.perf_counter() - start
    _report(2, "Euler Borel coefficients are exactly (-1)^n, n = 0..24",
            ok, elapsed, 1)


def test_criterion_03_symmetrality():
    start = time.perf_counter()
    f = quadratic_test_field()
    V = mc.solve_V(f, 10)
    support = (-1, 0, 1, 2)
    ok = True
    ws = words_up_to(support, 4)
    for w1 in ws:
        for w2 in ws:
            if len(w1) + len(w2) > 5:
                continue
            if not mc.check_symmetral(V, w1, w2).is_zero():
                ok = False
    elapsed = time.perf_counter() - start
    _report(3, "shuffle identity for all pairs r1+r2 <= 5 over "
               "{-1,0,1,2} at x-order 10", ok, elapsed, 60)


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for field in random_field_suite():
        oracle = mc.oracle_phi(field, 4, 8)
        mould = mc.solve_V(field, 8)
        for n in range(5):
            if mc.phi_n(field, n, 8, mould) != oracle.component(n):
                ok = False
    elapsed = time.perf_counter() - start
    _report(4, "mould expansion equals PDE oracle for 20 random fields, "
               "n <= 4, x-order 8", ok, elapsed, 120)


def test_criterion_05_valuation_bound():
    f = mc.extract_letters(
        bivariate({(0, 1): 1, (1, 0): 1, (2, 1): 1, (1, 2): 1},
                  x_order=2, y_order=2))
    assert f.support == (-1, 0, 1)
    V = mc.solve_V(f, 6)
    ok = True
    for w in words_up_to((-1, 0, 1), 6):
        v = V.value(w).valuation()
        if v is not None and v < math.ceil(len(w) / 2):
            ok = False
    _report(5, "val(V^w) >= ceil(r/2) for all words of length <= 6 "
               "over {-1,0,1}", ok)


def test_criterion_06_mould_inverse():
    f = quadratic_test_field()
    V = mc.solve_V(f, 8)
    sym = mc.symmetral_inverse(V)
    prod = mc.mould_mul(V, sym)
    unit = mc.unit_mould(8)
    ok = all(prod.value(w) == unit.value(w)
             for w in words_up_to(f.support, 5, include_empty=True))
    gen = mc.mould_inverse(V)
    ok = ok and all(sym.value(w) == gen.value(w)
                    for w in words_up_to(f.support, 4, include_empty=True))
    _report(6, "V x symmetral_inverse(V) = Unit (r <= 5) and "
               "symmetral_inverse = mould_inverse (r <= 4)", ok)


def test_criterion_07_mould_equation():
    ok = True
    for field in (quadratic_test_field(), cubic_test_field()):
        V = mc.solve_V(field, 8)
        for w in words_up_to(field.support, 5):
            if not mc.residual_mould_equation(V, field, w).is_zero():
                ok = False
    _report(7, "mould equation residual zero on all words r <= 5 for "
               "two distinct fields, via mould_mul", ok)


def test_criterion_08_cosymmetrality():
    x_order = 4
    monomials = (mc.y_monomial(1, x_order), mc.y_monomial(2, x_order),
                 mc.y_monomial(1, x_order, TS.monomial(1, x_order)))

    def poly_mul(p, q):
        out = {}
        for k1, s1 in p.items():
            for k2, s2 in q.items():
                term = mc.ps_mul(s1, s2)
                out[k1 + k2] = out.get(k1 + k2, TS.zero(term.order)) + term
        return {k: s for k, s in out.items() if not s.is_zero()}

    def poly_add(p, q):
        out = dict(p)
        for k, s in q.items():
            out[k] = out.get(k, TS.zero(s.order)) + s
        return {k: s for k, s in out.items() if not s.is_zero()}

    ok = True
    for w in words_up_to((-1, 0, 1), 3):
        r = len(w)
        for fm in monomials:
            for gm in monomials:
                lhs = mc.comould_apply(w, poly_mul(fm, gm))
                rhs = {}
                for k in range(r + 1):
                    for pos in itertools.combinations(range(r), k):
                        w1 = tuple(w[i] for i in pos)
                        w2 = tuple(w[i] for i in range(r) if i not in pos)
                        rhs = poly_add(rhs, poly_mul(
                            mc.comould_apply(w1, fm),
                            mc.comould_apply(w2, gm)))
                if lhs != rhs:
                    ok = False
    _report(8, "iterated-Leibniz shuffle identity for B_w on monomial "
               "pairs, r <= 3 over {-1,0,1}", ok)


def test_criterion_09_beta_consistency():
    ok = True
    for r in range(1, 6):
        for w in itertools.product((-1, 0, 1), repeat=r):
            b = mc.beta(w)
            applied = mc.comould_apply(w, mc.y_monomial(1, 2))
            if b == 0:
                ok = ok and applied == {}
            else:
                ok = ok and applied == {weight(w) + 1: TS.one(2).scale(b)}
            if weight(w) <= -2 and b != 0:
                ok = False
    _report(9, "B_w y = beta(w) y^{|w|+1} for r <= 5 and beta = 0 "
               "whenever |w| <= -2", ok)


def test_criterion_10_composition_identity():
    x_order, y_order = 8, 6
    ok = True
    for field in random_field_suite():
        n_max = mc.components_needed(field, x_order, y_order)
        mould = mc.solve_V(field, x_order)
        phi = mc.assemble_phi(field, n_max, x_order, mould)
        psi = mc.assemble_phi(field, n_max, x_order, mould, inverse=True)
        if not mc.compose_check(phi, psi, x_order, y_order).is_zero():
            ok = False
    _report(10, "phi(x, psi(x, y)) = y at orders (x: 8, y: 6) for the "
                "random-field suite", ok)


def test_criterion_11_borel_route_equivalence():
    f = quadratic_test_field()
    zeta_order = 5
    V = mc.solve_V(f, zeta_order + 1)
    ok = True
    for w in words_up_to(f.support, 4):
        direct = mc.borel_V(f, w, zeta_order)
        via_x = mc.borel(mc.to_z_coeffs(V.value(w))).truncate(zeta_order)
        if direct != via_x:
            ok = False
    rng = random.Random(2026)
    for _ in range(50):
        order = rng.randint(2, 8)
        a = TS([0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(order)], order)
        b = TS([0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(order)], order)
        prod = [mc.cq(0)] * (order + 1)
        for i in range(1, order + 1):
            for j in range(1, order + 1 - i):
                prod[i + j] = prod[i + j] + a.coeffs[i] * b.coeffs[j]
        lhs = mc.borel(TS(prod, order))
        rhs = mc.conv(mc.borel(a), mc.borel(b))
        k = min(lhs.order, rhs.order)
        if lhs.truncate(k) != rhs.truncate(k):
            ok = False
    _report(11, "borel_V equals the x-route on words r <= 4 and "
                "borel(f g) = conv on 50 random pairs", ok)


def test_criterion_12_summability_finiteness():
    ok = True
    for delta in range(9):
        expected = set()
        if delta >= 0:
            expected.add(())
        for r in range(1, max(delta, 0) + 1):
            top = delta - 2 * r + (r - 1)
            for w in itertools.product(range(-1, top + 1), repeat=r):
                if weight(w) + 2 * r <= delta:
                    expected.add(w)
        if set(mc.enumerate_bounded_weight(delta)) != expected:
            ok = False
    # monomial-level bound nu(V^w B_w f) >= nu(f) + |w| + 2r with
    # nu(x^m y^n) = 4m + n
    f = quadratic_test_field()
    V = mc.solve_V(f, 5)
    for w in words_up_to(f.support, 3):
        v = V.value(w)
        if v.valuation() is None:
            continue
        for j in (1, 2, 3):
            for k, s in mc.comould_apply(w, mc.y_monomial(j, 5)).items():
                tval = mc.ps_mul(v, s).valuation()
                if tval is None:
                    continue
                if 4 * tval + k < j + weight(w) + 2 * len(w):
                    ok = False
    _report(12, "enumerate_bounded_weight matches brute force (delta "
                "<= 8) and the 4m+n valuation bound holds", ok)


def test_criterion_13_formal_integral():
    u_order, z_order = 4, 8
    ok = True
    for field in (euler_field(), random_field_suite()[0]):
        phi = mc.assemble_phi(field, u_order, z_order + 1)
        res = mc.formal_integral_residual(field, phi, u_order, z_order)
        if not all(all(not c for c in row) for row in res.values()):
            ok = False
    _report(13, "formal-integral residual vanishes to (u <= 4, "
                "z <= 8) for Euler and a random field", ok)
