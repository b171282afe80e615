"""The integer series kernels against the CQ reference kernels in
reference_kernels.py, on real and Gaussian-rational series of orders
0-8, and the canonical form of every result."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS

import reference_kernels as ref

fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))
real_scalars = fractions.map(mc.cq)
gaussian_scalars = st.builds(mc.cq, fractions, fractions)
scalars = st.one_of(real_scalars, gaussian_scalars)


def series_of(coeffs, min_order=0):
    return st.integers(min_order, 8).flatmap(
        lambda k: st.lists(coeffs, min_size=k + 1, max_size=k + 1).map(
            lambda cs: TS(cs, k)))


def without_constant(s):
    return TS([0, *s.coeffs[1:]], s.order)


series = st.one_of(series_of(real_scalars), series_of(gaussian_scalars))
x_series = series.map(without_constant)  # in xC[[x]]
mus = st.integers(-7, 7)

kernel_settings = settings(max_examples=150, deadline=None)


def parts(s):
    return list(s.coeffs), s.order


def assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert len(s.re) == s.order + 1
    assert all(type(c) is int for c in s.re)
    if s.im is None:
        assert gcd(s.den, *s.re) == 1
        assert all(c.im == 0 for c in s.coeffs)
    else:
        assert len(s.im) == s.order + 1
        assert all(type(c) is int for c in s.im)
        assert any(s.im)
        assert gcd(s.den, *s.re, *s.im) == 1


def assert_matches(got, expected):
    coeffs, order = expected
    assert_canonical(got)
    assert got.order == order
    assert list(got.coeffs) == list(coeffs)


class TestAgainstReference:
    @kernel_settings
    @given(series, series)
    def test_ps_mul(self, a, b):
        assert_matches(mc.ps_mul(a, b), ref.ps_mul(*parts(a), *parts(b)))

    @kernel_settings
    @given(series, series)
    def test_add_sub_neg(self, a, b):
        assert_matches(a + b, ref.add(*parts(a), *parts(b)))
        assert_matches(a - b, ref.sub(*parts(a), *parts(b)))
        assert_matches(-a, ref.scale(*parts(a), -1))

    @kernel_settings
    @given(series, st.one_of(st.integers(-30, 30), fractions, scalars))
    def test_scale(self, a, s):
        assert_matches(a.scale(s), ref.scale(*parts(a), s))

    @kernel_settings
    @given(series, st.data())
    def test_truncate_and_zero_pad(self, a, data):
        k = data.draw(st.integers(0, a.order))
        assert_matches(a.truncate(k), (list(a.coeffs[: k + 1]), k))
        k = data.draw(st.integers(a.order, 10))
        assert_matches(a.zero_pad(k), (
            list(a.coeffs) + [mc.cq(0)] * (k - a.order), k))

    @kernel_settings
    @given(series)
    def test_euler_derivation(self, a):
        assert_matches(mc.euler_derivation(a), ref.euler_derivation(*parts(a)))

    @kernel_settings
    @given(x_series, mus)
    def test_solve_euler_shifted(self, b, mu):
        if mu == 0:
            if b.order == 0:
                return
            b = TS([0, 0, *b.coeffs[2:]], b.order)
        assert_matches(mc.solve_euler_shifted(b, mu),
                       ref.solve_euler_shifted(*parts(b), mu))

    @kernel_settings
    @given(x_series, st.one_of(fractions, gaussian_scalars))
    def test_solve_euler_shifted_non_integer_mu(self, b, mu):
        c = mu if isinstance(mu, mc.CQ) else mc.cq(mu)
        if c.im == 0 and c.re.denominator == 1:
            return
        assert_matches(mc.solve_euler_shifted(b, mu),
                       ref.solve_euler_shifted(*parts(b), mu))

    @kernel_settings
    @given(x_series)
    def test_to_z_coeffs(self, a):
        assert_matches(mc.to_z_coeffs(a), ref.to_z_coeffs(*parts(a)))

    @kernel_settings
    @given(st.one_of(series_of(real_scalars, 1),
                     series_of(gaussian_scalars, 1)).map(without_constant))
    def test_borel(self, f):
        assert_matches(mc.borel(f), ref.borel(*parts(f)))

    @kernel_settings
    @given(series, series)
    def test_conv(self, f, g):
        assert_matches(mc.conv(f, g), ref.conv(*parts(f), *parts(g)))

    @kernel_settings
    @given(mus, series)
    def test_divide_by_zeta_minus(self, m, f):
        if m == 0:
            if f.order == 0:
                return
            f = without_constant(f)
        assert_matches(mc.divide_by_zeta_minus(m, f),
                       ref.divide_by_zeta_minus(m, *parts(f)))


class TestCanonicalForm:
    @kernel_settings
    @given(series, series)
    def test_equal_values_by_different_routes(self, a, b):
        if b.order < a.order:
            b = b.zero_pad(a.order)
        routes = [
            TS(a.coeffs, a.order),
            (a + b) - b,
            -(-a),
            a.scale(mc.cq(0, 1)).scale(mc.cq(0, -1)),
            a.scale(Fraction(7, 3)).scale(Fraction(3, 7)),
            a.zero_pad(a.order + 2).truncate(a.order),
            TS.from_quads(a.quads(), a.order),
            TS.from_json(a.to_json()),
        ]
        for r in routes:
            assert_canonical(r)
            assert r == a
            assert hash(r) == hash(a)

    @kernel_settings
    @given(series)
    def test_zero_and_quads(self, a):
        zero = a - a
        assert_canonical(zero)
        assert (zero.den, zero.im) == (1, None)
        assert zero == TS.zero(a.order) and zero.is_zero()
        assert hash(zero) == hash(TS.zero(a.order))
        assert a.quads() == [c.to_quad() for c in a.coeffs]

    @kernel_settings
    @given(series_of(gaussian_scalars))
    def test_imaginary_part_cancels_to_none(self, a):
        assert (a.scale(mc.cq(0, 1)) + a.scale(mc.cq(0, -1))).im is None
        real = a + TS([mc.cq(0, -c.im) for c in a.coeffs], a.order)
        assert_canonical(real)
        assert real == TS([c.re for c in a.coeffs], a.order)
