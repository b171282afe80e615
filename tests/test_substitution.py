"""The substitution checks built on y_compose, against the CQ routes in
reference_kernels.py, and their independence from the mould route."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc import moulds, normalisation

import reference_kernels as ref

fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6))
scalars = st.one_of(fractions.map(mc.cq), st.builds(mc.cq, fractions,
                                                    fractions))


def x_series(max_order):
    """Series in xC[[x]] of order 0..max_order."""
    return st.integers(0, max_order).flatmap(
        lambda k: st.lists(scalars, min_size=k, max_size=k).map(
            lambda cs: TS([0, *cs], k)))


# components of order below the box's x-order are zero-padded
phi_series = st.builds(
    mc.PhiSeries,
    st.dictionaries(st.integers(0, 3), x_series(5), max_size=3),
    st.integers(0, 5))
fields = st.builds(
    mc.BivariateSeries,
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                    scalars, max_size=5),
    st.integers(0, 4), st.integers(0, 3))
boxes = st.tuples(st.integers(0, 5), st.integers(0, 3))

substitution_settings = settings(max_examples=100, deadline=None)


class TestAgainstReference:
    @substitution_settings
    @given(fields, phi_series, boxes)
    def test_substitute_phi(self, A, phi, box):
        got = mc.substitute_phi(A, phi, *box)
        assert got == mc.BivariateSeries(ref.substitute_phi(A, phi, box),
                                         *box)

    @substitution_settings
    @given(fields, phi_series)
    def test_substitute_phi_default_box(self, A, phi):
        box = (min(A.x_order, phi.x_order), A.y_order)
        assert mc.substitute_phi(A, phi) == mc.BivariateSeries(
            ref.substitute_phi(A, phi, box), *box)

    @substitution_settings
    @given(fields, phi_series, boxes)
    def test_pde_residual(self, A, phi, box):
        got = mc.pde_residual(A, phi, *box)
        assert got == mc.BivariateSeries(ref.pde_residual(A, phi, box),
                                         *box)

    @substitution_settings
    @given(phi_series, phi_series, boxes)
    def test_compose_check(self, phi, psi, box):
        got = mc.compose_check(phi, psi, *box)
        assert got == mc.BivariateSeries(ref.compose_check(phi, psi, box),
                                         *box)


def test_checks_independent_of_mould_route(monkeypatch, quadratic_field):
    """oracle_phi, compose_check, pde_residual and formal_integral_residual
    give their results with the solver, Mould.value and component_sums
    unavailable."""
    x_order, y_order = 5, 3
    n_max = mc.components_needed(quadratic_field, x_order, y_order)
    mould = mc.solve_V(quadratic_field, x_order)
    phi = mc.assemble_phi(quadratic_field, n_max, x_order, mould)
    psi = mc.assemble_phi(quadratic_field, n_max, x_order, mould,
                          inverse=True)

    def refuse(*args, **kwargs):
        raise RuntimeError("a check called the mould route")

    monkeypatch.setattr(moulds, "solve_V", refuse)
    monkeypatch.setattr(normalisation, "solve_V", refuse)
    monkeypatch.setattr(moulds.Mould, "value", refuse)
    monkeypatch.setattr(normalisation, "component_sums", refuse)

    oracle = mc.oracle_phi(quadratic_field, n_max, x_order)
    assert all(oracle.component(n) == phi.component(n)
               for n in range(n_max + 1))
    assert mc.compose_check(phi, psi, x_order, y_order).is_zero()
    A = quadratic_field.to_bivariate(x_order, y_order)
    assert mc.pde_residual(A, phi, x_order, y_order).is_zero()
    res = mc.formal_integral_residual(quadratic_field, phi, y_order,
                                      x_order - 1)
    assert all(not c for row in res.values() for c in row)
