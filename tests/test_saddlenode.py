import json
from fractions import Fraction

import pytest

import mouldcalc as mc
from mouldcalc import TruncatedSeries as TS
from mouldcalc.errors import FieldValidationError

from conftest import bivariate


class TestExtractLetters:
    def test_euler(self, euler_field):
        # A = x + y: the only letter is a_{-1} = x
        assert euler_field.support == (-1,)
        assert euler_field.letter_series(-1, 3) == \
            TS([mc.cq(0), mc.cq(1), mc.cq(0), mc.cq(0)], 3)

    def test_trivial(self, trivial_field):
        assert trivial_field.support == ()

    def test_single_quadratic_letter(self):
        # A = y + x^2 y^2: a_1 = x^2, others zero
        f = mc.extract_letters(bivariate({(0, 1): 1, (2, 2): 1},
                                         x_order=2, y_order=2))
        assert f.support == (1,)
        assert f.letter_series(1, 2) == TS([mc.cq(0), mc.cq(0), mc.cq(1)], 2)

    def test_rejects_wrong_constant_slice(self):
        A = bivariate({(0, 1): 1, (0, 2): 1}, x_order=1, y_order=2)
        with pytest.raises(FieldValidationError) as exc:
            mc.extract_letters(A)
        assert "A(0, y) = y" in str(exc.value)

    def test_rejects_missing_linear_term(self):
        A = bivariate({(1, 0): 1}, x_order=1, y_order=1)
        with pytest.raises(FieldValidationError) as exc:
            mc.extract_letters(A)
        assert "A(0, y) = y" in str(exc.value)

    def test_rejects_mixed_xy_term(self):
        A = bivariate({(0, 1): 1, (1, 1): 1}, x_order=1, y_order=1)
        with pytest.raises(FieldValidationError) as exc:
            mc.extract_letters(A)
        assert "d2A/dxdy(0, 0) = 0" in str(exc.value)

    def test_repair_zeroes_offending_terms(self):
        A = bivariate({(0, 2): 1, (1, 1): 1, (1, 0): 1},
                      x_order=1, y_order=2)
        f = mc.extract_letters(A, repair=True)
        # only a_{-1} = x survives the repair
        assert f.support == (-1,)
        assert f.letter_series(-1, 1) == TS([mc.cq(0), mc.cq(1)], 1)

    def test_reassembly_roundtrip(self, quadratic_field):
        A = bivariate({(0, 1): 1, (1, 0): 1, (2, 1): 1, (1, 2): 1,
                       (2, 3): 1}, x_order=2, y_order=3)
        assert quadratic_field.to_bivariate(2, 3) == A

    def test_reassembly_roundtrip_single_letter(self):
        # A = y + 2x: support (-1,), whose y_order must still keep y
        A = bivariate({(0, 1): 1, (1, 0): 2}, x_order=1, y_order=1)
        assert mc.extract_letters(A).to_bivariate() == A

    def test_reassembly_roundtrip_rational(self, cubic_field):
        A = bivariate({(0, 1): 1, (2, 0): Fraction(1, 2),
                       (1, 2): Fraction(-2, 3), (3, 3): Fraction(1, 5)},
                      x_order=3, y_order=3)
        assert cubic_field.to_bivariate(3, 3) == A


class TestSubstitutePhi:
    def test_identity_component(self):
        # A = y: substitution returns phi(x, y) itself
        A = bivariate({(0, 1): 1}, x_order=3, y_order=2)
        phi0 = TS([mc.cq(0), mc.cq(2), mc.cq(-1), mc.cq(0)], 3)
        phi = mc.PhiSeries({0: phi0}, 3)
        got = mc.substitute_phi(A, phi, 3, 2)
        assert got == phi.to_bivariate(3, 2)

    def test_square_binomial(self):
        # A = y^2, phi = y + phi_0: expect y^2 + 2 phi_0 y + phi_0^2
        A = bivariate({(0, 2): 1}, x_order=4, y_order=2)
        phi0 = TS([mc.cq(0), mc.cq(1), mc.cq(3), mc.cq(0), mc.cq(0)], 4)
        phi = mc.PhiSeries({0: phi0}, 4)
        got = mc.substitute_phi(A, phi, 4, 2)
        sq = mc.ps_mul(phi0, phi0)
        expected = {(0, 2): mc.cq(1)}
        for m in range(1, 5):
            if phi0.coeffs[m]:
                expected[(m, 1)] = phi0.coeffs[m] * mc.cq(2)
            if sq.coeffs[m]:
                expected[(m, 0)] = sq.coeffs[m]
        assert got == mc.BivariateSeries(expected, 4, 2)

    def test_euler_affine(self, euler_bivariate):
        # A = x + y, phi = y + phi_0: expect x + y + phi_0
        phi0 = TS([mc.cq(0), mc.cq(-1), mc.cq(5), mc.cq(7), mc.cq(0)], 4)
        phi = mc.PhiSeries({0: phi0}, 4)
        got = mc.substitute_phi(euler_bivariate, phi, 4, 1)
        expected = {(1, 0): mc.cq(1), (0, 1): mc.cq(1)}
        for m in range(1, 5):
            if phi0.coeffs[m]:
                expected[(m, 0)] = expected.get((m, 0), mc.cq(0)) + \
                    phi0.coeffs[m]
        assert got == mc.BivariateSeries(expected, 4, 1)


class TestPdeResidual:
    def test_trivial(self):
        A = bivariate({(0, 1): 1}, x_order=3, y_order=1)
        phi = mc.PhiSeries({}, 3)
        assert mc.pde_residual(A, phi, 3, 1).is_zero()

    def test_euler_solution(self):
        import math
        A = bivariate({(1, 0): 1, (0, 1): 1}, x_order=8, y_order=1)
        phi0 = TS([mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                                for k in range(1, 9)], 8)
        phi = mc.PhiSeries({0: phi0}, 8)
        assert mc.pde_residual(A, phi, 8, 1).is_zero()

    def test_euler_perturbed_detected(self):
        import math
        A = bivariate({(1, 0): 1, (0, 1): 1}, x_order=8, y_order=1)
        coeffs = [mc.cq(0)] + [mc.cq(-math.factorial(k - 1))
                               for k in range(1, 9)]
        coeffs[3] = coeffs[3] + mc.cq(1)
        phi = mc.PhiSeries({0: TS(coeffs, 8)}, 8)
        res = mc.pde_residual(A, phi, 8, 1)
        assert not res.is_zero()
        # the perturbation enters the equation at orders x^3 and x^4
        assert res.coefficient(3, 0) or res.coefficient(4, 0)

    def test_normalisation_output(self, quadratic_field):
        A = quadratic_field.to_bivariate(6, 3)
        phi = mc.assemble_phi(quadratic_field, 5, 6)
        assert mc.pde_residual(A, phi, 6, 3).is_zero()


class TestJsonFieldFiles:
    def test_round_trip(self, tmp_path):
        A = bivariate({(0, 1): 1, (1, 2): Fraction(-2, 3),
                       (2, 0): (Fraction(1, 2), Fraction(1, 7))},
                      x_order=2, y_order=2)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(mc.field_to_json(A)))
        assert mc.load_field_file(path) == A

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            mc.field_from_json({"x_order": 2, "monomials": []})
        with pytest.raises(ValueError):
            mc.field_from_json({"x_order": 2, "y_order": 1,
                                "monomials": [{"m": 0, "n": 1,
                                               "re": [1], "im": [0, 1]}]})


class TestPhiSeries:
    def test_rejects_constant_term(self):
        with pytest.raises(FieldValidationError):
            mc.PhiSeries({0: TS([mc.cq(1), mc.cq(0)], 1)}, 1)

    def test_missing_component_is_zero(self):
        phi = mc.PhiSeries({}, 4)
        assert phi.component(2).is_zero()
