"""Library refusals, each with its exact message: the error branches of
mf, graded, algebra and bott that the other tests do not reach."""

import operator
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from mfkit import bott, mf
from mfkit.algebra import QI, QQ, Field, FpElement, GaussianRational, Polynomial, parse_poly
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

from _factories import FP13


def quartic(field=QQ, nvars=1):
    return parse_poly("x0^4", field, nvars)


class TestValidate:
    # The trivial factorization (S, S, 1, x0^4): s0 maps degree 0 to degree
    # 0, s1 maps degree 4 to degree 0.
    trivial = mf.trivial_one_f(quartic())

    @pytest.mark.parametrize("text", ["0", "x0^4 + x0"])
    def test_f_zero_or_not_homogeneous(self, text):
        f = parse_poly(text, QQ, 1)
        F = mf.MatrixFactorization(f, self.trivial.s0, self.trivial.s1)
        assert mf.validate(F) == [f"f = {text} must be homogeneous of degree >= 1"]

    @pytest.mark.parametrize("name, other", [
        ("s0", mf.trivial_one_f(quartic(QQ, 2))),
        ("s1", mf.trivial_one_f(quartic(FP13))),
    ])
    def test_map_over_another_ring(self, name, other):
        maps = {"s0": self.trivial.s0, "s1": self.trivial.s1, name: getattr(other, name)}
        F = mf.MatrixFactorization(quartic(), maps["s0"], maps["s1"])
        assert mf.validate(F) == [f"{name} lives in a different polynomial ring than f"]

    def test_s1_target_other_than_f0(self):
        s1 = HomogeneousMatrix(QQ, 1, DegreeMultiset((4,)), DegreeMultiset((1,)),
                               ((parse_poly("x0^3", QQ, 1),),))
        F = mf.MatrixFactorization(quartic(), self.trivial.s0, s1)
        assert mf.validate(F) == ["s1 target degrees {1} must equal F0 degrees {0}"]

    def test_degree_of_a_zero_f(self):
        F = mf.MatrixFactorization(Polynomial.zero(QQ, 1), self.trivial.s0, self.trivial.s1)
        with pytest.raises(ValueError, match="^the factored polynomial is zero$"):
            F.d


class TestConstructors:
    def test_trivial_one_f_of_a_zero_f(self):
        with pytest.raises(ValueError, match="^f must be homogeneous of degree >= 1$"):
            mf.trivial_one_f(Polynomial.zero(QQ, 1))

    def test_rank_one_with_u_zero(self):
        f = quartic()
        with pytest.raises(ValueError, match="^u must be nonzero$"):
            mf.rank_one(f, Polynomial.zero(QQ, 1), f)

    def test_tensor_across_rings(self):
        F, G = mf.trivial_one_f(quartic()), mf.trivial_one_f(quartic(FP13))
        with pytest.raises(ValueError, match="^tensor factors must share one field and variable count$"):
            mf.tensor(F, G)

    @pytest.mark.parametrize("pairs, half_degree, message", [
        (0, 2, "pairs must be >= 1"),
        (1, 0, "half_degree must be >= 1"),
    ])
    def test_fermat_below_one(self, pairs, half_degree, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mf.fermat(pairs, half_degree)

    def test_presentation_equivalent_on_two_polynomials(self):
        F = mf.trivial_one_f(quartic())
        G = mf.trivial_one_f(parse_poly("2*x0^4", QQ, 1))
        assert not mf.presentation_equivalent(F, G)
        assert not mf.presentation_equivalent(G, F)

    def test_compose_across_rings(self):
        a, b = mf.trivial_one_f(quartic()).s0, mf.trivial_one_f(quartic(FP13)).s0
        with pytest.raises(ValueError, match="^cannot compose matrices over different polynomial rings$"):
            compose(a, b)


class TestAlgebra:
    @pytest.mark.parametrize("index", [-1, 2])
    def test_variable_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"^variable index {index} out of range for 2 variables$"):
            Polynomial.variable(QQ, 2, index)

    @pytest.mark.parametrize("index", [1.0, "1", None])
    def test_variable_index_not_an_int(self, index):
        # Refused before any key is built, with the index named.
        with pytest.raises(ValueError, match=f"^variable index {re.escape(repr(index))} out of range "
                                             "for 3 variables$"):
            Polynomial.variable(QQ, 3, index)

    @pytest.mark.parametrize("index", [True, False])
    def test_variable_index_a_bool(self, index):
        with pytest.raises(ValueError, match=f"^variable index {index} out of range for 3 variables$"):
            Polynomial.variable(QQ, 3, index)

    @pytest.mark.parametrize("exps", [(1.0, 2), ("1", 2), (2, "1"), (Fraction(1), 2), (None, 0)])
    def test_exponent_not_an_int(self, exps):
        with pytest.raises(ValueError, match=f"^exponent vector {re.escape(repr(exps))} holds a value "
                                             "that is not an int$"):
            Polynomial.from_pairs(QQ, 2, [((0, 0), 1), (exps, 1)])

    @pytest.mark.parametrize("p, kind", [(2.0, "float"), (5.0, "float"), (True, "bool"),
                                         (Fraction(5), "Fraction"), ("5", "str"), (None, "NoneType")])
    def test_modulus_not_an_int(self, p, kind):
        # A float modulus would compute in floats, a bool one as F_1 or F_2.
        with pytest.raises(ValueError, match=f"^prime modulus must be an int, not {kind}$"):
            Field("Fp", p)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="^polynomial exponent must be a nonnegative integer$"):
            quartic() ** -1

    def test_parse_with_negative_nvars(self):
        with pytest.raises(ValueError, match="^nvars must be nonnegative$"):
            parse_poly("1", QQ, -1)

    def test_gaussian_rational_subtraction(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(1, 3), Fraction(-1))
        assert a - b == GaussianRational(Fraction(1, 6), Fraction(4))
        assert a - a == QI.zero

    def test_fp_subtraction(self):
        assert FpElement(3, 13) - FpElement(5, 13) == FpElement(11, 13)

    def test_fp_prime_mismatch(self):
        with pytest.raises(ValueError, match="^prime field mismatch: F_13 vs F_7$"):
            FpElement(3, 13) - FpElement(3, 7)

    @pytest.mark.parametrize("build", [
        lambda: FpElement(3, 13.0),
        lambda: FpElement(3, True),
        lambda: FpElement(1, Fraction(13)),
        lambda: FpElement(1, 0),
        lambda: FpElement(1, -5),
        lambda: FpElement(3.0, 13),
        lambda: FpElement("3", 13),
        lambda: FpElement(Fraction(3), 13),
        lambda: FpElement(3, 13) * FpElement(3, 13.0),
        lambda: FP13.coerce(FpElement(3, 13.0)),
    ], ids=["float-modulus", "bool-modulus", "Fraction-modulus", "zero-modulus",
            "negative-modulus", "float-value", "str-value", "Fraction-value", "product",
            "coerce"])
    def test_fp_element_of_a_bad_value_or_modulus(self, build):
        # A float would compute inexactly, a modulus of 0 divide by zero.
        with pytest.raises(ValueError, match="^a residue needs an int value and an int modulus >= 1$"):
            build()

    @pytest.mark.parametrize("value, p, residue", [(-1, 1, 0), (7, 4, 3), (True, 13, 1)])
    def test_fp_element_of_an_int_modulo_any_positive_modulus(self, value, p, residue):
        assert FpElement(value, p).value == residue

    @pytest.mark.parametrize("build", [
        lambda: GaussianRational(0.1, 0),
        lambda: GaussianRational(Fraction(1, 2), 0.5),
        lambda: GaussianRational("1/2", "3"),
        lambda: GaussianRational(Decimal("0.1"), 0),
        lambda: QI.coerce(GaussianRational(0.1, 0)),
    ], ids=["float", "float-im", "str", "Decimal", "coerce"])
    def test_gaussian_rational_of_a_part_neither_int_nor_fraction(self, build):
        # As QI.coerce(0.1) refuses a float, rather than take its binary value.
        with pytest.raises(ValueError, match="^Gaussian rational parts must be ints or Fractions$"):
            build()

    def test_gaussian_rational_of_ints_and_fractions(self):
        assert GaussianRational(1, Fraction(1, 2)) == GaussianRational(Fraction(1), Fraction(1, 2))
        assert GaussianRational(True, 0).re == 1

    @pytest.mark.parametrize("field, message", [
        (QQ, "inverse of zero rational"),
        (QI, "inverse of zero Gaussian rational"),
        (FP13, "inverse of zero in F_13"),
    ])
    def test_zero_inverse(self, field, message):
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
            field.inv(field.zero)

    @pytest.mark.parametrize("field, value", [
        (QI, 2), (FP13, 3), (FP13, Fraction(1, 2)), (QQ, -3), (QI, Fraction(2, 3)),
    ], ids=str)
    def test_inverse_of_what_coerce_takes(self, field, value):
        assert field.inv(value) == field.inv(field.coerce(value))

    @pytest.mark.parametrize("field, value, message", [
        (QQ, 1.5, "cannot coerce 1.5 into QQ"),
        (FP13, FpElement(3, 17), "prime field mismatch: F_17 vs F_13"),
        (QQ, QI.coerce(2), f"cannot coerce {QI.coerce(2)!r} into QQ"),
    ], ids=["float", "other-prime", "gaussian-into-QQ"])
    def test_inverse_of_what_coerce_refuses(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            field.coerce(value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            field.inv(value)

    @pytest.mark.parametrize("op, symbol", [(operator.add, "+"), (operator.sub, "-")])
    @pytest.mark.parametrize("other", [1, None, Fraction(1, 2)], ids=repr)
    def test_polynomial_sum_with_a_non_polynomial(self, op, symbol, other):
        # Refused by Python's operator protocol, on either side; a product
        # with a scalar stays a product.
        x = parse_poly("x0", QQ, 1)
        message = f"^unsupported operand type\\(s\\) for {re.escape(symbol)}: "
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError, match=message):
                op(left, right)
        assert x * 2 == 2 * x == parse_poly("2*x0", QQ, 1)


class TestBott:
    @pytest.mark.parametrize("query", [
        lambda: bott.restricted_bott(0, 1, 0, 0),
        lambda: bott.rho_structure_sheaf(0, 2),
        lambda: bott.rho_point(0),
        lambda: bott.rho_line_bundle(-1, 1, 0),
    ])
    def test_n_below_one(self, query):
        with pytest.raises(ValueError, match="^ambient dimension n must be >= 1$"):
            query()

    @pytest.mark.parametrize("name, query, message", [
        ("MAX_BOTT_N", lambda: bott.bott(4, 0, 0, 1), "n = 4 exceeds MAX_BOTT_N = 3"),
        ("MAX_BOTT_TWIST", lambda: bott.bott_vector(2, 0, -4), "|l| = 4 exceeds MAX_BOTT_TWIST = 3"),
        ("MAX_BOTT_TWIST", lambda: bott.restricted_bott(2, 3, 1, 3),
         "|r+t| = 4 exceeds MAX_BOTT_TWIST = 3"),
        ("MAX_RHO_DEGREE", lambda: bott.rho_structure_sheaf(1, 4), "d = 4 exceeds MAX_RHO_DEGREE = 3"),
        ("MAX_SWEEP_DEGREE", lambda: bott.rho_sweep_rows(1, 4),
         "d_max = 4 exceeds MAX_SWEEP_DEGREE = 3"),
        ("MAX_POWER_BITS", lambda: bott.rho_point(4), "n = 4 exceeds MAX_POWER_BITS = 3"),
        ("MAX_LINE_BUNDLE_N", lambda: bott.rho_line_bundle(4, 1, 0),
         "n = 4 exceeds MAX_LINE_BUNDLE_N = 3"),
        ("MAX_LINE_BUNDLE_TWIST", lambda: bott.rho_line_bundle(1, 4, 0),
         "d = 4 exceeds MAX_LINE_BUNDLE_TWIST = 3"),
        ("MAX_LINE_BUNDLE_TWIST", lambda: bott.rho_line_bundle(1, 1, -4),
         "|j| = 4 exceeds MAX_LINE_BUNDLE_TWIST = 3"),
    ])
    def test_bounds_are_read_at_call_time(self, monkeypatch, name, query, message):
        monkeypatch.setattr(bott, name, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query()
