import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit.algebra import (
    GF,
    NEG_INFINITY,
    ParseError,
    Polynomial,
    PRIME_LIMIT,
    QI,
    QQ,
    degree_info,
    parse_poly,
)

from _factories import random_polynomial, random_homogeneous

FIELDS = [QQ, QI, GF(13)]


class TestFields:
    def test_prime_validated_at_construction(self):
        with pytest.raises(ValueError, match="not prime"):
            GF(4)
        with pytest.raises(ValueError, match="not prime"):
            GF(2**30)
        assert GF(2147483647).p == PRIME_LIMIT  # largest allowed modulus

    def test_modulus_bound(self):
        with pytest.raises(ValueError):
            GF(2147483659)  # prime, but p*p would overflow 64-bit products
        with pytest.raises(ValueError):
            GF(1)

    def test_square_root_of_minus_one(self):
        assert QI.i() * QI.i() == QI.coerce(-1)
        i13 = GF(13).i()
        assert i13 * i13 == GF(13).coerce(-1)
        assert QI.has_sqrt_minus_one()
        assert GF(13).has_sqrt_minus_one()
        assert not GF(7).has_sqrt_minus_one()
        assert not QQ.has_sqrt_minus_one()
        with pytest.raises(ValueError, match="square root"):
            QQ.i()

    def test_rationals_stay_reduced(self):
        half = QQ.coerce(Fraction(2, 4))
        assert (half.numerator, half.denominator) == (1, 2)

    def test_coercion_rejects_cross_field_values(self):
        with pytest.raises(ValueError):
            QQ.coerce(QI.i())
        with pytest.raises(ValueError):
            GF(13).coerce(GF(17).coerce(1))


class TestParsing:
    def test_fermat_quartic(self):
        p = parse_poly("x0^4 + x1^4", QQ, 2)
        assert len(p.terms) == 2
        assert degree_info(p) == (4, True)

    def test_gaussian_product_collapses(self):
        p = parse_poly("(x0^2 + i*x1^2)*(x0^2 - i*x1^2)", QI, 2)
        assert p == parse_poly("x0^4 + x1^4", QI, 2)

    def test_cancellation_to_zero(self):
        p = parse_poly("x0 - x0", QQ, 1)
        assert p.is_zero
        assert p.terms == ()

    def test_rational_literals(self):
        p = parse_poly("1/2*x0 + 3", QQ, 1)
        assert p == Polynomial.from_pairs(QQ, 1, {(1,): Fraction(1, 2), (0,): Fraction(3)})

    def test_rational_literal_in_prime_field(self):
        p = parse_poly("1/2", GF(13), 1)
        assert p == Polynomial.constant(GF(13), 1, 7)  # 2 * 7 = 14 = 1 mod 13

    def test_unary_minus_and_powers(self):
        assert parse_poly("-x0^2", QQ, 1) == -parse_poly("x0^2", QQ, 1)
        assert parse_poly("--x0", QQ, 1) == parse_poly("x0", QQ, 1)
        assert parse_poly("2^3", QQ, 1) == Polynomial.constant(QQ, 1, 8)

    def test_unknown_variable_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x0 + y1", QQ, 2)
        assert err.value.position == 5

    def test_variable_out_of_scope(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_poly("x2", QQ, 2)

    def test_i_outside_gaussian_field(self):
        with pytest.raises(ParseError, match="only available over QQ"):
            parse_poly("i*x0", QQ, 1)
        with pytest.raises(ParseError):
            parse_poly("i", GF(13), 1)

    def test_exponent_overflow(self):
        with pytest.raises(ParseError, match="exponent overflow"):
            parse_poly("x0^99999999", QQ, 1)

    def test_degree_bound(self):
        assert parse_poly("x0^2*x1", QQ, 2, max_degree=3) == parse_poly("x0^2*x1", QQ, 2)
        with pytest.raises(ParseError, match=r"degree 4 exceeds the bound 3 \(at position 4\)"):
            parse_poly("x0^2*x1^2", QQ, 2, max_degree=3)
        with pytest.raises(ParseError, match=r"degree 200 exceeds the bound 1 \(at position 7\)"):
            parse_poly("(x0+x1)^200", QQ, 2, max_degree=1)
        # Zero factors and zeroth powers raise no degree.
        assert parse_poly("(x0-x0)^9*x1^0 + x1", QQ, 2, max_degree=1) == parse_poly("x1", QQ, 2)

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_poly("x0 +", QQ, 1)
        with pytest.raises(ParseError):
            parse_poly("(x0", QQ, 1)
        with pytest.raises(ParseError):
            parse_poly("x0 @ x0", QQ, 1)
        with pytest.raises(ParseError):
            parse_poly("1/0", QQ, 1)

    def test_prime_field_denominator_divisible_by_p(self):
        with pytest.raises(ParseError):
            parse_poly("1/13", GF(13), 1)


class TestPrinter:
    def test_golden_forms(self):
        assert str(parse_poly("x1^4 + x0^4", QQ, 2)) == "x0^4 + x1^4"
        assert str(parse_poly("-3/4*x0 + x1 - 2", QQ, 2)) == "-3/4*x0 + x1 - 2"
        assert str(parse_poly("i*x0^2", QI, 1)) == "(0 + 1*i)*x0^2"
        assert str(parse_poly("x0 - i", QI, 1)) == "x0 + (0 - 1*i)"
        assert str(Polynomial.zero(QQ, 3)) == "0"

    def test_print_parse_print_identity(self):
        rng = random.Random(7)
        for field in FIELDS:
            for _ in range(100):
                p = random_polynomial(field, 3, rng)
                text = str(p)
                again = parse_poly(text, field, 3)
                assert again == p
                assert str(again) == text


class TestArithmetic:
    def test_monomial_product(self):
        x0 = Polynomial.variable(QQ, 1, 0)
        assert (x0 ** 2) * (x0 ** 2) == x0 ** 4

    def test_gaussian_conjugates(self):
        lhs = parse_poly("x0^2 + i*x1^2", QI, 2)
        rhs = parse_poly("x0^2 - i*x1^2", QI, 2)
        assert lhs * rhs == parse_poly("x0^4 + x1^4", QI, 2)

    def test_additive_identity(self):
        rng = random.Random(11)
        for field in FIELDS:
            f = random_polynomial(field, 2, rng)
            assert f + Polynomial.zero(field, 2) == f

    def test_scalar_mul(self):
        p = parse_poly("x0 + 2", QQ, 1)
        assert p.scalar_mul(Fraction(1, 2)) == parse_poly("1/2*x0 + 1", QQ, 1)
        assert p.scalar_mul(0).is_zero

    def test_mismatch_errors(self):
        with pytest.raises(ValueError, match="field mismatch"):
            parse_poly("x0", QQ, 1) + parse_poly("x0", QI, 1)
        with pytest.raises(ValueError, match="variable count"):
            parse_poly("x0", QQ, 1) * parse_poly("x0", QQ, 2)


class TestDegreeInfo:
    def test_homogeneous(self):
        assert degree_info(parse_poly("x0^4 + x1^4", QQ, 2)) == (4, True)

    def test_inhomogeneous(self):
        assert degree_info(parse_poly("x0^2 + x1", QQ, 2)) == (2, False)

    def test_zero_polynomial(self):
        assert degree_info(Polynomial.zero(QQ, 2)) == (NEG_INFINITY, True)


class TestRingAxioms:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_fuzz_axioms(self, field):
        rng = random.Random(1234)
        for _ in range(1000):
            a = random_polynomial(field, 2, rng, max_degree=3, max_terms=3)
            b = random_polynomial(field, 2, rng, max_degree=3, max_terms=3)
            c = random_polynomial(field, 2, rng, max_degree=3, max_terms=3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_gaussian_norm_identity(self):
        # (A + iB)(A - iB) = A^2 + B^2 for homogeneous A, B.
        rng = random.Random(99)
        i = QI.i()
        for _ in range(200):
            deg = rng.randint(1, 4)
            a = random_homogeneous(QI, 2, deg, rng)
            b = random_homogeneous(QI, 2, deg, rng)
            assert (a + b * i) * (a - b * i) == a * a + b * b


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=5))
    pairs = []
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(nvars))
        if field.kind == "Fp":
            coeff = field.coerce(draw(st.integers(min_value=0, max_value=12)))
        else:
            coeff = field.coerce(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
        pairs.append((exps, coeff))
    return Polynomial.from_pairs(field, nvars, pairs)


class TestCanonicalForm:
    @given(polynomials())
    def test_recanonicalization_is_identity(self, p):
        assert Polynomial.from_pairs(p.field, p.nvars, p.terms) == p

    @given(polynomials())
    def test_roundtrip_through_text(self, p):
        assert parse_poly(str(p), p.field, p.nvars) == p

    @given(polynomials())
    def test_text_parses_under_its_own_degree(self, p):
        assert parse_poly(str(p), p.field, p.nvars, max(p.total_degree, 0)) == p

    @given(polynomials(), polynomials())
    def test_sums_stay_canonical(self, p, q):
        if p.field != q.field or p.nvars != q.nvars:
            return
        s = p + q
        assert Polynomial.from_pairs(s.field, s.nvars, s.terms) == s
