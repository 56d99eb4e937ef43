import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import algebra
from mfkit.algebra import (
    GF,
    FpElement,
    GaussianRational,
    MAX_NESTING,
    MAX_NVARS,
    NEG_INFINITY,
    ParseError,
    Polynomial,
    PRIME_LIMIT,
    QI,
    QQ,
    degree_info,
    parse_poly,
)

from _factories import (minus_inverse, random_homogeneous, random_polynomial, reference_fp_inverse,
                        reference_gaussian_inverse, reference_inv, reference_minus_inverse)
from test_construction import outcome

FIELDS = [QQ, QI, GF(13)]


def twelve_witness_is_prime(n):
    # The primality test as it was: trial division by the primes up to
    # 37, then Miller-Rabin with those twelve witnesses, deterministic
    # below 3.3 * 10^24.
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

    @pytest.mark.parametrize("n", [1373653, 25326001])
    def test_strong_pseudoprimes_are_rejected(self, n):
        # Strong pseudoprimes to the bases 2, 3 (and 5) without a factor
        # below 41: only the witness loop of the primality test sees them.
        with pytest.raises(ValueError, match="not prime"):
            GF(n)

    def test_prime_that_runs_the_squaring_loop(self):
        assert GF(2147483629).p == 2147483629

    def test_primality_agrees_with_a_sieve(self):
        limit = 300_000
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for k in range(2, int(limit**0.5) + 1):
            if sieve[k]:
                sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
        assert [n for n in range(limit) if algebra._is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751])
    def test_strong_pseudoprimes_to_small_bases_are_composite(self, n):
        # Strong pseudoprimes to the base 2; 3,215,031,751 to 3, 5 and 7 also.
        assert not algebra._is_prime(n)

    @pytest.mark.parametrize("n", [61, 7, 2, PRIME_LIMIT])
    def test_witnesses_and_the_largest_modulus_are_prime(self, n):
        assert algebra._is_prime(n)

    def test_primality_agrees_with_twelve_witnesses(self):
        rng = random.Random(20)
        for n in [rng.randrange(2**31) | 1 for _ in range(20_000)] + \
                 [rng.randrange(2**15) * rng.randrange(2**16) + 1 for _ in range(5_000)]:
            assert algebra._is_prime(n) == twelve_witness_is_prime(n), n

    def test_square_root_of_minus_one_in_characteristic_two(self):
        assert GF(2).i() == FpElement(1, 2)

    def test_rationals_stay_reduced(self):
        half = QQ.coerce(Fraction(2, 4))
        assert (half.numerator, half.denominator) == (1, 2)

    def test_coercion_rejects_cross_field_values(self):
        with pytest.raises(ValueError):
            QQ.coerce(QI.i())
        with pytest.raises(ValueError):
            GF(13).coerce(GF(17).coerce(1))


class TestMinusInverse:
    # -1/c of the constant term c, from the raw unit where c is +-1 or +-i
    # over QQ(i), through Field.inv otherwise: the same polynomial.
    @pytest.mark.parametrize("field, text", [
        (QQ, "1"), (QQ, "-1"), (QQ, "2"), (QQ, "-1/3"), (QQ, "2/3"), (QQ, "x0 + 1/2"),
        (QI, "1"), (QI, "-1"), (QI, "i"), (QI, "-i"), (QI, "1 + i"), (QI, "2 - i"), (QI, "3"),
        (QI, "1/2 + 1/2*i"), (QI, "1/2*i"), (QI, "x0*x1 + 3*i"),
        (GF(13), "1"), (GF(13), "12"), (GF(13), "5"), (GF(13), "x0^2 + 7"), (GF(2), "1"),
    ])
    def test_matches_the_field_inverse(self, field, text):
        u = parse_poly(text, field, 2)
        got = minus_inverse(u)
        assert got == Polynomial.constant(field, 2, -field.inv(u.constant_term))
        assert got.terms == (((0, 0), -field.inv(u.constant_term)),)


INVERSE_FIELDS = [QQ, QI, GF(2), GF(13), GF(PRIME_LIMIT)]

# Gaussian rationals of norm 1: their inverses are their conjugates.
NORM_ONE = [GaussianRational(Fraction(s * a, c), Fraction(t * b, c))
            for a, b, c in ((3, 4, 5), (5, 12, 13), (20, 21, 29)) for s in (1, -1) for t in (1, -1)]


@st.composite
def nonzero_scalars(draw, field):
    """A nonzero scalar of ``field``: +-1, +-i where the field has i,
    rationals with small or large numerators and denominators (each half
    over QQ(i)), and over QQ(i) Gaussian rationals of norm 1."""
    p = field.p
    numerators = st.integers(-30, 30) | st.integers(-2**80, 2**80)
    # Over GF(p) no denominator is a multiple of p.
    denominators = (st.integers(1, 30) | st.integers(1, 2**80)).map(
        lambda d: d + 1 if p and not d % p else d)
    rationals = st.builds(Fraction, numerators, denominators)
    units = [1, -1] + ([field.i(), -field.i()] if field.has_sqrt_minus_one() else [])
    values = st.sampled_from(units) | rationals
    if field is QI:
        values |= st.sampled_from(NORM_ONE) | st.builds(GaussianRational, rationals, rationals)
    return draw(values.map(field.coerce).filter(bool))


def typed_view(poly):
    # The view with the type of each value, so that an integral value kept
    # as a Fraction differs from the int a view holds.
    width, pairs = poly._view
    return width, [(k, type(value), value) for k, value in pairs]


class TestOneInverse:
    """Field.inv, both scalar inverse methods, GF(p) denominators and
    _minus_inverse share one inverse on raw values; each agrees with the
    path it replaced."""

    @pytest.mark.parametrize("field", INVERSE_FIELDS, ids=str)
    @given(data=st.data())
    def test_matches_the_references(self, field, data):
        value = data.draw(nonzero_scalars(field))
        expected = reference_inv(field, value)
        assert outcome(lambda: field.inv(value)) == (type(expected), expected)
        if field is QI:
            assert value.inverse() == reference_gaussian_inverse(value) == expected
        elif field.p:
            assert value.inverse() == reference_fp_inverse(value) == expected
        for text in ("0", "x0*x1^2"):
            u = parse_poly(text, field, 2) + Polynomial.constant(field, 2, value)
            got, reference = minus_inverse(u), reference_minus_inverse(u)
            assert typed_view(got) == typed_view(reference)
            assert got.terms == reference.terms

    @pytest.mark.parametrize("field, message", [
        (QQ, "inverse of zero rational"),
        (QI, "inverse of zero Gaussian rational"),
        (GF(2), "inverse of zero in F_2"),
        (GF(13), "inverse of zero in F_13"),
        (GF(PRIME_LIMIT), f"inverse of zero in F_{PRIME_LIMIT}"),
    ], ids=str)
    def test_zero_raises_as_before(self, field, message):
        u = parse_poly("x0", field, 1)
        refused = (ZeroDivisionError, message)
        assert outcome(lambda: field.inv(field.zero)) == refused
        assert outcome(lambda: reference_inv(field, field.zero)) == refused
        assert outcome(lambda: minus_inverse(u)) == outcome(lambda: reference_minus_inverse(u)) == refused
        if field.kind != "Q":
            assert outcome(field.zero.inverse) == refused

    @pytest.mark.parametrize("field", INVERSE_FIELDS[2:], ids=str)
    def test_a_denominator_divisible_by_p_raises_as_before(self, field):
        p = field.p
        refused = (ZeroDivisionError, f"inverse of zero in F_{p}")
        for value in (Fraction(1, p), Fraction(-5, 3 * p)):
            assert outcome(lambda: field.coerce(value)) == refused
        for text in (f"1/{p}", f"x0 - 5/{3 * p}"):
            with pytest.raises(ParseError, match=rf"^inverse of zero in F_{p} \(at position \d+\)$"):
                parse_poly(text, field, 1)

    @pytest.mark.parametrize("value, p", [(3, 4), (2, 4), (5, 9), (1, 1)])
    def test_an_element_of_a_composite_modulus_inverts_as_before(self, value, p):
        element = FpElement(value, p)
        assert outcome(element.inverse) == outcome(lambda: reference_fp_inverse(element))

    def test_three_is_its_own_inverse_modulo_four(self):
        assert FpElement(3, 4).inverse() == FpElement(3, 4)


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

    def test_variable_count_bound(self):
        top = f"x{MAX_NVARS - 1}"
        assert parse_poly(top, QQ, MAX_NVARS).terms[0][0] == (0,) * (MAX_NVARS - 1) + (1,)
        with pytest.raises(ValueError, match=f"nvars {MAX_NVARS + 1} exceeds MAX_NVARS"):
            parse_poly("x0", QQ, MAX_NVARS + 1)
        with pytest.raises(ValueError, match="exceeds MAX_NVARS"):
            parse_poly("x0", QQ, 10**9)

    def test_nesting_bound(self):
        def nested(depth, inner="x0"):
            return "(" * depth + inner + ")" * depth

        assert parse_poly(nested(MAX_NESTING), QQ, 1) == parse_poly("x0", QQ, 1)
        # The bound counts open parentheses, wherever they sit.
        deep = f"2*{nested(MAX_NESTING - 1, '-x0^2')} + x0*x0"
        assert parse_poly(f"({deep})^1", QQ, 1) == parse_poly("-x0^2", QQ, 1)
        for text, at in ((nested(MAX_NESTING + 1), MAX_NESTING),
                         (f"x0 + ({nested(MAX_NESTING)})", 5 + MAX_NESTING),
                         (nested(1000), MAX_NESTING)):
            with pytest.raises(ParseError, match=rf"parentheses nested deeper than {MAX_NESTING} "
                                                 rf"\(at position {at}\)"):
                parse_poly(text, QQ, 1)

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


class TestProductBudget:
    """Each product a * b charges len(a.terms) * len(b.terms) against
    MAX_PARSE_PRODUCTS before it is formed; products of two monomials
    are free."""

    def test_products_at_and_past_the_budget(self, monkeypatch):
        # 2 * 3 for the first product, then its 5 terms times x2.
        text = "(x0 + x1)*(x0 + x1 + x2)*x2"
        x0, x1, x2 = (Polynomial.variable(QQ, 3, k) for k in range(3))
        monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", 11)
        assert parse_poly(text, QQ, 3) == (x0 + x1) * (x0 + x1 + x2) * x2
        monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", 10)
        with pytest.raises(ParseError, match=r"^expansion needs more than 10 term products "
                                             r"\(at position 24\)$"):
            parse_poly(text, QQ, 3)

    def test_power_steps_at_and_past_the_budget(self, monkeypatch):
        # Square-and-multiply for e = 3: 1 * 2, then 2 * 2, then 2 * 3.
        text = "(x0 + x1)^3"
        monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", 12)
        x0, x1 = Polynomial.variable(QQ, 2, 0), Polynomial.variable(QQ, 2, 1)
        assert parse_poly(text, QQ, 2) == (x0 + x1) * (x0 + x1) * (x0 + x1)
        monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", 11)
        with pytest.raises(ParseError, match=r"more than 11 term products \(at position 9\)"):
            parse_poly(text, QQ, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_monomial_products_are_free(self, monkeypatch, field):
        poly = parse_poly("(x0 + 2*x1 + 1/3)^4 - x1^7", field, 2)
        monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", 0)
        assert parse_poly(str(poly), field, 2) == poly
        assert parse_poly("(2*x0*x1)^5*x0^3", field, 2) == parse_poly("32*x0^8*x1^5", field, 2)

    def test_expansion_admitted_by_the_degree_bound_fails_fast(self):
        text = "(" + " + ".join(f"x{k}" for k in range(12)) + ")^400"
        with pytest.raises(ParseError, match="term products"):
            parse_poly(text, QQ, 12, max_degree=400)


class TestBitsBudget:
    """Each ``^`` charges its exponent times the bits one power step can
    add to a coefficient against MAX_PARSE_BITS before the power is formed;
    GF(p) and the coefficients 1 and i charge nothing."""

    @pytest.mark.parametrize("field, text, cost", [
        (QQ, "(2*x0)^3 * (1/3*x1 + 1)^2", 3 * 1 + 2 * (1 + 1)),
        (QI, "((1/2 + 1/4*i)*x0)^2 * ((1 + 2*i)*x1)^3", 2 * (1 + 3) + 3 * 1),
    ], ids=str)
    def test_powers_at_and_past_the_budget(self, monkeypatch, field, text, cost):
        expected = parse_poly(text, field, 2)
        monkeypatch.setattr(algebra, "MAX_PARSE_BITS", cost)
        assert parse_poly(text, field, 2) == expected
        monkeypatch.setattr(algebra, "MAX_PARSE_BITS", cost - 1)
        with pytest.raises(ParseError, match=rf"^powers need more than {cost - 1} coefficient "
                                             rf"bits \(at position {text.rindex('^')}\)$"):
            parse_poly(text, field, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_printed_polynomials_and_unit_coefficients_are_free(self, monkeypatch, field):
        poly = parse_poly("(x0 + 2*x1 + 1/3)^4 - x1^7", field, 2)
        monkeypatch.setattr(algebra, "MAX_PARSE_BITS", 0)
        assert parse_poly(str(poly), field, 2) == poly
        assert parse_poly("(x0^3)^4*(-x1)^5", field, 2) == parse_poly("-x0^12*x1^5", field, 2)
        if field == QI:
            assert parse_poly("(i*x0)^3", field, 1) == parse_poly("-i*x0^3", field, 1)

    def test_prime_fields_are_free(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_PARSE_BITS", 0)
        assert parse_poly("(2*x0 + 3)^2", GF(13), 1) == parse_poly("4*x0^2 + 12*x0 + 9", GF(13), 1)


class TestSums:
    """A sum of two or more summands that the reader reads is added into
    one dict, settled once, with no call of the shared sum of products
    and none of the matrix kernel: its terms are monomials.  The sums are
    written without spaces, which printed output never is."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_one_kernel_call_per_sum(self, monkeypatch, field, n):
        sums, products, settled = [], [], []
        summing, settle = algebra._sum_products, algebra._settle
        kernel = Polynomial._product_rows.__func__

        def counting_sum(field, products):
            products = list(products)
            sums.append(len(products))
            return summing(field, products)

        def counting_kernel(cls, *args):
            products.append(args)
            return kernel(cls, *args)

        def counting_settle(field, acc):
            settled.append(len(acc))
            return settle(field, acc)

        monkeypatch.setattr(algebra, "_sum_products", counting_sum)
        monkeypatch.setattr(Polynomial, "_product_rows", classmethod(counting_kernel))
        monkeypatch.setattr(algebra, "_settle", counting_settle)
        text = "x0^0" + "".join(f"{'+-'[k % 2]}x{k % 3}^{k}" for k in range(1, n))
        poly = parse_poly(text, field, 3)
        assert sums == []
        assert products == []
        assert settled == [n]
        monkeypatch.undo()
        x = [Polynomial.variable(field, 3, k) for k in range(3)]
        expected = x[0] ** 0
        for k in range(1, n):
            expected = expected - x[k % 3] ** k if k % 2 else expected + x[k % 3] ** k
        assert poly == expected

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_long_sum_round_trip(self, field):
        terms = [((2000 - k, k), Fraction(k % 7 - 3, 1 + k % 4) or 1) for k in range(2000)]
        poly = Polynomial.from_pairs(field, 2, terms)
        assert len(poly.terms) == 2000
        text = str(poly)
        again = parse_poly(text, field, 2)
        assert again == poly and str(again) == text


class TestUnitPowers:
    """A one-term power whose coefficient is 1 keeps the coefficient: it
    multiplies no raw coefficient."""

    def test_no_scalar_multiplications(self, monkeypatch):
        calls = []
        for name in ("_power", "_gaussian_mul"):
            original = getattr(algebra, name)

            def counting(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(algebra, name, counting)
        x0 = Polynomial.variable(QI, 2, 0)
        assert parse_poly("x0^2", QI, 2).terms == (((2, 0), QI.one),)
        assert (x0 ** 5).terms == (((5, 0), QI.one),)
        assert calls == []
        assert (parse_poly("2*x0", QI, 2) ** 3).terms == (((3, 0), QI.coerce(8)),)
        assert calls


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
