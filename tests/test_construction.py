"""Every way into a polynomial gives the one canonical value: the
constructor ``Polynomial(field, nvars, terms)``, ``from_pairs`` on pairs
or on a mapping, sums of monomials and the parser; and the count tables
and ``FpElement`` hold their values in one form whichever way they are
built."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import mf, orlov
from mfkit.algebra import (
    GF,
    Field,
    FpElement,
    GaussianRational,
    Polynomial,
    PRIME_LIMIT,
    QI,
    QQ,
    parse_poly,
)

from _factories import packed_view, reference_coerce

FIELDS = [QQ, QI, GF(13), GF(PRIME_LIMIT)]

# What eval needs to read a polynomial's repr.
REPR_NAMES = {"Polynomial": Polynomial, "Field": Field, "Fraction": Fraction,
              "GaussianRational": GaussianRational, "FpElement": FpElement}


class TestConstructor:
    def test_repeated_vectors_are_summed(self):
        p = Polynomial(QQ, 1, [((1,), 1), ((1,), 2)])
        assert p == parse_poly("3*x0", QQ, 1)
        assert str(p) == "3*x0"

    def test_zero_coefficients_are_dropped(self):
        p = Polynomial(QQ, 1, [((1,), 0)])
        assert p.is_zero and p == Polynomial.zero(QQ, 1)
        assert str(p) == "0" and p.terms == ()

    def test_coefficients_are_coerced(self):
        p = Polynomial(GF(7), 1, [((1,), 10)])
        assert p == parse_poly("3*x0", GF(7), 1)
        assert str(p) == "3*x0"

    def test_arity_and_signs_are_checked(self):
        with pytest.raises(ValueError, match=r"has arity 1, expected 2"):
            Polynomial(QQ, 2, [((1,), 1)])
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(QQ, 1, [((-1,), 1)])

    @pytest.mark.parametrize("field", FIELDS[:3], ids=str)
    def test_repr_reads_back(self, field):
        text = "3/2*x0^2*x1 - 5*x1 + 7" + (" + (1/3 - 2*i)*x0" if field is QI else "")
        for p in (parse_poly(text, field, 2), Polynomial.zero(field, 2)):
            assert eval(repr(p), dict(REPR_NAMES)) == p


@st.composite
def coefficients(draw, field):
    # An int, a Fraction, or a scalar of the field itself, any of them zero.
    numerator = draw(st.integers(-30, 30) | st.integers(-2**70, 2**70))
    denominator = draw(st.integers(1, 9))
    if field.p is not None and denominator % field.p == 0:
        denominator = 1
    kind = draw(st.sampled_from(["int", "fraction", "scalar"]))
    if kind == "int":
        return numerator
    if kind == "fraction" or field is QQ:
        return Fraction(numerator, denominator)
    if field is QI:
        return GaussianRational(Fraction(numerator, denominator), draw(st.integers(-3, 3)))
    return FpElement(numerator, field.p)


@st.composite
def term_lists(draw):
    """(field, nvars, pairs): terms in any order with repeated exponent
    vectors, zero coefficients, terms that cancel, and terms of degree
    2^31 that cancel, so that the sum's width falls back to 32."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    pairs = draw(st.lists(st.tuples(exponents, coefficients(field)), max_size=8))
    # Repeats of drawn vectors, with fresh coefficients.
    for exps in draw(st.lists(st.sampled_from([e for e, _ in pairs]), max_size=4)
                     if pairs else st.just([])):
        pairs.append((exps, draw(coefficients(field))))
    # Terms cancelled by their negations, some of them of degree 2^31.
    wide = st.tuples(st.just((2**31,) + (0,) * (nvars - 1)), coefficients(field))
    for exps, coeff in draw(st.lists(st.tuples(exponents, coefficients(field)) | wide,
                                     max_size=3)):
        pairs += [(exps, coeff), (exps, -coeff)]
    return field, nvars, draw(st.permutations(pairs))


def reference_sum(field, pairs):
    # {exponents: coefficient}, summed with the scalar arithmetic.
    sums = {}
    for exps, coeff in pairs:
        sums[exps] = sums.get(exps, field.zero) + field.coerce(coeff)
    return sums


class TestOneCanonicalValue:
    @given(term_lists())
    def test_every_way_in_gives_one_value(self, drawn):
        field, nvars, pairs = drawn
        p = Polynomial(field, nvars, pairs)
        sums = reference_sum(field, pairs)
        expected = sorted([(exps, c) for exps, c in sums.items() if c],
                          key=lambda term: (sum(term[0]), term[0]), reverse=True)
        assert p.terms == tuple(expected)
        assert p._view == packed_view(p)
        monomials = Polynomial.zero(field, nvars)
        for exps, coeff in pairs:
            monomials = monomials + Polynomial.monomial(field, nvars, exps, coeff)
        for other in (Polynomial.from_pairs(field, nvars, pairs),
                      Polynomial.from_pairs(field, nvars, sums),
                      monomials,
                      parse_poly(str(p), field, nvars)):
            assert other == p
            assert (hash(other), str(other), other.is_zero) == (hash(p), str(p), p.is_zero)

    @given(term_lists())
    def test_constant_term_is_read_from_terms(self, drawn):
        field, nvars, pairs = drawn
        p = Polynomial(field, nvars, pairs)
        assert p.constant_term == dict(p.terms).get((0,) * nvars, field.zero)


@st.composite
def outside_values(draw, field):
    """Any value an outside caller may hand to Field.coerce or from_pairs:
    ints (negative, zero, past 2^64) and bools; Fractions, some with a
    denominator that is a multiple of a prime the fields use; Gaussian
    rationals; residues of the field's own prime and of another."""
    p = field.p or 13
    ints = st.integers(-30, 30) | st.integers(-2**70, 2**70)
    fractions = st.builds(lambda n, d, m: Fraction(n, d * m), ints, st.integers(1, 9),
                          st.sampled_from([1, p, 13]))
    primes = st.sampled_from([p, 13, 17, PRIME_LIMIT])
    return draw(st.one_of(
        ints, st.booleans(), fractions,
        st.builds(GaussianRational, fractions, fractions | ints),
        st.builds(FpElement, ints, primes)))


def outcome(call):
    """(type, value) of what call returns, or (type, message) of what it raises."""
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


class TestOneConverter:
    """Field.coerce and from_pairs read an outside value by one converter
    to the raw view value; both agree with the scalar path it replaced."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    def test_coerce_matches_the_reference(self, field, data):
        value = data.draw(outside_values(field))
        assert outcome(lambda: field.coerce(value)) == outcome(lambda: reference_coerce(field, value))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    def test_from_pairs_matches_coerced_pairs(self, field, data):
        exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
        pairs = data.draw(st.lists(st.tuples(exponents, outside_values(field)), max_size=6))

        def views(call):
            kind, p = outcome(call)
            return (kind, p) if isinstance(p, str) else (kind, p._view, p.terms, repr(p), str(p))

        assert views(lambda: Polynomial.from_pairs(field, 2, pairs)) == views(
            lambda: Polynomial.from_pairs(
                field, 2, [(exps, reference_coerce(field, c)) for exps, c in pairs]))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    def test_inv_takes_what_coerce_takes(self, field, data):
        # Field.inv of a value coerce accepts is that of the coerced value;
        # of any other value, coerce's error.
        value = data.draw(outside_values(field))
        coerced = outcome(lambda: field.coerce(value))
        if issubclass(coerced[0], Exception):
            assert outcome(lambda: field.inv(value)) == coerced
        else:
            assert outcome(lambda: field.inv(value)) == outcome(lambda: field.inv(coerced[1]))

    @pytest.mark.parametrize("field", [GF(13), GF(PRIME_LIMIT)], ids=str)
    def test_a_denominator_divisible_by_p_is_refused(self, field):
        for call in (field.coerce, lambda c: reference_coerce(field, c),
                     lambda c: Polynomial.constant(field, 1, c)):
            with pytest.raises(ZeroDivisionError, match=rf"^inverse of zero in F_{field.p}$"):
                call(Fraction(1, 2 * field.p))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("nvars", [1, 2, 1024])
    def test_variable_is_the_parsed_variable(self, field, nvars):
        for k in {0, nvars - 1}:
            variable, parsed = Polynomial.variable(field, nvars, k), parse_poly(f"x{k}", field, nvars)
            assert variable == parsed and variable._view == parsed._view
            assert variable.terms == parsed.terms

    @pytest.mark.parametrize("nvars", [1, 3])
    def test_i_is_the_parsed_i(self, nvars):
        i = Polynomial._i(QI, nvars)
        for other in (parse_poly("i", QI, nvars), parse_poly("(0 + 1*i)", QI, nvars),
                      Polynomial.constant(QI, nvars, QI.i())):
            assert i == other and i._view == other._view
        assert Polynomial._i(GF(13), nvars) == Polynomial.constant(GF(13), nvars, GF(13).i())
        with pytest.raises(ValueError, match=r"^QQ contains no square root of -1$"):
            Polynomial._i(QQ, 1)

    def test_i_of_each_prime_field(self):
        # i squares to -1 where has_sqrt_minus_one holds, and raises where not.
        for p in (2, 3, 5, 7, 13, 17, PRIME_LIMIT):
            field = GF(p)
            if field.has_sqrt_minus_one():
                assert field.i() * field.i() == field.coerce(-1)
            else:
                with pytest.raises(ValueError, match=rf"^GF\({p}\) contains no square root of -1$"):
                    field.i()
        assert GF(2).i() == FpElement(1, 2)


class TestCountTables:
    @pytest.mark.parametrize("build", [
        lambda entries: mf.BettiTable(entries),
        lambda entries: orlov.CohomologyTable(3, entries),
    ], ids=["BettiTable", "CohomologyTable"])
    def test_entries_are_checked(self, build):
        with pytest.raises(ValueError, match="sorted by key"):
            build((((0, 1), 1), ((0, 0), 1)))
        with pytest.raises(ValueError, match="sorted by key"):
            build((((0, 0), 1), ((0, 0), 1)))
        with pytest.raises(ValueError, match="must be positive"):
            build((((0, 0), -1),))
        with pytest.raises(ValueError, match="must be positive"):
            build((((0, 0), 0),))


class TestFpElement:
    def test_value_is_the_residue(self):
        assert FpElement(10, 7) == FpElement(3, 7) == GF(7).coerce(10)
        assert hash(FpElement(10, 7)) == hash(FpElement(3, 7))
        assert FpElement(-1, 7).value == 6 and str(FpElement(-1, 7)) == "6"
