"""The one expression reader against three references.

``parse_poly`` reads every text with one recursive-descent reader that
evaluates on raw dicts, from the words of an ASCII text and else, or
where a read of words fails, from its tokens; only parentheses other
than a printed Gaussian coefficient, and powers of anything but a
variable, go through the polynomial operators.  ``ReferenceParser``
below is an earlier parser, which built each atom by
``Polynomial.from_pairs`` and made a kernel call for every operator: its
sums, products, negations and powers run the 1 x n by n x 1 route
through ``Polynomial._product_rows``, not the view operations under
test.  Both read the module's budgets at call time, so a lowered budget
applies to both.  On every generated expression they must give an equal
polynomial, or the same :class:`ParseError` message and position.

The tests after those compare ``parse_poly`` with the pair of readers it
replaced, kept in ``_factories``: a one-pass scan of printed text and a
recursive parser that evaluated every atom as a ``Polynomial`` and read
every text the scan declined.  On printed and edited printed text, under
degree bounds and lowered budgets, both must give the same view, ``str``
and ``repr``, or the same error, message and position, and the same
ValueError of int() at the interpreter's digit limit.  The edits insert
spaces, operators, digits, letters and characters outside the grammar,
so that words which are not one token are read too.  Two tests count
the reader's reads of a text and check the width it packs at.  The last
part draws expression trees and compares ``parse_poly`` with the same
trees evaluated with ``+``, ``-``, ``*``, ``**`` and unary minus, at
degrees past 2^31 too.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import algebra, mf
from mfkit.algebra import GF, MAX_EXPONENT, QI, QQ, ParseError, Polynomial, parse_poly
from mfkit.cli import document_to_mf, mf_to_document

from _factories import (kernel_sum_of_products, packed_view, reference_read, reference_tokenize,
                        square_and_multiply)


def reference_power_step_bits(poly):
    # _power_step_bits as it was, over the terms of a Polynomial.
    kind = poly.field.kind
    if kind == "Fp":
        return 0
    parts = [q for _, c in poly.terms for q in ((c.re, c.im) if kind == "Qi" else (c,))]
    numerators = sum(abs(q.numerator) for q in parts)
    denominators = prod(q.denominator for q in parts)
    return max(numerators.bit_length() - 1, 0) + denominators.bit_length() - 1


class ReferenceParser:
    """The parser as it was before it evaluated on dicts."""

    def __init__(self, text, field, nvars, max_degree):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.max_degree = max_degree
        self.depth = 0
        self.products = 0
        self.bits = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_degree(self, degree, at):
        if self.max_degree is not None and degree > self.max_degree:
            raise ParseError(f"degree {degree} exceeds the bound {self.max_degree}", at)

    def constant(self, value):
        return Polynomial.constant(self.field, self.nvars, value)

    def kernel(self, pairs):
        return kernel_sum_of_products(self.field, self.nvars, pairs)

    def product(self, a, b, at):
        cost = len(a.terms) * len(b.terms)
        if cost > 1:
            self.products += cost
            if self.products > algebra.MAX_PARSE_PRODUCTS:
                raise ParseError(
                    f"expansion needs more than {algebra.MAX_PARSE_PRODUCTS} term products", at)
        return self.kernel(((a, b),))

    def parse(self):
        poly = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return poly

    def expr(self):
        summands = [(self.term(), "+")]
        while (op := self.peek())[0] == "op" and op[1] in "+-":
            self.advance()
            summands.append((self.term(), op[1]))
        if len(summands) == 1:
            return summands[0][0]
        return self.kernel([(poly, self.constant(1 if op == "+" else -1)) for poly, op in summands])

    def term(self):
        result = self.signed()
        while True:
            kind, text, at = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                rhs = self.signed()
                self.check_degree(result.total_degree + rhs.total_degree, at)
                result = self.product(result, rhs, at)
            else:
                return result

    def signed(self):
        negate = False
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                negate ^= text == "-"
            else:
                break
        poly = self.power()
        return self.kernel(((poly, self.constant(-1)),)) if negate else poly

    def power(self):
        base = self.atom()
        kind, text, at = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, nat = self.advance()
            if nkind != "num":
                raise ParseError("expected a nonnegative integer exponent", nat)
            exponent = int(ntext)
            if exponent > algebra.MAX_EXPONENT:
                raise ParseError(f"exponent overflow (limit {algebra.MAX_EXPONENT})", nat)
            if exponent:
                self.check_degree(exponent * base.total_degree, at)
                self.bits += exponent * reference_power_step_bits(base)
                if self.bits > algebra.MAX_PARSE_BITS:
                    raise ParseError(
                        f"powers need more than {algebra.MAX_PARSE_BITS} coefficient bits", at)
            if len(base.terms) > 1:
                times = lambda a, b: self.product(a, b, at)  # noqa: E731
            else:
                times = lambda a, b: self.kernel(((a, b),))  # noqa: E731
            return square_and_multiply(base, exponent, self.constant(1), times)
        return base

    def atom(self):
        kind, text, at = self.advance()
        if kind == "op" and text == "(":
            if self.depth == algebra.MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {algebra.MAX_NESTING}", at)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            ckind, ctext, cat = self.advance()
            if not (ckind == "op" and ctext == ")"):
                raise ParseError("expected ')'", cat)
            return inner
        if kind == "num":
            value = Fraction(int(text))
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "/":
                self.advance()
                dkind, dtext, dat = self.advance()
                if dkind != "num":
                    raise ParseError("expected an integer denominator", dat)
                if int(dtext) == 0:
                    raise ParseError("zero denominator in rational literal", dat)
                value = value / int(dtext)
            try:
                coeff = self.field.coerce(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), at) from exc
            return Polynomial.constant(self.field, self.nvars, coeff)
        if kind == "name":
            if text == "i":
                if self.field.kind != "Qi":
                    raise ParseError("'i' is only available over QQ(i)", at)
                return Polynomial.constant(self.field, self.nvars, self.field.i())
            m = re.fullmatch(r"x(\d+)", text)
            if not m:
                raise ParseError(f"unknown variable {text!r}", at)
            index = int(m.group(1))
            if index >= self.nvars:
                raise ParseError(
                    f"unknown variable {text!r} (only x0..x{self.nvars - 1} in scope)", at)
            return Polynomial.variable(self.field, self.nvars, index)
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", at)


def reference_parse(text, field, nvars, max_degree=None):
    return ReferenceParser(text, field, nvars, max_degree).parse()


def outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc), exc.position


def assert_same(text, field, nvars, max_degree=None):
    got = outcome(parse_poly, text, field, nvars, max_degree)
    want = outcome(reference_parse, text, field, nvars, max_degree)
    assert got == want, text
    if isinstance(got, Polynomial):
        assert str(got) == str(want)
        # The view is the one built from the terms at the degree's width.
        assert got._view == packed_view(got)


FIELDS = [QQ, QI, GF(13)]
FIELD_IDS = [str(field) for field in FIELDS]
NVARS = 3


def atoms(nvars, gaussian):
    # Variables one past the scope, names out of the grammar, rationals
    # with zero denominators and denominators divisible by 13, and both
    # unit coefficients.  One bad atom fails the whole text, so those are
    # rare, and so is ``i`` outside QQ(i).
    number = st.integers(0, 30).map(str)
    variable = st.integers(0, nvars - 1).map(lambda k: f"x{k}")
    unit = st.just("i") if gaussian else number
    common = st.one_of(number, number, variable, variable, variable, variable, unit)
    rational = st.tuples(st.integers(0, 30), st.sampled_from([1, 2, 3, 13, 26])).map(
        lambda nd: f"{nd[0]}/{nd[1]}")
    # Huge monomial powers outgrow the 32- and 64-bit key widths.
    huge = st.tuples(st.integers(0, nvars - 1),
                     st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1]),
                     st.sampled_from([1, 2, 2**11, 2**20])).map(
        lambda t: f"(x{t[0]}^{t[1]})^{t[2]}")
    odd = st.sampled_from(["i", "y", "x", "@", "", "(", ")", "^x0", "1/x0", "x01", "1/0",
                           f"x{nvars}"])
    kinds = {"common": common, "rational": rational, "huge": huge, "odd": odd}
    return st.sampled_from(["common"] * 72 + ["rational"] * 6 + ["huge", "odd"]).flatmap(
        kinds.__getitem__)


@st.composite
def expressions(draw, nvars, gaussian, depth=2):
    # expr := term (('+' | '-') term)*, a term a product of signed powers
    # of atoms or parenthesized expressions, as in the grammar.
    def factor():
        if depth and draw(st.integers(0, 3)) == 0:
            base = f"({draw(expressions(nvars, gaussian, depth - 1))})"
        else:
            base = draw(atoms(nvars, gaussian))
        if draw(st.integers(0, 3)) == 0:
            base += "^" + draw(st.sampled_from(["0", "1", "2", "2", "3", "4"]))
        return draw(st.sampled_from(["", "", "", "", "-", "+", "--"])) + base

    def term():
        return draw(st.sampled_from(["*", " * "])).join(
            factor() for _ in range(draw(st.integers(1, 3))))

    text = term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term()
    return text


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_parser_matches_reference(field, data):
    text = data.draw(expressions(NVARS, field == QI))
    max_degree = data.draw(st.none() | st.integers(0, 8))
    budgets = data.draw(st.fixed_dictionaries({}, optional={
        "MAX_PARSE_PRODUCTS": st.integers(0, 60),
        "MAX_PARSE_BITS": st.integers(0, 30),
        "MAX_NESTING": st.integers(1, 4),
        "MAX_EXPONENT": st.integers(1, 6),
    }))
    with pytest.MonkeyPatch.context() as patch:
        for name, value in budgets.items():
            patch.setattr(algebra, name, value)
        assert_same(text, field, NVARS, max_degree)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("text", [
    # Degrees at 2^31 - 1, 2^31 and past 2^63, where the keys widen.
    "(x0^1048576)^2047*x0^1048575 + x1",
    "(x0^1048576)^2048 + x1",
    "((x0^1048576)^1048576)^1048576 - x1^3",
    # A width taken for a degree that then cancels.
    "(x0^1048576)^2048*x1 - x1*(x0^1048576)^2048 + x2",
    "(x0^1048576)^2048 - (x0^1048576)^2048",
    "((x0 + x1)^2)^2 - (x0^2 + 2*x0*x1 + x1^2)^2 + (2*x0)^3",
    "(1/2 + 1/3)*x0*(1/6) - 5/36*x0 + 0*x1 + 26/13",
    # Negations that no later sum or product settles.
    "-x0", "--x0", "-(x0 + 2*x1)", "-1/2", "-x0 - -x1", "(-x0)^3",
])
def test_widths_cancellations_and_signs_match_reference(field, text):
    assert_same(text, field, NVARS)
    assert_same(text, field, NVARS, max_degree=2**40)


@pytest.mark.parametrize("text, field", [
    # A constant times a sum is charged; a product of two one-term
    # factors is not, over QQ(i) also when they have both halves.
    ("2*(x0 + x1)", QQ), ("(x0 + x1)*3*x2", GF(13)), ("(x0 + x1)*(x0 - x2)*(x1 + 1)", QQ),
    ("((1 + i)*x0 + x1)*(x0 + (2 - i)*x1)", QI), ("(2 + i)*(3 - i)*x0", QI),
    ("(1 + i)^3*((1 - i)*x0)^2", QI), ("((1 + i)*x0 + i*x1)^3", QI),
])
@pytest.mark.parametrize("budget", range(8))
def test_product_budgets_match_reference(monkeypatch, text, field, budget):
    monkeypatch.setattr(algebra, "MAX_PARSE_PRODUCTS", budget)
    assert_same(text, field, NVARS)


def test_budgets_are_read_at_call_time(monkeypatch):
    for name, value in (("MAX_PARSE_PRODUCTS", 3), ("MAX_PARSE_BITS", 1), ("MAX_NESTING", 1),
                        ("MAX_EXPONENT", 2)):
        monkeypatch.setattr(algebra, name, value)
    for text in ("(x0 + x1)*(x0 + x2)", "(2*x0)^2", "((x0))", "x0^3", "(4*x0)^1"):
        with pytest.raises(ParseError) as got:
            parse_poly(text, QQ, 3)
        with pytest.raises(ParseError) as want:
            reference_parse(text, QQ, 3)
        assert (str(got.value), got.value.position) == (str(want.value), want.value.position)


# ---------------------------------------------------------------------------
# The one reader against the two readers it replaced.


# The reader under test, which the operator-tree tests below compare with
# the polynomial operators.
recursive_parse = parse_poly


def read_outcome(read, *args):
    # A polynomial with its view, str and repr, or the type, message and
    # position of the error.
    try:
        poly = read(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return poly, poly._view, str(poly), repr(poly)


def assert_readers_agree(text, field, nvars, max_degree):
    # parse_poly reads a text as the scan and the recursive parser it
    # replaced did: to the same view, ``str`` and ``repr``, or to the same
    # error, message and position included.  Returns its polynomial, or
    # None where it raises.
    got = read_outcome(parse_poly, text, field, nvars, max_degree)
    assert got == read_outcome(reference_read, text, field, nvars, max_degree), text
    return got[0] if isinstance(got[0], Polynomial) else None


SCAN_FIELDS = [QQ, QI, GF(13), GF(2), GF(1282972393)]
SCAN_BOUNDS = [None, 0, 1, 3, 5, 20, 100]


@st.composite
def printed(draw, field, nvars):
    # The printed text of a polynomial with small and large exponents and
    # coefficients, both halves of a Gaussian one possibly zero.
    rational = st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**30)
    if field.kind == "Q":
        coefficient = rational
    elif field.kind == "Qi":
        coefficient = st.builds(algebra.GaussianRational, rational, rational)
    else:
        coefficient = st.integers(0, 2**40)
    exponents = st.lists(st.integers(0, 3) | st.sampled_from([7, 40, MAX_EXPONENT]),
                         min_size=nvars, max_size=nvars).map(tuple)
    terms = draw(st.lists(st.tuples(exponents, coefficient), max_size=6))
    return str(Polynomial.from_pairs(field, nvars, terms))


@st.composite
def edited(draw, text):
    # One to three characters inserted, deleted or replaced.
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(" +-*/^()ix0123456789@٢\t"))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        tail = text[at:] if kind == "insert" else text[at + 1:]
        text = text[:at] + ("" if kind == "delete" else char) + tail
    return text


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=str)
@given(data=st.data())
def test_printed_text_matches_the_reference_readers(field, data):
    nvars = data.draw(st.integers(1, 4))
    text = data.draw(printed(field, nvars))
    edit = data.draw(st.booleans())
    if edit:
        text = data.draw(edited(text))
    max_degree = data.draw(st.sampled_from(SCAN_BOUNDS))
    budgets = data.draw(st.fixed_dictionaries({}, optional={
        "MAX_NESTING": st.integers(0, 1),
        "MAX_EXPONENT": st.sampled_from([1, 3, 40]),
        "MAX_PARSE_BITS": st.integers(-1, 0),
    }))
    with pytest.MonkeyPatch.context() as patch:
        for name, value in budgets.items():
            patch.setattr(algebra, name, value)
        poly = assert_readers_agree(text, field, nvars, max_degree)
    if not (edit or budgets) and max_degree is None:
        assert poly is not None, text


EDGE_TEXTS = [
    "", "0", "-0", "1", "-1", "x0", "-x0", "--x0", "+x0", "x0 + x1", "x0 - x1", "x0 + -x1",
    "x0  + x1", " x0", "x0 ", "x0 +", "- x0", "x0+x1", "x0 * x1", "x1*x0", "x0*x0", "x0^0",
    "x0^1", "x0^2^3", "x0^2 ^ 3", "2*x0^2 ^ 3*x1", "x0 ^ 2", "x0^-1", "x0^", "2^3", "2*3",
    "3x0", "x0*3", "x0**x1", "x0*", "*x0",
    "1/2", "1/0", "0/5", "1/2/3", "13/13*x0", "13*x0", "1/13", "26/13*x1", "x3", "x01", "x",
    "y0", "x٢", "٢*x0", "x0^٢", "x0\t+ x1", "i", "1*i", "x0*i",
    "(1 + 2*i)", "(1 + 2*i)*x0", "-(1 + 2*i)*x0", "(0 + 1*i)*x1^2", "(-1/2 - 3/4*i)*x0*x1",
    "x0 - (1 - 1*i)*x1", "(1 + 2*i)x0", "(1 + -2*i)*x0", "(1 + 2*i) * x0", "(1 +  2*i)",
    "(1 + 2*i", "(1 + 2)", "(x0 + 1*i)", "(1 * 2*i)", "(--1 + 2*i)", "(1 + 2*i)*",
    "(1/0 + 2*i)", "(1 + 2/0*i)", "x0^1048576", "x0^1048577", "x0^1048576*x1^1048576",
    "x0^1048576*x0^1048576*x1^1048576", "(x0^1048576)^2048",
    "x1 + x0^200", "x0^200 - x0^200 + x1", "x1 + x0^40000",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_match_the_reference_readers(text):
    for budgets in ({}, {"MAX_NESTING": 0}, {"MAX_EXPONENT": 1}, {"MAX_PARSE_BITS": -1}):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in budgets.items():
                patch.setattr(algebra, name, value)
            for field in (QQ, QI, GF(13), GF(2)):
                for max_degree in (None, -1, 0, 1, 3):
                    assert_readers_agree(text, field, 2, max_degree)


@pytest.mark.parametrize("max_degree", [-1, 2**31, 10**1000], ids=["-1", "2^31", "10^1000"])
@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_reader_widths_under_any_bound(monkeypatch, text, max_degree):
    # Whatever its bound, the reader asks for the width of no negative
    # degree, which would never return, packs in fields of at most 64 bits,
    # as the widest term of these texts, (x0^1048576)^2048, has degree
    # 2^31, and answers as the readers it replaced do.
    widths = []
    width = algebra._width

    def recording(degree):
        assert degree >= 0
        widths.append(width(degree))
        return widths[-1]

    for field in (QQ, QI, GF(13)):
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_width", recording)
            outcome(parse_poly, text, field, 2, max_degree)
        assert_readers_agree(text, field, 2, max_degree)
    assert max(widths, default=0) <= 64


@pytest.fixture
def reads(monkeypatch):
    """The tokens of every read of the reader, in order, second reads
    included."""
    tokens_read = []
    init = algebra._Reader.__init__

    def counting(reader, tokens, *args):
        tokens_read.append(tokens)
        init(reader, tokens, *args)

    monkeypatch.setattr(algebra._Reader, "__init__", counting)
    return tokens_read


def test_a_document_reads_each_distinct_text_once(reads):
    # Every entry and f of a Fermat document has degree below 128, so each
    # is read once, at the narrowest width; "0" entries are not read.
    doc = mf_to_document(mf.fermat(4, 2))
    F = document_to_mf(doc)
    entries = {text for key in ("s0", "s1") for row in doc[key] for text in row if text != "0"}
    assert sorted(reads) == sorted(algebra._words(text) for text in [doc["f"], *entries])
    assert all(e._view[0] == algebra._width(e.total_degree)
               for m in (F.s0, F.s1) for row in m.rows for _, e in row)


@pytest.mark.parametrize("max_degree", [None, 200, 10**3999], ids=["None", "200", "10^3999"])
@pytest.mark.parametrize("text, count, width", [
    # The highest degree first: read at 8 bits, then once at its own width.
    ("x0^200 + x1", 2, 16),
    # Read at 16 bits, narrowed to 8 where the top degree cancels.
    ("x0^200 - x0^200 + x1", 2, 8),
    # Not canonical: each wider term has the text read again.
    ("x1 + x0^200 + x0^40000", 3, 32),
])
def test_the_reader_reads_at_its_terms_width(reads, text, count, width, max_degree):
    if max_degree == 200 and "40000" in text:
        # The second read meets the term past the bound, and the text is
        # read from its tokens at that width, which report the error.
        with pytest.raises(ParseError, match="degree 40000 exceeds the bound 200"):
            parse_poly(text, QQ, 2, max_degree)
        assert reads == [algebra._words(text)] * 2 + [algebra._tokens(text)[0]]
        return
    poly = parse_poly(text, QQ, 2, max_degree)
    assert reads == [algebra._words(text)] * count
    assert poly._view[0] == algebra._width(poly.total_degree) == width


def test_oversized_literals_are_the_reference_readers():
    # Past the interpreter's digit limit the reader reports a bad
    # character after the literal, and otherwise the limit's ValueError,
    # as the readers it replaced did.
    nines = "9" * 5001
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(ParseError, match=r"unexpected character '@' \(at position 5007\)"):
            parse_poly(f"{nines}*x0 + @", QQ, 1)
        for text in (f"{nines}*x0", f"x0^{nines}", f"x{nines}", f"1/{nines}",
                     f"({nines} + 1*i)", f"(1 + {nines}*i)*x0"):
            assert assert_readers_agree(text, QI, 1, None) is None
            with pytest.raises(ValueError) as got:
                parse_poly(text, QI, 1)
            with pytest.raises(ValueError) as want:
                reference_read(text, QI, 1)
            assert str(got.value) == str(want.value)
        sys.set_int_max_str_digits(0)
        assert assert_readers_agree(f"{nines}*x0", QQ, 1, None) is not None
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# The interpreter's digit limit, checked by int() alone in both readers.

@pytest.fixture
def digit_limit_640():
    # Sets the interpreter's digit limit to 640 and yields the message of
    # its ValueError for 641 digits, as this interpreter words it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError) as past:
            int("9" * 641)
        yield str(past.value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_numerator_past_the_digit_limit_is_converted_before_its_denominator(digit_limit_640):
    # The numerator is converted before "/" and the denominator are read,
    # so the limit's ValueError comes before the missing denominator.
    nines = "9" * 641
    for text in (f"{nines}/x0", f"{nines}/"):
        with pytest.raises(ValueError) as got:
            parse_poly(text, QQ, 1)
        assert type(got.value) is ValueError and str(got.value) == digit_limit_640
    # A bad character is found by the tokenizer, before any conversion.
    with pytest.raises(ParseError) as got:
        parse_poly(f"1/{nines}*x0 + @", QQ, 1)
    assert str(got.value) == "unexpected character '@' (at position 649)"


# Each place of a printed text that holds digits, as a text template and
# its field.
DIGIT_PLACES = {"numerator": ("{n}*x0", QQ), "denominator": ("1/{n}*x0", QQ),
                "real": ("({n} + 1*i)*x0", QI), "imaginary": ("(1 + {n}*i)*x0", QI),
                "exponent": ("x0^{n}", QQ), "index": ("x{n}", QQ)}


@pytest.mark.parametrize("place", DIGIT_PLACES)
@pytest.mark.parametrize("digits", [640, 641])
def test_digit_limit_at_every_number_of_a_printed_text(digit_limit_640, place, digits):
    # At 640 digits the reader reads a literal and refuses an exponent or
    # a variable index past its limit; at 641 digits every one of them
    # raises the interpreter's ValueError.  The readers it replaced agree.
    n = "9" * digits
    template, field = DIGIT_PLACES[place]
    text = template.format(n=n)
    got = assert_readers_agree(text, field, 1, None)
    if digits == 641:
        assert got is None
        with pytest.raises(ValueError) as got:
            parse_poly(text, field, 1)
        assert type(got.value) is ValueError and str(got.value) == digit_limit_640
    elif place in ("exponent", "index"):
        assert got is None
        with pytest.raises(ParseError) as got:
            parse_poly(text, field, 1)
        assert str(got.value) == {
            "exponent": f"exponent overflow (limit {MAX_EXPONENT}) (at position 3)",
            "index": f"unknown variable 'x{n}' (only x0..x0 in scope) (at position 0)",
        }[place]
    else:
        value = {"numerator": int(n), "denominator": Fraction(1, int(n)),
                 "real": algebra.GaussianRational(Fraction(int(n)), Fraction(1)),
                 "imaginary": algebra.GaussianRational(Fraction(1), Fraction(int(n)))}[place]
        want = Polynomial.from_pairs(field, 1, [((1,), value)])
        assert got == want
        assert parse_poly(text, field, 1) == want


# ---------------------------------------------------------------------------
# The reader against the polynomial operators.


def operator_trees(nvars, gaussian):
    # Expression trees: ("x", k), ("n", a, b) for the literal a/b (a alone
    # where b = 1), ("i",), ("neg", signs, tree) for a run of unary signs,
    # ("sum", tree, [(op, tree), ...]), ("mul", tree, tree) and ("pow",
    # tree, e).  A huge exponent applies only to a variable or to a huge
    # power of one, whose coefficient 1 adds no coefficient bits: such a
    # leaf has a degree up to 2^40, and its products pass 2^31 and 2^63.
    variable = st.builds(lambda k: ("x", k), st.integers(0, nvars - 1))
    huge = st.builds(lambda k, e, f: ("pow", ("pow", ("x", k), e), f),
                     st.integers(0, nvars - 1), st.sampled_from([MAX_EXPONENT - 1, MAX_EXPONENT]),
                     st.sampled_from([1, 2**11, 2**20]))
    number = st.builds(lambda a, b: ("n", a, b), st.integers(0, 12), st.sampled_from([1, 1, 2, 3, 7]))
    leaves = st.one_of(variable, variable, number, huge, *([st.just(("i",))] if gaussian else []))
    return st.recursive(leaves, lambda tree: st.one_of(
        st.builds(lambda signs, t: ("neg", signs, t), st.text("+-", min_size=1, max_size=4), tree),
        st.builds(lambda t, rest: ("sum", t, rest), tree,
                  st.lists(st.tuples(st.sampled_from("+-"), tree), min_size=1, max_size=3)),
        st.builds(lambda a, b: ("mul", a, b), tree, tree),
        st.builds(lambda t, e: ("pow", t, e), tree, st.integers(0, 3)),
    ), max_leaves=8)


# The grammar rule each tree kind parses as, loosest first; a leaf is an atom.
RULES = ["expr", "term", "signed", "power", "atom"]
TREE_RULES = {"sum": "expr", "mul": "term", "neg": "signed", "pow": "power"}


def render(tree, rule="expr"):
    # The text of a tree without spaces, to be read by ``rule``: a tree of
    # a looser rule is parenthesized.
    kind = tree[0]
    if RULES.index(TREE_RULES.get(kind, "atom")) < RULES.index(rule):
        return f"({render(tree)})"
    if kind == "x":
        return f"x{tree[1]}"
    if kind == "n":
        return str(tree[1]) if tree[2] == 1 else f"{tree[1]}/{tree[2]}"
    if kind == "i":
        return "i"
    if kind == "sum":
        return render(tree[1]) + "".join(op + render(t, "term") for op, t in tree[2])
    if kind == "mul":
        return render(tree[1], "term") + "*" + render(tree[2], "signed")
    if kind == "neg":
        return tree[1] + render(tree[2], "power")
    return f"{render(tree[1], 'atom')}^{tree[2]}"


def evaluate(tree, field, nvars):
    # The same tree with the polynomial operators, from Polynomial.variable
    # and Polynomial.constant.
    kind = tree[0]
    if kind == "x":
        return Polynomial.variable(field, nvars, tree[1])
    if kind == "n":
        return Polynomial.constant(field, nvars, Fraction(tree[1], tree[2]))
    if kind == "i":
        return Polynomial.constant(field, nvars, field.i())
    if kind == "neg":
        poly = evaluate(tree[2], field, nvars)
        for _ in range(tree[1].count("-")):
            poly = -poly
        return poly
    if kind == "sum":
        poly = evaluate(tree[1], field, nvars)
        for op, t in tree[2]:
            poly = poly + evaluate(t, field, nvars) if op == "+" else poly - evaluate(t, field, nvars)
        return poly
    if kind == "mul":
        return evaluate(tree[1], field, nvars) * evaluate(tree[2], field, nvars)
    return evaluate(tree[1], field, nvars) ** tree[2]


OPERATOR_FIELDS = [QQ, QI, GF(13), GF(2**31 - 1)]


def assert_operators_agree(text, tree, field, nvars):
    try:
        got = recursive_parse(text, field, nvars)
    except ParseError as exc:
        # Every text drawn is in the grammar and in scope: only a budget
        # may refuse one.
        assert re.search("needs more than|nested deeper", str(exc)), (text, exc)
        return None
    want = evaluate(tree, field, nvars)
    assert (got, got._view, str(got), repr(got)) == (want, want._view, str(want), repr(want)), text
    return got


@pytest.mark.parametrize("field", OPERATOR_FIELDS, ids=str)
@given(data=st.data())
def test_recursive_parser_matches_the_operators(field, data):
    tree = data.draw(operator_trees(NVARS, field == QI))
    assert_operators_agree(render(tree), tree, field, NVARS)


@pytest.mark.parametrize("field", OPERATOR_FIELDS, ids=str)
@pytest.mark.parametrize("tree, width", [
    # (x0^1048576)^2048 * x1^1048576, of degree 2^31 + 2^20.
    (("mul", ("pow", ("pow", ("x", 0), 2**20), 2**11), ("pow", ("x", 1), 2**20)), 64),
    # -(x0^1048575)^1048576 * (x1 + x2)^2, of degree about 2^40.
    (("mul", ("neg", "-", ("pow", ("pow", ("x", 0), 2**20 - 1), 2**20)),
      ("pow", ("sum", ("x", 1), [("+", ("x", 2))]), 2)), 64),
    # The cube of ((x0^1048576)^1048576)^2 + 2/3, of degree 3 * 2^41.
    (("pow", ("sum", ("pow", ("pow", ("pow", ("x", 0), 2**20), 2**20), 2), [("+", ("n", 2, 3))]), 3),
     64),
    # (((x0^1048576)^1048576)^1048576)^8 * x1, of degree 2^63 + 1.
    (("mul", ("pow", ("pow", ("pow", ("pow", ("x", 0), 2**20), 2**20), 2**20), 8), ("x", 1)), 128),
])
def test_recursive_parser_matches_the_operators_past_two_to_the_31(field, tree, width):
    # Each tree, and its difference with itself, which cancels to width 32.
    got = assert_operators_agree(render(tree), tree, field, NVARS)
    assert got._view[0] == width
    cancelled = ("sum", tree, [("-", tree)])
    assert assert_operators_agree(render(cancelled), cancelled, field, NVARS).is_zero


@pytest.mark.parametrize("field", [QQ, QI], ids=str)
def test_sum_of_every_variable_packs_no_exponent_vector(monkeypatch, field):
    # x0+x1+...+x1023 at nvars = MAX_NVARS: every variable is one key, so
    # no atom runs from_pairs, which packs an nvars-tuple per term.
    calls = []
    from_pairs = Polynomial.from_pairs.__func__
    monkeypatch.setattr(Polynomial, "from_pairs", classmethod(
        lambda cls, *args: calls.append(args) or from_pairs(cls, *args)))
    nvars = algebra.MAX_NVARS
    text = "+".join(f"x{k}" for k in range(nvars))
    poly = parse_poly(text, field, nvars)
    assert calls == []
    assert str(poly) == text.replace("+", " + ")
