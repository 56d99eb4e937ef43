"""Exact scalar arithmetic and sparse multivariate polynomials.

Three coefficient fields are supported:

* ``QQ``    -- arbitrary-precision rationals (backed by `fractions.Fraction`),
* ``QI``    -- Gaussian rationals a + b*i with rational a and b,
* ``GF(p)`` -- prime fields F_p for prime p < 2**31 (so that a product of
  two residues always fits in a 64-bit signed integer).

A polynomial's public ``terms`` is a tuple of (exponent vector,
coefficient) pairs over a fixed field and variable count x0..x{nvars-1},
in canonical form: no zero coefficients, no repeated exponent vectors, and terms sorted
in graded lexicographic order (highest total degree first, ties broken
lexicographically).  Equal polynomials are therefore equal as Python
values, which the test suite relies on for bit-exact comparisons.

:meth:`Polynomial.from_pairs` is the one way from outside values into a
polynomial, and ``Polynomial(field, nvars, terms)``, the form ``repr``
prints, runs it: it checks arity and signs of exponent vectors, converts
each coefficient once, by ``_raw_value``, to its raw view value (below),
sums the coefficients of each monomial and settles the sums as
arithmetic does, so every polynomial is canonical; an integer
coefficient never becomes a public scalar on the way.
:meth:`Field.coerce` wraps the same raw value into the public scalar.
Arithmetic does not re-validate; its results are made by the trusted
constructor ``Polynomial._from_view`` (below).  Only this module builds
a view: a variable is :meth:`Polynomial.variable`, one packed key, and
the constant i is ``Polynomial._i``, one pair, both in O(1) whatever
``nvars``.

There is one multiplicative inverse, ``_inverse``, on raw values:
modulo p over GF(p), else (re - im*i) / (re^2 + im^2), each part a
Fraction only where it is not an integer.  :meth:`Field.inv` wraps the
inverse of ``_raw_value``'s value as :meth:`Field.coerce` wraps that
value; ``GaussianRational.inverse`` is ``QI.inv`` and
``FpElement.inverse`` inverts modulo its own p.  The GF(p) denominators
of a Fraction or a literal go through it, and so do the pivots that
:func:`mf.reduce` splits off, by ``_minus_inverse`` on the raw values
of their views, with no public scalar built: the pivots +-1 over QQ and
+-1 and +-i over QQ(i) load no fractions.

Sums and products of polynomials share one multiply-accumulate loop,
``_sum_products``.  A sum of any number of signed summands is one
``Polynomial._signed_sum`` (each summand times +1 or -1), and a power
is one ``Polynomial._power``: a one-term base has its view scaled by
``_view_power``, any other is squared and multiplied.  The matrix kernel
``Polynomial._row_sums`` yields the rows of a product of two sparse
polynomial matrices one at a time, each summed by ``_sum_products`` in
one dict keyed by column and monomial (Gustavson, ACM TOMS 4(3), 1978).
``Polynomial._first_entry_off`` compares each yielded row with f * id
and stops at the first that differs, for :func:`mf.validate`;
``Polynomial._product_rows`` sorts each row once and splits it into
polynomials, for :func:`graded.compose`.  The splits of
:func:`mf.reduce` run in ``Polynomial._split_units`` on raw views: an
entry that an update touches is kept as the settled dict {key: raw
value} of its view at one width, each update is one ``_sum_products``
call that starts from the entry it replaces, and only the entries left
after the last split become polynomials.  No other module reads a
packed key or picks a width.

The loop runs on each polynomial's view.  The view packs each
monomial into one int (Monagan and Pearce, CASC 2007): the total degree
in the top field, then x0, x1, ... in fields of equal width, so that
adding two ints multiplies the monomials and int order is graded
lexicographic order.  A width is ``_MIN_WIDTH`` = 8 bits, doubled until
a degree stays below half of the field range (``_width``), and two rules
place every width: a value is stored at the width of its own degree
(``_from_view``), and a kernel call runs at the width of its widest
operand, so the degree of every product fits; one loop thus covers every
degree.  Narrow fields keep keys short: a
degree-4 monomial in 12 variables packs into 104 bits, not 416, and the
dict updates of the loop hash and add ints of that size.  Every field
is a whole number of bytes, so ``_codec`` packs and unpacks a key, and
``_repack`` moves it to another width, through one ``bytes`` of the
key, in time linear in ``nvars``; at 8 bits each byte is a field.
Operands of different widths meet wherever degrees cross 128 or
32,768, and a repack field by field, one big-int shift each, was
quadratic in ``nvars``: on 2 vCPUs under Python 3.11, repacking 1,024
keys in 1,024 variables from 8 to 16 bits took 0.56 s that way and
takes 6 ms through bytes.  Coefficients
are raw: GF(p) residues as plain ints, summed unreduced and reduced
``% p`` once per output term; QQ values as ints or Fractions.  Over QQ(i) a coefficient splits into its nonzero
real and imaginary halves, the exponent of i kept in the two low bits of
the key, so a product of halves is one multiplication: the coefficients
1 and i of Fermat-type factorizations cost one dict update per term
product, not two.  A view lists its (key, value) pairs by descending
key, so over QQ(i) a monomial's imaginary half comes before its real
half.  Sums of such pairs are settled into that one format by one step,
``_settle``: residues reduced, zero sums dropped, and over QQ(i) each
sum at i^2 folded onto the real half with its sign flipped.

Storage rule: the view is the value.  Every polynomial holds its view,
at the width of its total degree, from construction on, so equal
polynomials have equal views; ``==``, ``hash``, ``str`` and the queries
read it.  ``terms`` is derived: built from the view the first time it is
read, by ``_terms_from_view``, each term unpacked and wrapped into the
public scalar type once, so terms always hold an ``FpElement`` in
[0, p), a ``GaussianRational`` with Fraction parts, or a Fraction.

The expression grammar accepted by :func:`parse_poly`::

    expr   := term (('+' | '-') term)*
    term   := signed ('*' signed)*
    signed := ('+' | '-')* power
    power  := atom ('^' NUMBER)?
    atom   := '(' expr ')' | NUMBER ('/' NUMBER)? | 'i' | 'x' INDEX

The token ``i`` is only available over ``QI``.  The canonical printer
emits terms in monomial order with explicit ``*`` and ``^``, rationals as
``a/b`` and Gaussian coefficients as ``(a/b + c/d*i)``; printed output
parses back to the same polynomial.

One reader, ``_Reader``, reads every text, in one recursive descent
that evaluates on raw dicts.  A term whose factors are numbers, ``i``,
variables and their powers is one raw coefficient and one packed key,
the terms of a sum are added into one dict, each with the sign before
it and those before its factors, and the dict is settled once by
``_settle``; over QQ(i) a parenthesized coefficient ``(re + im*i)`` or
``(re - im*i)`` of integer parts, as the printer writes it, is one raw
constant.  Only parentheses that hold anything else, and powers of
anything but a variable, go through the polynomial operators, ``a * b``
after the budget charge and ``Polynomial._power``, which keep every
result at the width of its degree.  A read packs at one width,
``_MIN_WIDTH`` first; a term whose degree that width cannot hold has the
text read again at the width of that degree, so printed text, which
lists its highest degree first, is read at most twice.

An ASCII text is read from its words (``_words``): the text split at
white space once every operator but ``^`` is set apart by spaces, so
that a printed factor ``xk^e`` is one word, with no regular expression.
A word that is not one token of the grammar or such a power cannot be
read, and neither can a power ``xk^e`` past a bound or before another
``^``; where a read of words fails, there or on any error, the text is
read again from its tokens (``_tokens``, one ``re.finditer``), which
alone give an error its position, a character outside the grammar
before anything else.  Any
other text is read from its tokens at once.  Every number is converted
by int(), a numerator before its denominator, so the interpreter's digit
limit is checked by int() alone.  On 2 vCPUs under Python 3.11 the reader
reads a printed entry of two terms in 6-12 us and a 12-term sum in 20-30
us (the range is the vCPU's speed over time).

The reader bounds the work of one parse: an optional degree bound on
every ``*`` and ``^``, MAX_PARSE_PRODUCTS term products, and
MAX_PARSE_BITS coefficient bits, charged before each ``^`` as the
exponent times the bits one power step can add (nothing over GF(p), and
nothing for the coefficients 1 and i, so printed output always parses).

All values in this module are immutable and all operations are pure, so
they may be freely shared between concurrent tasks; the terms built
from a view are a cache, and two tasks that build them at once build
the same value.  So is ``_neg``: the first ``-p`` links p and
its negation both ways, so that every later ``-p`` is that one object
and ``-(-p)`` is p, and the negations of a matrix, of a shift or of a
tensor product share their entries however often they are taken.  Two
tasks that negate p at once may each link an equal object; either link
is correct.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd, prod

from ._value import value_class

# Type checkers take this name for typing's.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

NEG_INFINITY = float("-inf")

# Largest allowed prime modulus: p*p must fit in a signed 64-bit integer.
PRIME_LIMIT = 2**31 - 1

# Largest exponent accepted by the parser.
MAX_EXPONENT = 2**20

# Largest variable count accepted by the parser: every monomial stores an
# nvars-tuple of exponents.
MAX_NVARS = 2**10

# Deepest parenthesis nesting accepted by the parser, which recurses
# through two frames per level: well inside the interpreter's limit.
MAX_NESTING = 64

# Most term products one parse may form: the sum over its products a * b
# of the monomials of a times those of b, charged before each product.
# The degree bound alone admits expansions such as (x0 + ... + x11)^400,
# which has about 10^20 terms.
MAX_PARSE_PRODUCTS = 2**16

# Most coefficient bits the powers of one parse may add, charged before
# each `^` as exponent * _power_step_bits(base).  One-term bases pass the
# product budget free, so without it (((2*x0)^1024)^1024)^1024 would
# build a 2^30-bit integer within any degree bound of 2^30 or more.
MAX_PARSE_BITS = 2**24

# Bits per field of the narrowest packed monomials: total degrees up to 127.
_MIN_WIDTH = 8


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@lru_cache(maxsize=None)
def _fraction() -> type:
    # fractions.Fraction, imported where a Fraction is first built or
    # checked: fractions (with decimal and numbers, which it imports)
    # costs 2.3-3.8 ms of start-up, and a GF(p) command never loads it.
    # A from-import statement in each of those places would cost about
    # 1 us per call (Python 3.11), this call about 40 ns.
    from fractions import Fraction
    return Fraction


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 4,759,123,141 = 48,781 * 97,561,
    # the least odd composite that the witnesses 2, 7 and 61 all pass
    # (Jaeschke, Math. Comp. 61, 1993); Field passes n <= PRIME_LIMIT only.
    # A witness that n divides proves nothing and is skipped.
    if n < 2 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if not a % n or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@value_class
class GaussianRational:
    """Element a + b*i of the field Q(i), with rational a and b."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        Fraction = _fraction()
        if not isinstance(self.re, Fraction) or not isinstance(self.im, Fraction):
            # A float part would compute inexactly, a str or Decimal one be parsed.
            if not all(isinstance(part, (int, Fraction)) for part in (self.re, self.im)):
                raise ValueError("Gaussian rational parts must be ints or Fractions")
            object.__setattr__(self, "re", Fraction(self.re))
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GaussianRational":
        return QI.inv(self)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


@value_class
class FpElement:
    """Residue in [0, p) of the prime field F_p."""

    value: int
    p: int

    def __post_init__(self):
        # A float value or modulus would compute inexactly, a bool modulus as an int.
        if type(self.p) is not int or self.p < 1 or not isinstance(self.value, int):
            raise ValueError("a residue needs an int value and an int modulus >= 1")
        object.__setattr__(self, "value", self.value % self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def _check(self, other: "FpElement") -> None:
        if self.p != other.p:
            raise ValueError(f"prime field mismatch: F_{self.p} vs F_{other.p}")

    def __add__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.value + other.value, self.p)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.value - other.value, self.p)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.value, self.p)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.value * other.value, self.p)

    def inverse(self) -> "FpElement":
        # Modulo its own p, which need not be prime.
        return FpElement(_inverse(self.value, self.p), self.p)

    def __str__(self) -> str:
        return str(self.value)


Scalar = "Fraction | GaussianRational | FpElement"


def _sqrt_minus_one(p: int) -> int:
    # For p = 1 (mod 4): a^((p-1)/4) squares to -1 when a is a nonresidue.
    # a = 1 passes only for p = 2, where 1 = -1 is its own square root.
    for a in range(1, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ValueError(f"no square root of -1 modulo {p}")


@value_class
class Field:
    """Descriptor for one of the supported coefficient fields.

    ``kind`` is ``"Q"``, ``"Qi"`` or ``"Fp"``; ``p`` is the modulus for
    ``"Fp"`` and None otherwise.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "Qi", "Fp"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "Fp":
            # A float or bool modulus would compute inexactly or as an int.
            if type(self.p) is not int:
                raise ValueError(f"prime modulus must be an int, not {type(self.p).__name__}")
            if self.p < 2 or self.p > PRIME_LIMIT:
                raise ValueError(f"prime modulus must lie in [2, {PRIME_LIMIT}]")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError(f"field {self.kind!r} takes no modulus")

    # Computed once per field; cached_property writes to the instance
    # dict, which the frozen value class does not guard.
    @cached_property
    def zero(self) -> Scalar:
        return self.coerce(0)

    @cached_property
    def one(self) -> Scalar:
        return self.coerce(1)

    def coerce(self, value) -> Scalar:
        """Convert an int, Fraction or same-field scalar to this field: the
        public scalar of its raw view value."""
        return _scalar(self, _raw_value(self, value))

    def inv(self, value) -> Scalar:
        """The inverse of a nonzero int, Fraction or same-field scalar, the
        values that :meth:`coerce` takes: the public scalar of the inverse
        of its raw view value."""
        return _scalar(self, _inverse(_raw_value(self, value), self.p))

    def has_sqrt_minus_one(self) -> bool:
        return self.kind == "Qi" or self.kind == "Fp" and (self.p % 4 == 1 or self.p == 2)

    def i(self) -> Scalar:
        """A distinguished square root of -1, if the field has one."""
        if not self.has_sqrt_minus_one():
            raise ValueError(f"{self} contains no square root of -1")
        if self.kind == "Qi":
            return GaussianRational(0, 1)
        return FpElement(_sqrt_minus_one(self.p), self.p)

    def __str__(self) -> str:
        if self.kind == "Q":
            return "QQ"
        if self.kind == "Qi":
            return "QQ(i)"
        return f"GF({self.p})"


QQ = Field("Q")
QI = Field("Qi")


def GF(p: int) -> Field:
    """The prime field F_p (p must be prime and below 2**31)."""
    return Field("Fp", p)


def _raw(q: Fraction) -> int | Fraction:
    # A rational component as a plain int when it is integral.
    return q.numerator if q.denominator == 1 else q


def _raw_value(field: Field, value) -> int | Fraction | list:
    # The raw view value of an int, a Fraction or a scalar of ``field``: an
    # int or a Fraction over QQ, [re, im] over QQ(i), a residue over GF(p).
    # Fraction is looked for last, so an int never loads fractions.
    p = field.p
    if isinstance(value, int):
        raw = value
    elif p and isinstance(value, FpElement):
        if value.p != p:
            raise ValueError(f"prime field mismatch: F_{value.p} vs F_{p}")
        return value.value
    elif field.kind == "Qi" and isinstance(value, GaussianRational):
        return [_raw(value.re), _raw(value.im)]
    elif isinstance(value, _fraction()):
        raw = value.numerator * _inverse(value.denominator, p) if p else _raw(value)
    else:
        raise ValueError(f"cannot coerce {value!r} into {field}")
    if p:
        return raw % p
    return [raw, 0] if field.kind == "Qi" else raw


def _inverse(raw, p: int | None = None):
    # The inverse of a nonzero raw view value: modulo p where p is given,
    # else (re - im*i) / (re^2 + im^2) of [re, im] over QQ(i) or of [raw, 0]
    # over QQ, each part a Fraction only where it is not an integer, so
    # that inverting +-1 or +-i loads no fractions.
    if p:
        if not raw % p:
            raise ZeroDivisionError(f"inverse of zero in F_{p}")
        return pow(raw, -1, p)
    gaussian = isinstance(raw, list)
    re, im = raw if gaussian else (raw, 0)
    norm = re * re + im * im
    if not norm:
        raise ZeroDivisionError(f"inverse of zero {'Gaussian ' * gaussian}rational")
    parts = [q // norm if not q % norm else _fraction()(q, norm) for q in (re, -im)]
    return parts if gaussian else parts[0]


def _width(degree: int) -> int:
    # Bits per field of the packed monomials of a polynomial of total
    # degree `degree` >= 0: the least _MIN_WIDTH * 2^k with degree <
    # 2^(width - 1), so that the degree of a product of two such
    # polynomials still fits.  A negative degree never leaves the loop.
    width = _MIN_WIDTH
    while degree >> (width - 1):
        width *= 2
    return width


def _settle(field: Field, acc: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    # The (key, value) pairs of sums of view values in the one format of a
    # view: residues reduced, each sum at i^2 folded onto the real half
    # (i^2 = -1), zero sums dropped.  Consumes ``acc``.
    if field.kind == "Fp":
        p = field.p
        return {k: residue for k, value in acc.items() if (residue := value % p)}
    if field.kind == "Qi":
        for k in [k for k in acc if k & 2]:
            acc[k ^ 2] = acc.get(k ^ 2, 0) - acc.pop(k)
    return {k: value for k, value in acc.items() if value}


def _degree_shift(field: Field, nvars: int, width: int) -> int:
    # A view key shifted right by this is its total degree: the top field
    # of nvars + 1, above the two bits that hold the exponent of i over
    # QQ(i).
    return width * nvars + (2 if field.kind == "Qi" else 0)


def _column_shift(field: Field, nvars: int, width: int) -> int:
    # The kernel keys a term of column c as c << this | key: above the
    # field of the total degree, which a product of two operands of
    # ``width`` fills.
    return _degree_shift(field, nvars, width) + width


def _kernel_width(*matrices: Iterable[Iterable[tuple[int, "Polynomial"]]]) -> int:
    # The width of the widest entry of these sparse rows.
    return max([p._view[0] for rows in matrices for row in rows for _, p in row], default=_MIN_WIDTH)


@lru_cache(maxsize=64)
def _codec(nvars: int, width: int):
    """(pack, unpack) for monomials in ``nvars`` variables packed into
    ``width``-bit fields, the total degree in the top field, then x0,
    x1, ...: integer order is graded lexicographic order.  ``pack`` maps
    an exponent tuple to its int, ``unpack`` an int to its tuple.  A
    field is ``width // 8`` whole bytes, so both go through one
    big-endian ``bytes`` of the key, in time linear in ``nvars``: fields
    of 1, 2, 4 or 8 bytes by one ``struct.Struct`` each way, wider ones
    by one ``to_bytes`` per field."""
    size = width // 8
    length = size * (nvars + 1)
    if size <= 8:
        # Imported on the first call only: the codec is cached.
        from struct import Struct
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[size]
        full, tail = Struct(f">{nvars + 1}{code}"), Struct(f">{nvars}{code}")
        return (lambda exponents: int.from_bytes(full.pack(sum(exponents), *exponents), "big"),
                lambda packed: tail.unpack_from(packed.to_bytes(length, "big"), size))
    # The bytes of x0, x1, ... in the key's bytes, below the total degree.
    cuts = [slice(k, k + size) for k in range(size, length, size)]

    def pack(exponents):
        return int.from_bytes(b"".join([e.to_bytes(size, "big") for e in (sum(exponents), *exponents)]), "big")

    def unpack(packed):
        data = packed.to_bytes(length, "big")
        return tuple([int.from_bytes(data[cut], "big") for cut in cuts])
    return pack, unpack


def _repack(field: Field, nvars: int, pairs: list, width: int, new: int) -> list:
    # View pairs packed at ``width``, packed again at ``new``: each key's
    # bytes (over QQ(i) without the two low bits of i, put back after)
    # copied by one slice assignment per byte that both field sizes hold,
    # counted from the low end of each field, into a buffer whose other
    # bytes stay zero.  Linear in ``nvars``; graded lexicographic order
    # does not depend on the width, so the order holds.
    old, size = width // 8, new // 8
    low = 2 if field.kind == "Qi" else 0
    length, dst = old * (nvars + 1), bytearray(size * (nvars + 1))

    def move(k):
        src = (k >> low).to_bytes(length, "big")
        for back in range(1, min(old, size) + 1):
            dst[size - back::size] = src[old - back::old]
        return int.from_bytes(dst, "big") << low | k & (1 << low) - 1
    return [(move(k), value) for k, value in pairs]


def _sum_products(field: Field, products: Iterable[tuple[Iterable, Iterable]], start: Iterable = ()) -> dict:
    # The one multiply-accumulate loop: the settled sum of the view pairs
    # ``start`` and of left * right over ``products``, pairs of views at
    # one width that holds the degree of the sum, each term product (k1, a)
    # * (k2, c) added at k1 + k2.  ``right`` is iterated once per pair of
    # ``left``.
    acc: dict = dict(start) if start else {}
    for left, right in products:
        for k1, a in left:
            for k2, c in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + a * c
    return _settle(field, acc)


# The view pairs of the constants +1 and -1, by the operator of a summand.
_UNITS = {"+": ((0, 1),), "-": ((0, -1),)}


def _size(field: Field, pairs: Collection[tuple]) -> int:
    # The number of terms of a view: over QQ(i), of monomials with a nonzero half.
    return len({k >> 2 for k, _ in pairs}) if field.kind == "Qi" else len(pairs)


def _view_power(field: Field, pairs: list, exponent: int) -> list:
    # The view of (c*x^a)^k = c^k * x^(k*a) from the view of one monomial
    # c*x^a, at a width that holds the power's degree; c^k is nonzero in a
    # field.
    if field.kind == "Qi":
        (key, c), = _raw_terms(True, pairs)
        if c != [1, 0]:
            c = _power(c, exponent, (1, 0), _gaussian_mul)
        key = key * exponent << 2
        return [(k, value) for k, value in ((key + 1, c[1]), (key, c[0])) if value]
    (key, c), = pairs
    if c != 1:
        c = pow(c, exponent, field.p) if field.p else c ** exponent
    return [(key * exponent, c)]


def _power(base, e: int, one, times):
    # base^e by square-and-multiply, each product formed by times.
    result = one
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base) if e > 1 else base
        e >>= 1
    return result


def _gaussian_mul(a: tuple, b: tuple) -> tuple:
    # (a0 + a1*i) * (b0 + b1*i) on raw (real, imaginary) pairs.
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@value_class
class Polynomial:
    """Sparse multivariate polynomial in canonical form.

    ``Polynomial(field, nvars, terms)`` is :meth:`from_pairs`: the terms
    may come in any order, with repeated exponent vectors and zero
    coefficients, and are made canonical (duplicates summed, zeros
    dropped, sorted).
    """

    field: Field
    nvars: int
    terms: tuple[tuple[tuple[int, ...], Scalar], ...]

    # The value is the view, ``_view`` = (width, pairs): each pair a (key,
    # raw coefficient), keys descending.  The key is the monomial packed
    # by _codec(nvars, width) at the width of the total degree; the
    # coefficient is an int residue over GF(p) and an int or a Fraction
    # over QQ.  Over QQ(i) a term splits into its nonzero halves: key * 4
    # + 1 with the imaginary part, then key * 4 with the real part.

    def __init__(self, field: Field, nvars: int, terms) -> None:
        # The form ``repr`` prints, read as from_pairs reads any outside terms.
        self.__dict__.update(Polynomial.from_pairs(field, nvars, terms).__dict__)

    @cached_property
    def terms(self) -> tuple:
        # Built on first read and kept in the instance dict, which then
        # shadows the property.
        return _terms_from_view(self)

    # -- construction --------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        field: Field,
        nvars: int,
        pairs: Iterable[tuple[tuple[int, ...], Scalar]] | Mapping[tuple[int, ...], Scalar],
    ) -> "Polynomial":
        """The polynomial of (exponent vector, coefficient) pairs, in any
        order: each vector's arity, integer entries and signs checked,
        each coefficient coerced into ``field``, the coefficients of a
        repeated vector summed and zero sums dropped."""
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        checked, top = [], 0
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {nvars}")
            # A float, Fraction, str or None among the exponents makes the
            # sum another type, or raises: one check per vector, not per
            # exponent.  A bool counts as the int it equals.
            try:
                degree = sum(exps)
            except TypeError:
                degree = None
            if type(degree) is not int:
                raise ValueError(f"exponent vector {exps} holds a value that is not an int")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            checked.append((exps, _raw_value(field, coeff)))
            top = degree if degree > top else top
        # Packed at the width of the highest degree given; _from_view packs
        # the sum again at its own, should that degree cancel.
        width = _width(top)
        pack = _codec(nvars, width)[0]
        acc: dict[int, int | Fraction] = {}
        for exps, value in checked:
            key = pack(exps)
            if field.kind == "Qi":
                halves = ((key << 2 | 1, value[1]), (key << 2, value[0]))
            else:
                halves = ((key, value),)
            for k, value in halves:
                acc[k] = acc.get(k, 0) + value
        return cls._from_settled(field, nvars, width, _settle(field, acc))

    @classmethod
    def _sum_of_products(
        cls, field: Field, nvars: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]
    ) -> "Polynomial":
        """The sum of ``left * right`` over ``pairs``, at the width of the
        widest operand.  Trusted, as :meth:`_product_rows` is."""
        pairs = list(pairs)
        width = max([p._view[0] for pair in pairs for p in pair], default=_MIN_WIDTH)
        return cls._from_settled(field, nvars, width, _sum_products(
            field, [(left._kernel_view(width), right._kernel_view(width)) for left, right in pairs]))

    @classmethod
    def _signed_sum(cls, field: Field, nvars: int, summands: Sequence[tuple]) -> "Polynomial":
        """The sum of the (polynomial, "+" or "-") ``summands``, at the
        width of the widest summand: one _sum_products call.  Trusted, as
        :meth:`_sum_of_products` is."""
        width = max([p._view[0] for p, _ in summands])
        return cls._from_settled(field, nvars, width, _sum_products(
            field, [(p._kernel_view(width), _UNITS[op]) for p, op in summands]))

    @classmethod
    def _from_settled(cls, field: Field, nvars: int, width: int, settled: dict) -> "Polynomial":
        # The polynomial of a settled dict {key: value} at ``width``.
        return cls._from_view(field, nvars, width, sorted(settled.items(), reverse=True))

    @classmethod
    def _product_rows(
        cls, field: Field, nvars: int, left_rows: Sequence[Iterable[tuple[int, "Polynomial"]]],
        right_rows: Sequence[Iterable[tuple[int, "Polynomial"]]],
    ) -> list[list[tuple[int, "Polynomial"]]]:
        """The kernel: the rows of the matrix product L * R, with L and R
        given by their sparse rows of (column, polynomial), zeros allowed.
        Row r of the result lists the nonzero sums of L[r][m] * R[m][c]
        over m as (c, polynomial), c ascending (Gustavson, ACM TOMS 4(3),
        1978): the rows that :meth:`_row_sums` yields at the width of the
        widest operand, each sorted once and split into its polynomials.
        Trusted: every operand must lie in the ring (``field``,
        ``nvars``).  See the module docstring."""
        width = _kernel_width(left_rows, right_rows)
        shift = _column_shift(field, nvars, width)
        return [cls._row_from_sums(field, nvars, width, shift, sums)
                for sums in cls._row_sums(field, nvars, width, left_rows, right_rows)]

    @classmethod
    def _row_sums(cls, field: Field, nvars: int, width: int, left_rows: Iterable[Iterable[tuple]],
                  right_rows: Sequence[Iterable[tuple]]) -> Iterator[dict]:
        """The kernel, one row of L * R at a time, each one _sum_products
        call: yields the settled sums of each row as one dict {c << shift
        | k: value}, for the column c and the key k at ``width`` of each
        nonzero term, where shift is ``_column_shift(field, nvars,
        width)``; ``width`` must hold every operand.  Each row of R is
        packed once, on first use, and kept across rows; a consumer that
        stops early forms no later row.  Trusted, as :meth:`_product_rows`
        is."""
        shift = _column_shift(field, nvars, width)
        right_terms: dict[int, list] = {}
        for row in left_rows:
            for m, _ in row:
                if m not in right_terms:
                    right_terms[m] = [((c << shift) + k, value) for c, right in right_rows[m]
                                      for k, value in right._kernel_view(width)]
            yield _sum_products(field, [(left._kernel_view(width), right_terms[m]) for m, left in row])

    @classmethod
    def _split_units(cls, field: Field, nvars: int, s0: dict[int, dict], s1: dict[int, dict]) -> None:
        """The elimination of :func:`mf.reduce`, in place on the sparse
        rows {row: {column: nonzero entry}} of s0 and s1: s0 and then s1
        scanned once for units, resuming at the row of the last pivot, and
        the first unit of the first row that holds one split off (the
        policy and the deletions are those of ``mf.reduce``).  Between
        splits an entry is the input's own polynomial until an update
        touches it, and then the settled dict {key: raw value} of its view
        at the width of the widest input entry, which holds every update:
        an update keeps its entry's degree.  A split scales the pivot row
        once by -1/u and forms each updated entry by one _sum_products
        call; each dict left at the end becomes one polynomial, at its own
        width.  Trusted: every entry lies in the ring (``field``,
        ``nvars``) and both maps are homogeneous of degree 0."""
        width = _kernel_width(*([row.items() for row in rows.values()] for rows in (s0, s1)))

        def view(entry):
            # Its view pairs at ``width``, where a dict's are already.
            return entry.items() if type(entry) is dict else entry._kernel_view(width)
        for a, b in ((s0, s1), (s1, s0)):
            start, gone = 0, set()
            while True:
                # The units of the first row from ``start`` on that holds one:
                # only the monomial 1 packs to keys below 2, 0 and, over QQ(i), 1.
                for r, row in a.items():
                    if r >= start and (units := [c for c, e in row.items() if (
                            0 in e or 1 in e if type(e) is dict else e._view[1][-1][0] < 2)]):
                        break
                else:
                    break
                start, c, pivot = r, min(units), a.pop(r)
                u = pivot.pop(c)
                del b[c]
                gone.add(r)
                rows = [(row, q) for row in a.values() if (q := row.pop(c, None)) is not None]
                if not (rows and pivot):
                    continue
                minus = list(_minus_inverse(field, dict(view(u))).items())
                scaled = [(k, list(_sum_products(field, [(view(p), minus)]).items())) for k, p in pivot.items()]
                for row, q in rows:
                    q = view(q)
                    for k, s in scaled:
                        # q * s plus the entry that it replaces: a polynomial,
                        # settled sums, or none.
                        old = row.get(k, ())
                        if sums := _sum_products(field, ((q, s),), old._kernel_view(width) if type(old) is cls else old):
                            row[k] = sums
                        else:
                            row.pop(k, None)
            # The splits of ``a`` read nothing of ``b``, whose columns of the
            # rows deleted from ``a`` go once they are done.
            for row in b.values():
                for k in gone.intersection(row):
                    del row[k]
        for row in (*s0.values(), *s1.values()):
            row.update({k: cls._from_settled(field, nvars, width, e) for k, e in row.items() if type(e) is dict})

    @classmethod
    def _row_from_sums(cls, field: Field, nvars: int, width: int, shift: int,
                       sums: dict[int, int | Fraction]) -> list[tuple[int, "Polynomial"]]:
        # The nonzero polynomials of one row that _row_sums yields: its
        # pairs sorted once and split at the column slots above ``shift``,
        # each slot's pairs one polynomial's view.
        items = sorted(sums.items(), reverse=True)
        mask = (1 << shift) - 1
        row = [(slot, cls._from_view(field, nvars, width,
                                     [(k & mask, value) for k, value in group]))
               for slot, group in groupby(items, lambda item: item[0] >> shift)]
        row.reverse()
        return row

    @classmethod
    def _first_entry_off(cls, f: "Polynomial", left_rows: Sequence[Iterable[tuple]],
                         right_rows: Sequence[Iterable[tuple]]) -> tuple[int, int, "Polynomial"] | None:
        """The first entry (r, c, entry) of L * R, in row order and then
        column order, at which it differs from f * id, or None where it
        equals f * id; f is nonzero.  Each row is compared as
        :meth:`_row_sums` settles it: row r of f * id is f's view in
        column r.  The fields hold every operand and f's degree, as they
        hold that of any product of two operands, so f of degree 128 over
        entries of degree 64 is compared at 8 bits and no operand is
        packed again.  No row after the first that differs is formed, and
        only that row is split into polynomials.  Trusted, as
        :meth:`_product_rows` is."""
        field, nvars = f.field, f.nvars
        width = max(_kernel_width(left_rows, right_rows), _width(f.total_degree >> 1))
        shift, view = _column_shift(field, nvars, width), f._kernel_view(width)
        for r, sums in enumerate(cls._row_sums(field, nvars, width, left_rows, right_rows)):
            if sums != {(r << shift) + k: value for k, value in view}:
                # The row differs at its nonzeros off the diagonal and, unless
                # it holds f there, at (r, r).
                got = dict(cls._row_from_sums(field, nvars, width, shift, sums))
                zero = cls.zero(field, nvars)
                c = min(c for c in {*got, r} if c != r or got.get(r, zero) != f)
                return r, c, got.get(c, zero)
        return None

    @classmethod
    def _from_view(cls, field: Field, nvars: int, width: int, view: list) -> "Polynomial":
        """Trusted constructor: the polynomial whose view at ``width`` is
        ``view``, settled (key, value) pairs with keys descending.  At a
        width other than its degree's, the keys are packed again at that
        one; ``terms`` is built on first read."""
        degree = view[0][0] >> _degree_shift(field, nvars, width) if view else 0
        own = _width(degree)
        if own != width:
            view = _repack(field, nvars, view, width, own)
        poly = object.__new__(cls)
        poly.__dict__.update(field=field, nvars=nvars, _view=(own, view))
        return poly

    # The negation of this polynomial, linked both ways by __neg__: a
    # cache, not a field.
    _neg = None

    def _kernel_view(self, width: int) -> list:
        # The view's pairs at ``width``, packed again if it is not their own.
        own, pairs = self._view
        return pairs if width == own else _repack(self.field, self.nvars, pairs, own, width)

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls._from_view(field, nvars, _MIN_WIDTH, [])

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls.from_pairs(field, nvars, (((0,) * nvars, value),))

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "Polynomial":
        if not (type(index) is int and 0 <= index < nvars):
            raise ValueError(f"variable index {index!r} out of range for {nvars} variables")
        # Total degree 1 in the top field and exponent 1 in field x{index},
        # above the two bits of i over QQ(i): one key, whatever ``nvars``.
        key = (1 << _MIN_WIDTH * nvars) + (1 << _MIN_WIDTH * (nvars - 1 - index))
        return cls._from_view(field, nvars, _MIN_WIDTH, [(key << 2 if field.kind == "Qi" else key, 1)])

    @classmethod
    def _i(cls, field: Field, nvars: int) -> "Polynomial":
        # The constant i, one pair of a view: over QQ(i) the imaginary half
        # 1, else the residue of field.i(), which raises where the field has
        # no square root of -1.
        view = [(1, 1)] if field.kind == "Qi" else [(0, field.i().value)]
        return cls._from_view(field, nvars, _MIN_WIDTH, view)

    @classmethod
    def monomial(cls, field: Field, nvars: int, exponents: Iterable[int], coeff=1) -> "Polynomial":
        return cls.from_pairs(field, nvars, ((exponents, coeff),))

    # -- value ------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.nvars, self._view) == (other.field, other.nvars, other._view)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(self._view[1])))

    # -- queries --------------------------------------------------------

    # Graded order puts a term of highest degree first and the constant
    # term, if any, last.

    @property
    def is_zero(self) -> bool:
        return not self._view[1]

    @property
    def total_degree(self) -> int | float:
        """Total degree, or NEG_INFINITY for the zero polynomial."""
        width, pairs = self._view
        return pairs[0][0] >> _degree_shift(self.field, self.nvars, width) if pairs else NEG_INFINITY

    @property
    def is_homogeneous(self) -> bool:
        # The first and the last term have the same degree.
        width, pairs = self._view
        shift = _degree_shift(self.field, self.nvars, width)
        return not pairs or pairs[0][0] >> shift == pairs[-1][0] >> shift

    @property
    def _has_constant_term(self) -> bool:
        # A nonzero constant term, read from the view without building a
        # scalar (over QQ and QQ(i) a scalar, even zero, loads fractions):
        # the last key is that of the monomial 1, 0, and over QQ(i) 1 for
        # the imaginary half.
        pairs = self._view[1]
        return bool(pairs) and not pairs[-1][0] >> 2 * (self.field.kind == "Qi")

    @property
    def constant_term(self) -> Scalar:
        return _scalar(self.field, _raw_constant(self.field, dict(self._view[1][-2:])))

    # -- arithmetic -----------------------------------------------------

    def _check_compat(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compat(other)
        return Polynomial._signed_sum(self.field, self.nvars, ((self, "+"), (other, "+")))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compat(other)
        return Polynomial._signed_sum(self.field, self.nvars, ((self, "+"), (other, "-")))

    def __neg__(self) -> "Polynomial":
        # Linked both ways on first use (see the module docstring); the
        # zero polynomial is its own negation.  Keys are kept, and over
        # GF(p) a residue r becomes p - r.
        neg = self._neg
        if neg is None:
            if self.is_zero:
                neg = self
            else:
                (width, pairs), p = self._view, self.field.p
                pairs = [(k, p - c) for k, c in pairs] if p else [(k, -c) for k, c in pairs]
                neg = Polynomial._from_view(self.field, self.nvars, width, pairs)
            object.__setattr__(neg, "_neg", self)
            object.__setattr__(self, "_neg", neg)
        return neg

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scalar_mul(other)
        self._check_compat(other)
        return Polynomial._sum_of_products(self.field, self.nvars, ((self, other),))

    def __rmul__(self, other) -> "Polynomial":
        return self.scalar_mul(other)

    def scalar_mul(self, scalar) -> "Polynomial":
        return self * Polynomial.constant(self.field, self.nvars, scalar)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return self._power(exponent, Polynomial.__mul__)

    def _power(self, exponent: int, times) -> "Polynomial":
        # self^exponent: a one-term base has its view scaled at the width of
        # the power's degree; any other is squared and multiplied by the
        # module's _power, each product formed by ``times``.
        field, nvars = self.field, self.nvars
        if _size(field, self._view[1]) != 1:
            return _power(self, exponent, Polynomial._from_view(field, nvars, _MIN_WIDTH, [(0, 1)]), times)
        width = _width(self.total_degree * exponent)
        return Polynomial._from_view(field, nvars, width,
                                     _view_power(field, self._kernel_view(width), exponent))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        # Each term from its raw coefficient: a sign, then the magnitude
        # unless it is 1 and a monomial follows, a Gaussian coefficient
        # with a nonzero imaginary part as "(re +/- |im|*i)".
        width, pairs = self._view
        if not pairs:
            return "0"
        unpack = _codec(self.nvars, width)[1]
        gaussian = self.field.kind == "Qi"
        pieces: list[str] = []
        for k, c in _raw_terms(gaussian, pairs):
            sign = "+"
            if gaussian and c[1]:
                text = f"({c[0]} {'+' if c[1] > 0 else '-'} {abs(c[1])}*i)"
            else:
                c = c[0] if gaussian else c
                if c < 0:
                    sign, c = "-", -c
                text = str(c)
            mono = _monomial_text(unpack(k))
            if mono:
                text = mono if text == "1" else f"{text}*{mono}"
            pieces.append(f" {sign} {text}")
        # The first sign is written without its spaces, and "+" not at all.
        text = "".join(pieces)
        return text[3:] if text[1] == "+" else "-" + text[3:]


def _raw_constant(field: Field, sums: Mapping[int, int | Fraction]) -> int | Fraction | list:
    # The raw value of the constant term as _raw_terms lists it, zero
    # included, of view pairs {key: value}, such as the last two of a view:
    # only the monomial 1 packs to the keys 0 and, over QQ(i), 1.
    return [sums.get(0, 0), sums.get(1, 0)] if field.kind == "Qi" else sums.get(0, 0)


def _minus_inverse(field: Field, sums: Mapping[int, int | Fraction]) -> dict:
    # The settled view of -1/c for the nonzero constant term c of ``sums``:
    # the raw inverse of c negated, no public scalar built (over QQ and
    # QQ(i) one would load fractions).
    inverse = _inverse(_raw_constant(field, sums), field.p)
    halves = enumerate(inverse) if field.kind == "Qi" else ((0, inverse),)
    return _settle(field, {k: -value for k, value in halves})


def _raw_terms(gaussian: bool, pairs: list) -> Iterable:
    # The (key, raw coefficient) of each term of a view, keys descending;
    # over QQ(i) the key without the two bits of i, and the coefficient
    # the list [re, im] of its halves.
    if not gaussian:
        return pairs
    parts: dict[int, list] = {}
    for k, value in pairs:
        parts.setdefault(k >> 2, [0, 0])[k & 1] = value
    return parts.items()


def _scalar(field: Field, raw) -> Scalar:
    # The public scalar of a raw coefficient as _raw_terms lists it: an
    # FpElement, a Fraction, or over QQ(i) a GaussianRational of [re, im].
    if field.kind == "Qi":
        return GaussianRational(*raw)
    return FpElement(raw, field.p) if field.p else _fraction()(raw)


def _terms_from_view(poly: Polynomial) -> tuple:
    # The terms of a polynomial: each term of its view unpacked and wrapped
    # into the public scalar type, once.
    width, pairs = poly._view
    unpack = _codec(poly.nvars, width)[1]
    field = poly.field
    return tuple([(unpack(k), _scalar(field, c))
                  for k, c in _raw_terms(field.kind == "Qi", pairs)])


def _power_step_bits(values: Collection[int | Fraction]) -> int:
    # The bits, up to rounding, that one multiplication by a polynomial
    # with these raw nonzero coefficients (both halves over QQ(i)) can add
    # to a coefficient of a power of it: bit_length - 1 of the sum of the
    # absolute numerators plus that of the product of the denominators.
    # The coefficients 1 and i give 0.
    numerators = sum(abs(q.numerator) for q in values)
    denominators = prod(q.denominator for q in values)
    return max(numerators.bit_length() - 1, 0) + denominators.bit_length() - 1


def _monomial_text(exps: tuple[int, ...]) -> str:
    factors = []
    for k, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{k}")
        elif e > 1:
            factors.append(f"x{k}^{e}")
    return "*".join(factors)


def degree_info(p: Polynomial) -> tuple[int | float, bool]:
    """(total degree, is_homogeneous); the zero polynomial reports
    (NEG_INFINITY, True)."""
    return p.total_degree, p.is_homogeneous


# ---------------------------------------------------------------------------
# Parsing


# A token of the grammar: a number, a name or an operator.  Any other
# character but white space is a token of its own, which no rule reads.
_TOKEN = r"(\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()])|\S"


def _tokens(text: str) -> tuple[list[str], list[int]]:
    # The tokens of ``text`` and their positions, each list closed by the
    # end, "" at len(text).  A character outside the grammar raises.
    for m in (matches := list(re.finditer(_TOKEN, text))):
        if m.lastindex is None:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
    return [m.group() for m in matches] + [""], [m.start() for m in matches] + [len(text)]


def _words(text: str) -> list[str]:
    # The words of an ASCII ``text`` once every operator but '^' is set
    # apart by spaces, closed by "": its tokens wherever each word is one
    # token or a power xk^e.
    return [*text.replace("+", " + ").replace("-", " - ").replace("*", " * ").replace("/", " / ").replace(
        "(", " ( ").replace(")", " ) ").split(), ""]


def _index(name: str) -> int | None:
    # k for the name xk of a variable, else None.
    return int(name[1:]) if name[:1] == "x" and name[1:].isdigit() else None


class _Wider(Exception):
    """A term does not fit the width of a read: read the text again at
    the width ``args[0]``."""


class _Reader:
    """One read of an expression at one width (see the module docstring).
    A value is a Polynomial or a raw term (coefficient, key, degree): the
    key packed at the read's width, the degree NEG_INFINITY where the
    coefficient is zero.  Each result is formed only after the checks of
    the parse's bounds and budgets.  An error is raised at the position of
    a token, or at -1 in a read of words, which knows no positions."""

    def __init__(self, tokens: list[str], positions: list[int] | None, field: Field, nvars: int,
                 max_degree: int | None, width: int):
        self.tokens, self.positions, self.i, self.field, self.nvars = tokens, positions, 0, field, nvars
        self.max_degree, self.width, self.p, self.gaussian = max_degree, width, field.p, field.kind == "Qi"
        self.one, self.depth, self.products, self.bits = (1, 0) if self.gaussian else 1, 0, 0, 0

    def fail(self, message: str, index: int):
        raise ParseError(message, self.positions[index] if self.positions else -1)

    def check_degree(self, degree: int | float, index: int) -> None:
        # Called before a product is formed, so that an expression whose
        # expansion exceeds the bound costs no more than reading it.
        if self.max_degree is not None and degree > self.max_degree:
            self.fail(f"degree {degree} exceeds the bound {self.max_degree}", index)

    def product(self, a: Polynomial | tuple, b: Polynomial | tuple, index: int) -> Polynomial:
        # a * b for the '*' at token ``index``, after the degree bound and
        # a charge of its term products.  A product of two monomials is one
        # term product, and there are no more of them than tokens, so it is
        # not charged: a printed polynomial parses back whatever its size.
        a, b = self.poly(a), self.poly(b)
        self.check_degree(a.total_degree + b.total_degree, index)
        cost = _size(self.field, a._view[1]) * _size(self.field, b._view[1])
        if cost > 1:
            self.products += cost
            if self.products > MAX_PARSE_PRODUCTS:
                self.fail(f"expansion needs more than {MAX_PARSE_PRODUCTS} term products", index)
        return a * b

    def poly(self, value) -> Polynomial:
        # The polynomial of a value: a raw term must fit the read's width.
        if type(value) is not tuple:
            return value
        coef, key, degree = value
        if degree >= 1 << self.width - 1:
            raise _Wider(_width(degree))
        # A zero coefficient, of degree NEG_INFINITY, is settled away.
        key += max(degree, 0) << _degree_shift(self.field, self.nvars, self.width)
        acc = {key: coef[0], key + 1: coef[1]} if self.gaussian else {key: coef}
        return Polynomial._from_settled(self.field, self.nvars, self.width, _settle(self.field, acc))

    def expr(self) -> dict:
        # expr := term (('+' | '-') term)*, term := signed ('*' signed)*,
        # signed := ('+' | '-')* power: the terms added into one dict,
        # settled once.  The sign before a term and those before its
        # factors negate the term, which is one raw value while its factors
        # are.  A variable, its power and an integer are read here, any
        # other atom and power by atom and power.
        tokens, i, one, p, gaussian, max_degree = self.tokens, self.i, self.one, self.p, self.gaussian, self.max_degree
        acc, nvars, width = {}, self.nvars, self.width
        # x{k} is packed at top less width * k, the total degree at
        # degree_shift; fits is the highest degree that the width holds,
        # and a power of a variable up to cap is within every bound.
        top, fits = (degree_shift := _degree_shift(self.field, nvars, width)) - width, (1 << width - 1) - 1
        cap = (MAX_EXPONENT if max_degree is None or max_degree > MAX_EXPONENT else max_degree) * (MAX_PARSE_BITS >= 0)
        while True:
            # The term so far: poly, or else coef * key of degree ``degree``,
            # set by its first factor; star is the index of its last '*'.
            poly, star, negate = None, None, False
            while True:
                while (text := tokens[i]) in ("+", "-"):
                    negate ^= text == "-"
                    i += 1
                i += 1
                name, caret, exponent = text.partition("^")
                if (index := _index(name)) is not None and (not caret or exponent.isdecimal() and tokens[i] != "^"):
                    # A word xk^e past a bound fails too, and is read again
                    # from the tokens, which alone report the error; one
                    # before another '^' is not read here, as the grammar
                    # has one '^' to a power.
                    e = int(exponent) if caret else 1
                    if index >= nvars or caret and e > cap:
                        self.fail(f"unknown variable {text!r} (only x0..x{nvars - 1} in scope)", i - 1)
                    value = one, e << top - width * index, e
                elif text.isdecimal() and tokens[i] != "/":
                    c = int(text) % p if p else int(text)
                    value = ((c, 0) if gaussian else c), 0, 0 if c else NEG_INFINITY
                else:
                    value, i = self.atom(text, i - 1)
                if tokens[i] == "^":
                    value, i = self.power(value, i), i + 2
                if poly is None and type(value) is tuple:
                    if star is None:
                        coef, key, degree = value
                    else:
                        degree += value[2]
                        if max_degree is not None and degree > max_degree:
                            self.check_degree(degree, star)
                        if (c := value[0]) != one:
                            coef = _gaussian_mul(coef, c) if gaussian else coef * c % p if p else coef * c
                        key += value[1]
                else:
                    poly = self.poly(value) if star is None else \
                        self.product((coef, key, degree) if poly is None else poly, value, star)
                if tokens[i] != "*":
                    break
                star, i = i, i + 1
            if poly is not None or degree > fits:
                poly = self.poly((coef, key, degree)) if poly is None else poly
                if poly._view[0] > width:
                    raise _Wider(poly._view[0])
                for k, c in poly._kernel_view(width):
                    acc[k] = acc.get(k, 0) - c if negate else acc.get(k, 0) + c
            elif degree >= 0:
                key += degree << degree_shift
                if gaussian:
                    if coef[1]:
                        acc[key + 1] = acc.get(key + 1, 0) - coef[1] if negate else acc.get(key + 1, 0) + coef[1]
                    coef = coef[0]
                if coef:
                    acc[key] = acc.get(key, 0) - coef if negate else acc.get(key, 0) + coef
            if tokens[i] != "+" and tokens[i] != "-":
                self.i = i
                return _settle(self.field, acc)

    def atom(self, text: str, at: int) -> tuple:
        # The atom ``text`` at token ``at`` and the index after it, read by
        # expr where it is a variable or an integer.
        tokens, p = self.tokens, self.p
        if text.isdecimal():
            # The numerator is converted first: past the interpreter's
            # digit limit, its ValueError wins over any error after it.
            value, denominator = int(text), tokens[at + 2]
            if not denominator.isdigit():
                self.fail("expected an integer denominator", at + 2)
            if not int(denominator):
                self.fail("zero denominator in rational literal", at + 2)
            common = gcd(value, int(denominator))
            value, denominator = value // common, int(denominator) // common
            if p and not denominator % p:
                self.fail(f"inverse of zero in F_{p}", at)
            value = value * _inverse(denominator, p) % p if p else value if denominator == 1 else \
                _fraction()(value, denominator)
            return (((value, 0) if self.gaussian else value), 0, 0 if value else NEG_INFINITY), at + 3
        if text == "(":
            return self.group(at)
        if text == "i" and self.gaussian:
            return ((0, 1), 0, 0), at + 1
        self.fail("'i' is only available over QQ(i)" if text == "i" else
                  f"unknown variable {text!r}" if text[:1].isidentifier() else
                  f"unexpected {text!r}" if text else "unexpected end of input", at)

    def power(self, base, at: int) -> Polynomial | tuple:
        # base ^ NUMBER, the '^' at token ``at``.
        text = self.tokens[at + 1]
        if not text.isdecimal():
            self.fail("expected a nonnegative integer exponent", at + 1)
        exponent = int(text)
        if exponent > MAX_EXPONENT:
            self.fail(f"exponent overflow (limit {MAX_EXPONENT})", at + 1)
        if not exponent:
            return self.one, 0, 0
        # A power of a variable stays raw; GF(p) residues never grow.
        raw = type(base) is tuple and base[0] == self.one
        base = base if raw else self.poly(base)
        self.check_degree(exponent * (base[2] if raw else base.total_degree), at)
        self.bits += 0 if self.p or raw else exponent * _power_step_bits([v for _, v in base._view[1]])
        if self.bits > MAX_PARSE_BITS:
            self.fail(f"powers need more than {MAX_PARSE_BITS} coefficient bits", at)
        return (self.one, base[1] * exponent, base[2] * exponent) if raw else \
            base._power(exponent, lambda a, b: self.product(a, b, at))

    def group(self, at: int) -> tuple:
        # '(' expr ')' at token ``at`` and the index after it.
        if self.depth == MAX_NESTING:
            self.fail(f"parentheses nested deeper than {MAX_NESTING}", at)
        tokens, i = self.tokens, at + 1
        # The printed Gaussian coefficient (re + im*i) or (re - im*i) of
        # integer parts is read as one raw constant.
        if (self.gaussian and tokens[i + 3:i + 6] == ["*", "i", ")"] and tokens[i + 1] in ("+", "-") and
                tokens[i].isdecimal() and tokens[i + 2].isdecimal() and (self.max_degree or 0) >= 0):
            real, imag = int(tokens[i]), int(tokens[i + 2])
            return ((real, imag if tokens[i + 1] == "+" else -imag), 0, 0 if real or imag else NEG_INFINITY), i + 6
        self.i, self.depth = i, self.depth + 1
        sums = self.expr()
        self.depth -= 1
        if tokens[self.i] != ")":
            self.fail("expected ')'", self.i)
        return Polynomial._from_settled(self.field, self.nvars, self.width, sums), self.i + 1


def parse_poly(text: str, field: Field, nvars: int,
               max_degree: int | None = None) -> Polynomial:
    """Parse an expression string into a canonical polynomial in at most
    MAX_NVARS variables.

    With ``max_degree``, every ``*`` and ``^`` whose result would have
    total degree above it raises :class:`ParseError` before the product
    is computed; sums are not checked, and a polynomial printed by this
    module parses under its own total degree.  A parse whose products
    would form more than MAX_PARSE_PRODUCTS term products in all, or whose
    powers could add more than MAX_PARSE_BITS coefficient bits in all,
    raises :class:`ParseError` at the operator that crosses the budget.
    One reader reads every text, from its words or its tokens (see the
    module docstring)."""
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    if nvars > MAX_NVARS:
        raise ValueError(f"nvars {nvars} exceeds MAX_NVARS = {MAX_NVARS}")
    words, width = isinstance(text, str) and text.isascii(), _MIN_WIDTH
    tokens, positions = (_words(text), None) if words else _tokens(text)
    while True:
        try:
            sums = (reader := _Reader(tokens, positions, field, nvars, max_degree, width)).expr()
            if tokens[reader.i]:
                reader.fail(f"unexpected {tokens[reader.i]!r}", reader.i)
            return Polynomial._from_settled(field, nvars, width, sums)
        except _Wider as wider:
            width = wider.args[0]
        except ValueError:
            # A read of words that fails, on a word that is no token or on
            # any error, is read again from the tokens, which alone give
            # every error its position, a bad character's first.
            if not words:
                raise
            (tokens, positions), words = _tokens(text), False
