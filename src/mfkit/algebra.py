"""Exact scalar arithmetic and sparse multivariate polynomials.

Three coefficient fields are supported:

* ``QQ``    -- arbitrary-precision rationals (backed by `fractions.Fraction`),
* ``QI``    -- Gaussian rationals a + b*i with rational a and b,
* ``GF(p)`` -- prime fields F_p for prime p < 2**31 (so that a product of
  two residues always fits in a 64-bit signed integer).

A polynomial is stored as a tuple of (exponent vector, coefficient) pairs
over a fixed field and variable count x0..x{nvars-1}, kept in canonical
form: no zero coefficients, no repeated exponent vectors, and terms sorted
in graded lexicographic order (highest total degree first, ties broken
lexicographically).  Equal polynomials are therefore equal as Python
values, which the test suite relies on for bit-exact comparisons.

:meth:`Polynomial.from_pairs` is the validating entry point: it checks
arity and signs of exponent vectors and coerces every coefficient into
the field.  Arithmetic does not re-validate; its results, whose terms
are already well formed, go through the trusted ``Polynomial._canonical``,
which only drops zero terms and sorts.

Sums and products share one loop, ``Polynomial._product_rows``, which
forms the rows of a product of two sparse polynomial matrices:
``_sum_of_products`` (behind ``*``, ``+``, ``-`` and a parsed sum of N
summands, one call with right factors +1 and -1) is its 1 x n by n x 1
case, :func:`graded.compose` passes it the rows of its two factors, and
a split of :func:`mf.reduce` updates every row of the Schur complement
in one call.  Each output row is accumulated in one dict keyed by column
and monomial and sorted once (Gustavson, ACM TOMS 4(3), 1978).

The loop runs on each polynomial's kernel view, built once on first use
and attached to every output of the loop, so chained products do not
build it again.  The view packs each monomial into one int (Monagan and
Pearce, CASC 2007): the total degree in the top field, then x0, x1, ...
in fields of equal width, so that adding two ints multiplies the
monomials and int order is graded lexicographic order.  The width is 32
bits, doubled until the degree of every operand stays below half of the
field range; one loop thus covers every degree.  Coefficients are raw:
GF(p) residues as plain ints, summed unreduced and reduced ``% p`` once
per output term; QQ values as ints when integral, else as Fractions.
Over QQ(i) a coefficient splits into its nonzero real and imaginary
halves, the exponent of i kept in the two low bits of the key, so a
product of halves is one multiplication: the coefficients 1 and i of
Fermat-type factorizations cost one dict update per term product, not
two.  A view lists its (key, value) pairs by descending key, so over
QQ(i) a monomial's imaginary half comes before its real half.

Every field settles an output row into that one format: residues
reduced, zero sums dropped, and over QQ(i) each sum at i^2 folded onto
the real half with its sign flipped.  The row is sorted once and split
at its column slots, and each slot's pairs become its polynomial's view
as they are.  Wrapping is then the one step per field: each output term
is unpacked and wrapped into the public scalar type once, so terms
always hold an ``FpElement`` in [0, p), a ``GaussianRational`` with
Fraction parts, or a Fraction.

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

The parser bounds the work of one parse: an optional degree bound on
every ``*`` and ``^``, MAX_PARSE_PRODUCTS term products, and
MAX_PARSE_BITS coefficient bits, charged before each ``^`` as the
exponent times the bits one power step can add (nothing over GF(p), and
nothing for the coefficients 1 and i, so printed output always parses).

All values in this module are immutable and all operations are pure, so
they may be freely shared between concurrent tasks; a kernel view is a
cache, and two tasks that build it at once build the same value.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import prod
from operator import mul
from struct import Struct

from ._value import value_class

NEG_INFINITY = float("-inf")

# Largest allowed prime modulus: p*p must fit in a signed 64-bit integer.
PRIME_LIMIT = 2**31 - 1

# Largest exponent accepted by the parser.
MAX_EXPONENT = 2**20

# Largest variable count accepted by the parser: every monomial stores an
# nvars-tuple of exponents.
MAX_NVARS = 2**10

# Deepest parenthesis nesting accepted by the parser, which recurses
# through five frames per level: well inside the interpreter's limit.
MAX_NESTING = 64

# Most term products one parse may form: the sum over its products of
# len(a.terms) * len(b.terms), charged before each product.  The degree
# bound alone admits expansions such as (x0 + ... + x11)^400, which has
# about 10^20 terms.
MAX_PARSE_PRODUCTS = 2**16

# Most coefficient bits the powers of one parse may add, charged before
# each `^` as exponent * _power_step_bits(base).  One-term bases pass the
# product budget free, so without it (((2*x0)^1024)^1024)^1024 would
# build a 2^30-bit integer within any degree bound of 2^30 or more.
MAX_PARSE_BITS = 2**24


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the witness set covers all n < 3.3e24.
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
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


@value_class
class GaussianRational:
    """Element a + b*i of the field Q(i), with rational a and b."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not isinstance(self.re, Fraction) or not isinstance(self.im, Fraction):
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
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

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

    def __bool__(self) -> bool:
        return self.value != 0

    def _check(self, other: "FpElement") -> None:
        if self.p != other.p:
            raise ValueError(f"prime field mismatch: F_{self.p} vs F_{other.p}")

    def __add__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.value - other.value) % self.p, self.p)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.value % self.p, self.p)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.value * other.value % self.p, self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return FpElement(pow(self.value, -1, self.p), self.p)

    def __str__(self) -> str:
        return str(self.value)


Scalar = Fraction | GaussianRational | FpElement


def _sqrt_minus_one(p: int) -> int:
    # For p = 1 (mod 4): a^((p-1)/4) squares to -1 when a is a nonresidue.
    for a in range(2, p):
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
            if self.p is None or self.p < 2 or self.p > PRIME_LIMIT:
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
        """Convert an int, Fraction or same-field scalar to this field."""
        if self.kind == "Q":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        elif self.kind == "Qi":
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, (int, Fraction)):
                return GaussianRational(Fraction(value), Fraction(0))
        else:
            if isinstance(value, FpElement):
                if value.p != self.p:
                    raise ValueError(f"prime field mismatch: F_{value.p} vs F_{self.p}")
                return value
            if isinstance(value, int):
                return FpElement(value % self.p, self.p)
            if isinstance(value, Fraction):
                num = FpElement(value.numerator % self.p, self.p)
                den = FpElement(value.denominator % self.p, self.p)
                return num * den.inverse()
        raise ValueError(f"cannot coerce {value!r} into {self}")

    def inv(self, value: Scalar) -> Scalar:
        if self.kind == "Q":
            if value == 0:
                raise ZeroDivisionError("inverse of zero rational")
            return Fraction(1) / value
        return value.inverse()

    def has_sqrt_minus_one(self) -> bool:
        if self.kind == "Qi":
            return True
        if self.kind == "Fp":
            return self.p % 4 == 1 or self.p == 2
        return False

    def i(self) -> Scalar:
        """A distinguished square root of -1, if the field has one."""
        if self.kind == "Qi":
            return GaussianRational(Fraction(0), Fraction(1))
        if self.kind == "Fp":
            if self.p == 2:
                return FpElement(1, 2)
            if self.p % 4 == 1:
                return FpElement(_sqrt_minus_one(self.p), self.p)
        raise ValueError(f"{self} contains no square root of -1")

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


def _width(degree: int) -> int:
    # Bits per field of the packed monomials of a polynomial of total
    # degree `degree`: the least 32 * 2^k with degree < 2^(width - 1), so
    # that the degree of a product of two such polynomials still fits.
    width = 32
    while degree >> (width - 1):
        width *= 2
    return width


@lru_cache(maxsize=64)
def _codec(nvars: int, width: int):
    """(pack, unpack) for monomials in ``nvars`` variables packed into
    ``width``-bit fields, the total degree in the top field, then x0,
    x1, ...: integer order is graded lexicographic order.  ``pack`` maps
    an exponent tuple to its int, ``unpack`` an int to its tuple."""
    if width <= 64:
        code = "I" if width == 32 else "Q"
        full, tail = Struct(f">{nvars + 1}{code}"), Struct(f">{nvars}{code}")
        size, skip = full.size, width // 8

        def pack(exponents):
            return int.from_bytes(full.pack(sum(exponents), *exponents), "big")

        def unpack(packed):
            return tail.unpack_from(packed.to_bytes(size, "big"), skip)
    else:
        size = width // 8
        offsets = range(size, size * (nvars + 1), size)

        def pack(exponents):
            return int.from_bytes(b"".join(e.to_bytes(size, "big") for e in (sum(exponents), *exponents)),
                                  "big")

        def unpack(packed):
            data = packed.to_bytes(size * (nvars + 1), "big")
            return tuple(int.from_bytes(data[k:k + size], "big") for k in offsets)
    return pack, unpack


def _halves(pack, terms):
    # The view terms of QQ(i) terms: (4 * key + 1, im) and (4 * key, re),
    # nonzero halves only, so that keys descend as in a kernel output.
    # Keys add under products and the exponents of i add in the low two
    # bits, which never carry.
    for exponents, c in terms:
        k = pack(exponents) << 2
        if c.im:
            yield k | 1, _raw(c.im)
        if c.re:
            yield k, _raw(c.re)


@value_class
class Polynomial:
    """Sparse multivariate polynomial in canonical form.

    Do not build ``terms`` by hand; use the classmethod constructors or
    arithmetic, which canonicalize (drop zeros, merge duplicates, sort).
    """

    field: Field
    nvars: int
    terms: tuple[tuple[tuple[int, ...], Scalar], ...]

    # -- construction --------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        field: Field,
        nvars: int,
        pairs: Iterable[tuple[tuple[int, ...], Scalar]] | Mapping[tuple[int, ...], Scalar],
    ) -> "Polynomial":
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        acc: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = field.coerce(coeff)
            if exps in acc:
                acc[exps] = acc[exps] + coeff
            else:
                acc[exps] = coeff
        return cls._canonical(field, nvars, acc)

    @classmethod
    def _canonical(
        cls, field: Field, nvars: int, acc: Mapping[tuple[int, ...], Scalar]
    ) -> "Polynomial":
        """Trusted constructor: ``acc`` maps distinct exponent tuples of
        arity ``nvars`` to coefficients already in ``field``.  Drops zero
        coefficients and sorts in graded lexicographic order, highest
        total degree first; nothing is checked."""
        terms = sorted(
            ((exps, coeff) for exps, coeff in acc.items() if coeff),
            key=lambda term: (sum(term[0]), term[0]),
            reverse=True,
        )
        return cls(field, nvars, tuple(terms))

    @classmethod
    def _sum_of_products(
        cls, field: Field, nvars: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]
    ) -> "Polynomial":
        """The sum of ``left * right`` over ``pairs``: the one entry of a
        1 x n by n x 1 :meth:`_product_rows`."""
        lefts, rights = [], []
        for left, right in pairs:
            lefts.append((len(rights), left))
            rights.append(((0, right),))
        (row,) = cls._product_rows(field, nvars, (lefts,), rights)
        return row[0][1] if row else cls(field, nvars, ())

    @classmethod
    def _product_rows(
        cls, field: Field, nvars: int, left_rows: Sequence[Iterable[tuple[int, "Polynomial"]]],
        right_rows: Sequence[Iterable[tuple[int, "Polynomial"]]],
    ) -> list[list[tuple[int, "Polynomial"]]]:
        """The kernel: the rows of the matrix product L * R, with L and R
        given by their sparse rows of (column, polynomial), zeros allowed.
        Row r of the result lists the nonzero sums of L[r][m] * R[m][c]
        over m as (c, polynomial), c ascending (Gustavson, ACM TOMS 4(3),
        1978).  Each result row is accumulated in one dict keyed by column
        and packed monomial and sorted once; each row of R is packed once
        per call.  Trusted: every operand must lie in the ring (``field``,
        ``nvars``).  See the module docstring."""
        # Every operand gets its view here, and the widest sets the width.
        width = max([p._kernel_view()[0] for rows in (left_rows, right_rows) for row in rows
                     for _, p in row], default=32)
        shift = width * (nvars + 1) + (2 if field.kind == "Qi" else 0)
        right_terms: dict[int, list] = {}
        out = []
        for row in left_rows:
            acc: dict[int, int | Fraction] = {}
            for m, left in row:
                rterms = right_terms.get(m)
                if rterms is None:
                    rterms = right_terms[m] = []
                    for c, right in right_rows[m]:
                        terms = right._kernel_view(width)[1]
                        if c:
                            base = c << shift
                            terms = [(base + k, value) for k, value in terms]
                        rterms += terms
                for m1, a in left._kernel_view(width)[1]:
                    for m2, c in rterms:
                        k = m1 + m2
                        acc[k] = acc.get(k, 0) + a * c
            out.append(cls._row_from_sums(field, nvars, width, shift, acc) if acc else [])
        return out

    @classmethod
    def _row_from_sums(cls, field: Field, nvars: int, width: int, shift: int,
                       acc: dict[int, int | Fraction]) -> list[tuple[int, "Polynomial"]]:
        # The nonzero polynomials of one accumulated row, each with its
        # view: the settled (key, value) pairs, sorted once, split at the
        # column slots above ``shift`` and kept as the views.
        kind = field.kind
        if kind == "Fp":
            p = field.p
            items = [(k, residue) for k, value in acc.items() if (residue := value % p)]
        else:
            if kind == "Qi":
                # i^2 = -1: fold each sum at i^2 onto the real half.
                for k in [k for k in acc if k & 2]:
                    acc[k ^ 2] = acc.get(k ^ 2, 0) - acc.pop(k)
            items = [(k, value) for k, value in acc.items() if value]
        items.sort(reverse=True)
        mask = (1 << shift) - 1
        unpack = _codec(nvars, width)[1]
        row = []
        for slot, group in groupby(items, lambda item: item[0] >> shift):
            view = [(k & mask, value) for k, value in group]
            if kind == "Fp":
                terms = [(unpack(k), FpElement(value, p)) for k, value in view]
            elif kind == "Q":
                terms = [(unpack(k), Fraction(value)) for k, value in view]
            else:
                parts: dict[int, list] = {}
                for k, value in view:
                    parts.setdefault(k >> 2, [0, 0])[k & 1] = value
                terms = [(unpack(k), GaussianRational(Fraction(re), Fraction(im)))
                         for k, (re, im) in parts.items()]
            poly = cls(field, nvars, tuple(terms))
            if _width(sum(terms[0][0])) == width:
                object.__setattr__(poly, "_view", (width, view))
            row.append((slot, poly))
        row.reverse()
        return row

    # The kernel's view of a polynomial: (width, terms), each term a
    # (key, raw coefficient) pair, keys descending.  The key is the
    # monomial packed by _codec(nvars, width); the coefficient is an int
    # residue over GF(p) and an int or a Fraction over QQ.  Over QQ(i) a
    # term splits into its nonzero halves: key * 4 + 1 with the imaginary
    # part, then key * 4 with the real part.  Built on first use at the
    # width of the total degree, or attached by the kernel to its outputs;
    # it is not a field, so equality, hashing and printing never see it.
    _view = None

    def _kernel_view(self, width: int = 0) -> tuple[int, list]:
        # The view, built and kept on first use; at another ``width``, one
        # built at that width and not kept.
        view = self._view
        if view is None:
            view = self._view_at(_width(sum(self.terms[0][0]) if self.terms else 0))
            object.__setattr__(self, "_view", view)
        return view if width in (0, view[0]) else self._view_at(width)

    def _view_at(self, width: int) -> tuple[int, list]:
        pack = _codec(self.nvars, width)[0]
        kind = self.field.kind
        if kind == "Fp":
            return width, [(pack(e), c.value) for e, c in self.terms]
        if kind == "Q":
            return width, [(pack(e), _raw(c)) for e, c in self.terms]
        return width, list(_halves(pack, self.terms))

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, ())

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        coeff = field.coerce(value)
        return cls(field, nvars, (((0,) * nvars, coeff),) if coeff else ())

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(field, nvars, ((exps, field.one),))

    @classmethod
    def monomial(cls, field: Field, nvars: int, exponents: Iterable[int], coeff=1) -> "Polynomial":
        return cls.from_pairs(field, nvars, [(tuple(exponents), field.coerce(coeff))])

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int | float:
        """Total degree, or NEG_INFINITY for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        # Graded order puts a term of highest degree first.
        return sum(self.terms[0][0])

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(exps) for exps, _ in self.terms}
        return len(degrees) <= 1

    @property
    def constant_term(self) -> Scalar:
        # Graded order puts the constant term, if any, last.
        if self.terms:
            exps, coeff = self.terms[-1]
            if not any(exps):
                return coeff
        return self.field.zero

    # -- arithmetic -----------------------------------------------------

    def _check_compat(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, "+")

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, "-")

    def _sum(self, other: "Polynomial", op: str) -> "Polynomial":
        self._check_compat(other)
        signs = _signs(self.field, self.nvars)
        return Polynomial._sum_of_products(
            self.field, self.nvars, ((self, signs[0]), (other, signs[op == "-"])))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, self.nvars, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scalar_mul(other)
        self._check_compat(other)
        return Polynomial._sum_of_products(self.field, self.nvars, ((self, other),))

    def __rmul__(self, other) -> "Polynomial":
        return self.scalar_mul(other)

    def scalar_mul(self, scalar) -> "Polynomial":
        c = self.field.coerce(scalar)
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(self.field, self.nvars, tuple((e, k * c) for e, k in self.terms))

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if len(self.terms) == 1:
            # (c*x^a)^k = c^k * x^(k*a), and c^k is nonzero in a field.
            (exps, coeff), = self.terms
            one = self.field.one
            if coeff != one:
                coeff = _power(coeff, exponent, one)
            return Polynomial(self.field, self.nvars, ((tuple(a * exponent for a in exps), coeff),))
        return _power(self, exponent, Polynomial.constant(self.field, self.nvars, 1))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.terms:
            sign, body = _term_text(self.field, exps, coeff)
            if not pieces:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)


@lru_cache(maxsize=64)
def _signs(field: Field, nvars: int) -> tuple[Polynomial, Polynomial]:
    # The constants +1 and -1, the right factors of the summands of a sum
    # (index op == "-"), kept with their kernel views from call to call.
    return Polynomial.constant(field, nvars, 1), Polynomial.constant(field, nvars, -1)


def _power(base, e: int, one, times=mul):
    # base^e by square-and-multiply, each product formed by times.
    result = one
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base) if e > 1 else base
        e >>= 1
    return result


def _power_step_bits(poly: Polynomial) -> int:
    # The bits, up to rounding, that one multiplication by poly can add to
    # a coefficient of a power of poly: bit_length - 1 of the sum of the
    # absolute numerators plus that of the product of the denominators,
    # over both parts in QQ(i).  The coefficients 1 and i give 0; GF(p)
    # residues never grow.
    kind = poly.field.kind
    if kind == "Fp":
        return 0
    parts = [q for _, c in poly.terms for q in ((c.re, c.im) if kind == "Qi" else (c,))]
    numerators = sum(abs(q.numerator) for q in parts)
    denominators = prod(q.denominator for q in parts)
    return max(numerators.bit_length() - 1, 0) + denominators.bit_length() - 1


def _monomial_text(exps: tuple[int, ...]) -> str:
    factors = []
    for k, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{k}")
        elif e > 1:
            factors.append(f"x{k}^{e}")
    return "*".join(factors)


def _term_text(field: Field, exps: tuple[int, ...], coeff: Scalar) -> tuple[str, str]:
    # Returns (sign, body); sign is "+" or "-" and body carries no sign.
    sign = "+"
    magnitude = coeff
    if field.kind == "Q" and coeff < 0:
        sign, magnitude = "-", -coeff
    elif field.kind == "Qi" and coeff.im == 0 and coeff.re < 0:
        sign, magnitude = "-", -coeff
    mono = _monomial_text(exps)
    if not mono:
        return sign, str(magnitude)
    if magnitude == field.one:
        return sign, mono
    return sign, f"{magnitude}*{mono}"


def degree_info(p: Polynomial) -> tuple[int | float, bool]:
    """(total degree, is_homogeneous); the zero polynomial reports
    (NEG_INFINITY, True)."""
    return p.total_degree, p.is_homogeneous


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        tokens.append((("num", "name", "op")[m.lastindex - 1], m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field, nvars: int, max_degree: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.max_degree = max_degree
        self.depth = 0
        self.products = 0
        self.bits = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_degree(self, degree: int | float, at: int) -> None:
        # Called before a product is formed, so that an expression whose
        # expansion exceeds the bound costs no more than reading it.
        if self.max_degree is not None and degree > self.max_degree:
            raise ParseError(f"degree {degree} exceeds the bound {self.max_degree}", at)

    def product(self, a: Polynomial, b: Polynomial, at: int) -> Polynomial:
        # Charge the term products of a * b before forming it.  A product
        # of two monomials is not charged: it is one term product, and
        # there are no more of them than tokens, so a printed polynomial
        # parses back whatever its size.
        cost = len(a.terms) * len(b.terms)
        if cost > 1:
            self.products += cost
            if self.products > MAX_PARSE_PRODUCTS:
                raise ParseError(
                    f"expansion needs more than {MAX_PARSE_PRODUCTS} term products", at)
        for scale, poly in ((a, b), (b, a)):
            if len(scale.terms) == 1 and not any(scale.terms[0][0]):
                # A constant factor scales the other, and no terms meet.
                return poly.scalar_mul(scale.terms[0][1])
        return a * b

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return poly

    def expr(self) -> Polynomial:
        summands = [(self.term(), "+")]
        while (op := self.peek())[0] == "op" and op[1] in "+-":
            self.advance()
            summands.append((self.term(), op[1]))
        # Zero summands add nothing, and one summand needs no kernel call.
        summands = [(poly, op) for poly, op in summands if poly.terms]
        if len(summands) > 1:
            signs = _signs(self.field, self.nvars)
            return Polynomial._sum_of_products(
                self.field, self.nvars, ((poly, signs[op == "-"]) for poly, op in summands))
        if not summands:
            return Polynomial.zero(self.field, self.nvars)
        poly, op = summands[0]
        return poly if op == "+" else -poly

    def term(self) -> Polynomial:
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

    def signed(self) -> Polynomial:
        negate = False
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                negate ^= text == "-"
            else:
                break
        poly = self.power()
        return -poly if negate else poly

    def power(self) -> Polynomial:
        base = self.atom()
        kind, text, at = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, nat = self.advance()
            if nkind != "num":
                raise ParseError("expected a nonnegative integer exponent", nat)
            exponent = int(ntext)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent overflow (limit {MAX_EXPONENT})", nat)
            if exponent:
                self.check_degree(exponent * base.total_degree, at)
                self.bits += exponent * _power_step_bits(base)
                if self.bits > MAX_PARSE_BITS:
                    raise ParseError(
                        f"powers need more than {MAX_PARSE_BITS} coefficient bits", at)
            if len(base.terms) > 1:
                one = Polynomial.constant(self.field, self.nvars, 1)
                return _power(base, exponent, one, lambda a, b: self.product(a, b, at))
            return base ** exponent
        return base

    def atom(self) -> Polynomial:
        kind, text, at = self.advance()
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
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
                    f"unknown variable {text!r} (only x0..x{self.nvars - 1} in scope)", at
                )
            return Polynomial.variable(self.field, self.nvars, index)
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", at)


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
    raises :class:`ParseError` at the operator that crosses the budget."""
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    if nvars > MAX_NVARS:
        raise ValueError(f"nvars {nvars} exceeds MAX_NVARS = {MAX_NVARS}")
    return _Parser(text, field, nvars, max_degree).parse()
