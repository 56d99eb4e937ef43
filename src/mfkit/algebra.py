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

All values in this module are immutable and all operations are pure, so
they may be freely shared between concurrent tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

NEG_INFINITY = float("-inf")

# Largest allowed prime modulus: p*p must fit in a signed 64-bit integer.
PRIME_LIMIT = 2**31 - 1

# Largest exponent accepted by the parser.
MAX_EXPONENT = 2**20


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


@dataclass(frozen=True)
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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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


@dataclass(frozen=True)
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


Scalar = Union[Fraction, GaussianRational, FpElement]


def _sqrt_minus_one(p: int) -> int:
    # For p = 1 (mod 4): a^((p-1)/4) squares to -1 when a is a nonresidue.
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ValueError(f"no square root of -1 modulo {p}")


@dataclass(frozen=True)
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

    @property
    def zero(self) -> Scalar:
        return self.coerce(0)

    @property
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


@dataclass(frozen=True)
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
        """The sum of ``left * right`` over ``pairs``, accumulated in one
        dict and canonicalized once.  Trusted: every operand must lie in
        the ring (``field``, ``nvars``)."""
        acc: dict[tuple[int, ...], Scalar] = {}
        for left, right in pairs:
            for e1, c1 in left.terms:
                for e2, c2 in right.terms:
                    exps = tuple(map(add, e1, e2))
                    prod = c1 * c2
                    old = acc.get(exps)
                    acc[exps] = prod if old is None else old + prod
        return cls._canonical(field, nvars, acc)

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, ())

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        return cls.from_pairs(field, nvars, [((0,) * nvars, field.coerce(value))])

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if k == index else 0 for k in range(nvars))
        return cls.from_pairs(field, nvars, [(exps, field.one)])

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
        self._check_compat(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = acc[exps] + coeff if exps in acc else coeff
        return Polynomial._canonical(self.field, self.nvars, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

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
        result = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start()))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start()))
        elif m.group(3) is not None:
            tokens.append(("op", m.group(3), m.start()))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field, nvars: int, max_degree: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.max_degree = max_degree

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

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return poly

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if text == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.signed()
        while True:
            kind, text, at = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                rhs = self.signed()
                self.check_degree(result.total_degree + rhs.total_degree, at)
                result = result * rhs
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
            return base ** exponent
        return base

    def atom(self) -> Polynomial:
        kind, text, at = self.advance()
        if kind == "op" and text == "(":
            inner = self.expr()
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
    """Parse an expression string into a canonical polynomial.

    With ``max_degree``, every ``*`` and ``^`` whose result would have
    total degree above it raises :class:`ParseError` before the product
    is computed; sums are not checked, and a polynomial printed by this
    module parses under its own total degree."""
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    return _Parser(text, field, nvars, max_degree).parse()
