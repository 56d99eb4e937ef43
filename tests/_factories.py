"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd

from mfkit import algebra, graded, mf
from mfkit import mf as mf_ops
from mfkit.algebra import (_MIN_WIDTH, GF, Field, FpElement, GaussianRational, ParseError, Polynomial,
                           _fraction)
from mfkit.cli import (MF_SCHEMA, SchemaError, _expect, _parse_degree_list, _printed,
                       field_from_json, field_to_json)
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

FP13 = GF(13)


def reference_coerce(self: Field, value):
    """Field.coerce as it was before it wrapped the one raw-value converter,
    body unchanged: the path that ``algebra._raw_value`` replaced, kept for
    the differential tests."""
    if self.kind == "Q":
        Fraction = _fraction()
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
    elif self.kind == "Qi":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, _fraction())):
            return GaussianRational(value, 0)
    else:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError(f"prime field mismatch: F_{value.p} vs F_{self.p}")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, _fraction()):
            num = FpElement(value.numerator, self.p)
            return num * FpElement(value.denominator, self.p).inverse()
    raise ValueError(f"cannot coerce {value!r} into {self}")


# ``Field.inv``, ``GaussianRational.inverse``, ``FpElement.inverse`` and
# ``Polynomial._minus_inverse`` as they were before they shared one
# inverse on raw values, bodies unchanged but for their calls to each
# other, which go to these references, and the read of the raw constant,
# which is ``algebra._raw_constant``'s.  Kept for the differential tests.


def reference_inv(self: Field, value):
    if self.kind == "Q":
        if value == 0:
            raise ZeroDivisionError("inverse of zero rational")
        return _fraction()(1) / value
    if isinstance(value, GaussianRational):
        return reference_gaussian_inverse(value)
    return reference_fp_inverse(value)


def reference_gaussian_inverse(self: GaussianRational) -> GaussianRational:
    norm = self.re * self.re + self.im * self.im
    if norm == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return GaussianRational(self.re / norm, -self.im / norm)


def reference_fp_inverse(self: FpElement) -> FpElement:
    if self.value == 0:
        raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
    return FpElement(pow(self.value, -1, self.p), self.p)


def minus_inverse(u: Polynomial) -> Polynomial:
    """The constant polynomial -1/c of the nonzero constant term c of u,
    as the splits of ``mf.reduce`` form it: ``algebra._minus_inverse`` on
    the raw values of u's view."""
    return Polynomial._from_settled(u.field, u.nvars, _MIN_WIDTH,
                                    algebra._minus_inverse(u.field, dict(u._view[1][-2:])))


def reference_minus_inverse(self: Polynomial) -> Polynomial:
    field = self.field
    if field.kind == "Qi":
        re, im = algebra._raw_constant(field, dict(self._view[1][-2:]))
        if (re, im) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            view = [(1, im)] if im else [(0, -re)]
            return Polynomial._from_view(field, self.nvars, _MIN_WIDTH, view)
    return Polynomial.constant(field, self.nvars, -reference_inv(field, self.constant_term))


def compose_validate(F: mf.MatrixFactorization) -> list[str]:
    """``mf.validate`` as it was before it checked each row of a
    composite as the kernel settles it, body unchanged: both composites
    are formed whole by ``graded.compose`` and compared with f*id row by
    row.  Kept for the differential tests.

    Only s1*s0 is computed when it equals f*id; s0*s1 is computed only to
    report its own mismatch.  At that point rank(F0) = rank(F1) = r and
    f != 0, and k[x] is a domain: det(s1)*det(s0) = f^r != 0, so s0 is
    invertible over the fraction field, s1 = f*s0^-1, and
    s0*s1 = s0*(f*s0^-1) = f*id."""
    problems: list[str] = []
    f = F.f
    deg = f.total_degree
    if f.is_zero or not f.is_homogeneous or not isinstance(deg, int) or deg < 1:
        return [f"f = {f} must be homogeneous of degree >= 1"]
    for name, matrix in (("s0", F.s0), ("s1", F.s1)):
        if matrix.field != f.field or matrix.nvars != f.nvars:
            return [f"{name} lives in a different polynomial ring than f"]
    f0, f1 = F.s0.source, F.s0.target
    if f0.rank != f1.rank:
        problems.append(f"rank mismatch: rank(F0) = {f0.rank}, rank(F1) = {f1.rank}")
    if F.s1.source != f1.twist(-deg):
        problems.append(f"s1 source degrees {F.s1.source} must be F1 degrees shifted by d = {deg}: "
                        f"{f1.twist(-deg)}")
    if F.s1.target != f0:
        problems.append(f"s1 target degrees {F.s1.target} must equal F0 degrees {f0}")
    problems.extend(f"s0 {msg}" for msg in F.s0.validate())
    problems.extend(f"s1 {msg}" for msg in F.s1.validate())
    if problems:
        return problems

    # Composite identities; report the first offending entry of each.  Row r
    # of f*id is ((r, f),); s0*s1 is formed only when s1*s0 is not f*id.
    for name, left, right in (("s1*s0", F.s1.twist(deg), F.s0), ("s0*s1", F.s0, F.s1)):
        for r, row in enumerate(compose(left, right).rows):
            if row != ((r, f),):
                # The row differs at its nonzeros off the diagonal and, unless
                # it holds f there, at (r, r).
                got, zero = dict(row), Polynomial.zero(f.field, f.nvars)
                c = min(c for c in {*got, r} if c != r or got.get(r, zero) != f)
                expected, entry = (f if r == c else zero), got.get(c, zero)
                problems.append(f"{name} disagrees with f*id at entry ({r},{c}): got {entry}, "
                                f"expected {expected}, difference {entry - expected}")
                break
        else:
            break
    return problems


def reference_matrix_validate(self: HomogeneousMatrix) -> list[str]:
    """``HomogeneousMatrix.validate`` as it was before it read each
    distinct entry once, body unchanged: every cell's entry read through
    its properties and the degrees through ``DegreeMultiset.__getitem__``.
    Kept for the differential tests."""
    problems = []
    for r, row in enumerate(self.rows):
        for c, entry in row:
            expected = self.source[c] - self.target[r]
            if expected < 0:
                problem = f"expected degree {expected} < 0, entry must be zero"
            elif not entry.is_homogeneous:
                problem = f"not homogeneous, expected degree {expected}"
            elif entry.total_degree != expected:
                problem = f"degree {entry.total_degree}, expected {expected}"
            else:
                continue
            problems.append(f"entry ({r},{c}): {problem}")
    return problems


def random_scalar(field: Field, rng: random.Random, nonzero: bool = False):
    while True:
        if field.kind == "Q":
            s = field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elif field.kind == "Qi":
            s = GaussianRational(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
        else:
            s = field.coerce(rng.randrange(field.p))
        if s or not nonzero:
            return s


def random_polynomial(field: Field, nvars: int, rng: random.Random,
                      max_degree: int = 4, max_terms: int = 4) -> Polynomial:
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        pairs.append((tuple(exps), random_scalar(field, rng)))
    return Polynomial.from_pairs(field, nvars, pairs)


def random_homogeneous(field: Field, nvars: int, degree: int, rng: random.Random,
                       max_terms: int = 3, variables=None) -> Polynomial:
    """Nonzero homogeneous polynomial of the exact degree, optionally
    supported on a subset of the variables."""
    allowed = list(variables) if variables is not None else list(range(nvars))
    while True:
        pairs = []
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.choice(allowed)] += 1
            pairs.append((tuple(exps), random_scalar(field, rng, nonzero=True)))
        p = Polynomial.from_pairs(field, nvars, pairs)
        if not p.is_zero:
            return p


def random_homogeneous_matrix(field: Field, nvars: int, source: DegreeMultiset,
                              target: DegreeMultiset, rng: random.Random,
                              density: float = 0.7) -> HomogeneousMatrix:
    zero = Polynomial.zero(field, nvars)
    rows = []
    for r in range(len(target)):
        row = []
        for c in range(len(source)):
            expected = source[c] - target[r]
            if expected < 0 or rng.random() > density:
                row.append(zero)
            else:
                row.append(random_homogeneous(field, nvars, expected, rng))
        rows.append(tuple(row))
    return HomogeneousMatrix(field, nvars, source, target, tuple(rows))


def random_elementary(field: Field, nvars: int, d: int, rng: random.Random,
                      variables=None) -> mf.MatrixFactorization:
    """Rank-one factorization (u, v) of u*v with deg u + deg v = d and
    both factors nonconstant (so the result is reduced)."""
    if d < 2:
        raise ValueError("need d >= 2 for a reduced rank-one factorization")
    m = rng.randint(1, d - 1)
    u = random_homogeneous(field, nvars, m, rng, variables=variables)
    v = random_homogeneous(field, nvars, d - m, rng, variables=variables)
    return mf.rank_one(v * u, u, v)


def random_reduced_mf(rng: random.Random, field: Field = FP13, nvars: int = 4,
                      d: int | None = None) -> mf.MatrixFactorization:
    """Reduced factorization: an elementary factor, possibly tensored
    with a second one, then twisted and/or shifted."""
    if d is None:
        d = rng.choice([2, 3, 4])
    F = random_elementary(field, nvars, d, rng)
    if rng.random() < 0.6:
        while True:
            G = random_elementary(field, nvars, d, rng)
            if not (F.f + G.f).is_zero:
                break
        F = mf.tensor(F, G)
    F = mf.twist(F, rng.randint(-3, 3))
    if rng.random() < 0.5:
        F = mf.shift(F)
    return F


def random_valid_mf(rng: random.Random, field: Field = FP13,
                    d: int | None = None) -> mf.MatrixFactorization:
    """Valid factorization that may carry trivial summands."""
    F = random_reduced_mf(rng, field=field, d=d)
    for _ in range(rng.randint(0, 2)):
        trivial = mf.trivial_one_f(F.f) if rng.random() < 0.5 else mf.trivial_f_one(F.f)
        F = mf.direct_sum(F, mf.twist(trivial, rng.randint(-2, 2)))
    return F


def elementary(field, nvars, degrees, i, j, lam):
    # The identity on ``degrees`` with ``lam`` at (i, j).
    grid = [list(row) for row in HomogeneousMatrix.identity(field, nvars, degrees).entries]
    grid[i][j] = lam
    return HomogeneousMatrix(field, nvars, degrees, degrees, grid)


def mix_bases(F, rng, steps):
    """F after ``steps`` random graded elementary basis changes of F0 and
    F1: s0 -> s0*E, s1 -> E^-1*s1 on F0 and s0 -> G*s0, s1 -> s1*G^-1 on
    F1.  The result factors the same f, with its units spread over
    several entries."""
    field, nvars, d = F.field, F.nvars, F.d
    s0, s1 = F.s0, F.s1
    for _ in range(steps):
        on_f0 = rng.random() < 0.5
        degrees = s0.source if on_f0 else s0.target
        i, j = rng.sample(range(degrees.rank), 2)
        if degrees[j] < degrees[i]:
            i, j = j, i
        lam = random_homogeneous(field, nvars, degrees[j] - degrees[i], rng)
        forward = elementary(field, nvars, degrees, i, j, lam)
        backward = elementary(field, nvars, degrees, i, j, -lam)
        if on_f0:
            s0, s1 = compose(s0, forward), compose(backward, s1)
        else:
            s0, s1 = compose(forward, s0), compose(s1, backward.twist(-d))
    return mf.MatrixFactorization(F.f, s0, s1)


def partly_reducible(field, rank, rng):
    """A valid, non-reduced factorization of the given rank (4, 8 or 16):
    random rank-one factors in 3 variables tensored together, the first
    one summed with a twisted trivial factor, then mixed bases."""
    nvars, d = 3, rng.choice([2, 3])
    factors = [random_elementary(field, nvars, d, rng)]
    trivial = mf.trivial_one_f if rng.random() < 0.5 else mf.trivial_f_one
    factors[0] = mf.direct_sum(factors[0], mf.twist(trivial(factors[0].f), rng.randint(-1, 1)))
    result = factors[0]
    while result.rank < rank:
        while True:
            G = random_elementary(field, nvars, d, rng)
            if not (result.f + G.f).is_zero:
                break
        result = mf.tensor(result, G)
    return mix_bases(result, rng, rng.randint(1, 2 * rank))


# ``mf.reduce``, ``mf._find_unit`` and ``mf._split_summand`` as they were
# before the elimination kept its updated entries as raw views between
# splits, bodies unchanged: every split makes its updated rows into
# polynomials through ``Polynomial._product_rows``.  Kept for the
# differential tests.


def reference_reduce(F: mf.MatrixFactorization) -> mf.MatrixFactorization:
    s0 = {r: dict(row) for r, row in enumerate(F.s0.rows)}
    s1 = {r: dict(row) for r, row in enumerate(F.s1.rows)}
    one = Polynomial.constant(F.field, F.nvars, 1)
    for a, b in ((s0, s1), (s1, s0)):
        r = 0
        while (pos := reference_find_unit(a, r)) is not None:
            r, c = pos
            reference_split_summand(F.field, one, a, b, r, c)
    if len(s1) == F.rank0:
        return F
    # The rows of s1 are the F0 generators left, those of s0 the F1 ones.
    return mf._mk(F.f, {k: F.f0_degrees[k] for k in s1}, {k: F.f1_degrees[k] for k in s0},
                  ((r, c, e) for r, row in s0.items() for c, e in row.items()),
                  ((r, c, e) for r, row in s1.items() for c, e in row.items()))


def reference_find_unit(rows, start):
    for r, row in rows.items():
        if r >= start:
            units = [c for c, entry in row.items() if entry._has_constant_term]
            if units:
                return r, min(units)
    return None


def reference_split_summand(field, one, a, b, r, c):
    pivot = a.pop(r)
    del b[c]
    u = pivot.pop(c)
    for row in b.values():
        row.pop(r, None)
    # The rows of q, each without its entry in the pivot column.
    rows = [(row, q) for row in a.values() if (q := row.pop(c, None)) is not None]
    if not (rows and pivot):
        return
    # Row j of the update is 1 * row_j + q_j * (-pivot/u) over the pivot's
    # columns: the pivot row is scaled once, then one kernel call updates
    # all the rows.
    nvars = u.nvars
    (scaled,) = Polynomial._product_rows(field, nvars, (((0, minus_inverse(u)),),),
                                         (tuple(pivot.items()),))
    lefts, rights = [], [scaled]
    for row, q in rows:
        lefts.append(((0, q), (len(rights), one)))
        rights.append([(k, row.pop(k)) for k in pivot if k in row])
    for (row, _), update in zip(rows, Polynomial._product_rows(field, nvars, lefts, rights)):
        row.update(update)


def base_changed(F: mf.MatrixFactorization, rng: random.Random) -> mf.MatrixFactorization:
    """F plus one trivial summand (1, f) twisted to each degree of F0, in
    the basis that a random invertible constant matrix Q of F0 makes:
    s0*Q and Q^-1*s1.  Q is the identity outside the equal-degree blocks
    of F0, so it is homogeneous of degree 0; inside each block of size n
    it is a product of n^2 elementary matrices, with multipliers in
    [1, p) over GF(p) and in {-2, -1, 1, 2} over QQ and QQ(i), which keeps
    the coefficients small.  The result factors f, and its reduced part is
    F's when F is reduced."""
    field, nvars = F.field, F.nvars
    G = F
    for m in F.f0_degrees:
        G = mf.direct_sum(G, mf.twist(mf.trivial_one_f(F.f), -m))
    degrees = list(G.f0_degrees)
    n = len(degrees)
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    q_inv = [row[:] for row in q]
    for m in sorted(set(degrees)):
        block = [k for k in range(n) if degrees[k] == m]
        for _ in range(len(block) ** 2 if len(block) > 1 else 0):
            i, j = rng.sample(block, 2)
            lam = rng.randrange(1, field.p) if field.p else rng.choice([-2, -1, 1, 2])
            # Q <- Q * (1 + lam e_ij): column j += lam column i; and
            # Q^-1 <- (1 - lam e_ij) * Q^-1: row i -= lam row j.
            for row in q:
                row[j] += lam * row[i]
            q_inv[i] = [a - lam * b for a, b in zip(q_inv[i], q_inv[j])]

    def constants(grid):
        return HomogeneousMatrix(field, nvars, G.f0_degrees, G.f0_degrees,
                                 [[Polynomial.constant(field, nvars, x) for x in row] for row in grid])
    return mf.MatrixFactorization(F.f, compose(G.s0, constants(q)), compose(constants(q_inv), G.s1))


def raw(q: Fraction) -> int | Fraction:
    # A rational as a plain int when it is integral, as in a view.
    return q.numerator if q.denominator == 1 else q


def reference_codec(nvars: int, width: int):
    """``algebra._codec`` as it was before its fields went whole bytes
    through ``bytes``, body unchanged: one big-int shift per field, so
    quadratic in ``nvars``; kept for the differential tests."""
    shifts = range(width * (nvars - 1), -1, -width)
    mask = (1 << width) - 1

    def pack(exponents):
        key = sum(exponents)
        for e in exponents:
            key = key << width | e
        return key

    def unpack(packed):
        return tuple([packed >> shift & mask for shift in shifts])
    return pack, unpack


def reference_byte_codec(nvars: int, width: int):
    """``algebra._codec`` as it was before fields of 1, 2, 4 or 8 bytes
    went through ``struct``, body unchanged: one ``bytes`` of the key,
    each byte a field at 8 bits and one ``to_bytes`` piece per field
    above; kept for the differential tests."""
    size = width // 8
    length = size * (nvars + 1)
    # The bytes of x0, x1, ... in the key's bytes, below the total degree.
    cuts = [slice(k, k + size) for k in range(size, length, size)]

    def pack(exponents):
        fields = (sum(exponents), *exponents)
        data = bytes(fields) if size == 1 else b"".join([e.to_bytes(size, "big") for e in fields])
        return int.from_bytes(data, "big")

    def unpack(packed):
        data = packed.to_bytes(length, "big")
        return tuple(data[1:]) if size == 1 else tuple([int.from_bytes(data[cut], "big") for cut in cuts])
    return pack, unpack


def reference_repack(field: Field, nvars: int, pairs: list, width: int, new: int) -> list:
    """``algebra._repack`` as it was before it copied bytes by slice
    assignment, body unchanged: each key unpacked and packed again by
    :func:`reference_codec`."""
    unpack, pack = reference_codec(nvars, width)[1], reference_codec(nvars, new)[0]
    if field.kind == "Qi":
        return [(pack(unpack(k >> 2)) << 2 | k & 3, value) for k, value in pairs]
    return [(pack(unpack(k)), value) for k, value in pairs]


def natural_width(poly):
    # The field width of a view: the least 8 * 2^k above the total degree
    # by one bit, so that the degree of a product still fits.
    degree, width = sum(poly.terms[0][0]) if poly.terms else 0, 8
    while degree >= 2 ** (width - 1):
        width *= 2
    return width


def packed_view(poly):
    """The view of ``poly`` built from its terms, field by field: at the
    width of the total degree, each key the total degree, then x0, x1, ...
    in fields of that width, over QQ(i) times 4 plus the exponent of i of
    the half; keys descending."""
    width = natural_width(poly)
    pairs = []
    for exps, c in poly.terms:
        key = sum(exps)
        for e in exps:
            key = key << width | e
        if poly.field.kind == "Fp":
            pairs.append((key, c.value))
        elif poly.field.kind == "Q":
            pairs.append((key, raw(c)))
        else:
            if c.im:
                pairs.append((4 * key + 1, raw(c.im)))
            if c.re:
                pairs.append((4 * key, raw(c.re)))
    return width, sorted(pairs, reverse=True)


def kernel_sum_of_products(field, nvars, pairs):
    """``Polynomial._sum_of_products`` as it was before the view
    operations: the one entry of a 1 x n by n x 1 ``_product_rows``."""
    lefts, rights = [], []
    for left, right in pairs:
        lefts.append((len(rights), left))
        rights.append(((0, right),))
    (row,) = Polynomial._product_rows(field, nvars, (lefts,), rights)
    return row[0][1] if row else Polynomial.zero(field, nvars)


def square_and_multiply(base, e, one, times):
    """base^e by square-and-multiply, each product formed by ``times``."""
    result = one
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base) if e > 1 else base
        e >>= 1
    return result


# ``cli.document_to_mf``/``_parse_matrix`` and ``cli.mf_to_document``/
# ``_matrix_texts`` as they were before f became one more entry text of
# its document, bodies unchanged: f parsed outside the entry memo and
# printed outside the id-keyed text memo.  Kept for the differential
# tests.


def reference_mf_to_document(F: mf.MatrixFactorization) -> dict:
    texts: dict[int, str] = {}
    return {
        "schema": MF_SCHEMA,
        "field": field_to_json(F.field),
        "nvars": F.nvars,
        "f": _printed(F.f),
        "d": F.d,
        "F0_degrees": list(F.f0_degrees),
        "F1_degrees": list(F.f1_degrees),
        "s0": reference_matrix_texts(F.s0, texts),
        "s1": reference_matrix_texts(F.s1, texts),
    }


def reference_matrix_texts(matrix: HomogeneousMatrix, texts: dict[int, str]) -> list[list[str]]:
    grid = [["0"] * matrix.ncols for _ in matrix.rows]
    for line, row in zip(grid, matrix.rows):
        for c, entry in row:
            text = texts.get(id(entry))
            if text is None:
                text = texts[id(entry)] = _printed(entry)
            line[c] = text
    return grid


def reference_parse_matrix(doc: dict, key: str, field: Field, nvars: int,
                           source: DegreeMultiset, target: DegreeMultiset,
                           memo: dict[str, tuple[Polynomial | None, int | float]]) -> HomogeneousMatrix:
    parse_poly, unbounded = algebra.parse_poly, algebra.NEG_INFINITY
    sources, targets = source.degrees, target.degrees
    nrows, ncols = len(targets), len(sources)
    raw = _expect(doc, key, list)
    if len(raw) != nrows:
        raise SchemaError(f"{key} must have {nrows} rows, got {len(raw)}")
    rows = []
    for r, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != ncols:
            raise SchemaError(f"{key} row {r} must be a list of {ncols} strings")
        row = []
        for c, text in enumerate(raw_row):
            if text == "0":
                continue
            if not isinstance(text, str):
                raise SchemaError(f"{key}[{r}][{c}] must be a polynomial string")
            bound = sources[c] - targets[r]
            hit = memo.get(text)
            if hit is None or bound < hit[1]:
                try:
                    poly = parse_poly(text, field, nvars, max(bound, 0))
                except algebra.ParseError as exc:
                    raise SchemaError(f"{key}[{r}][{c}]: {exc}") from exc
                bounded = bound > 0 and ("*" in text or "^" in text)
                hit = memo[text] = (None if poly.is_zero else poly,
                                    bound if bounded else unbounded)
            if hit[0] is not None:
                row.append((c, hit[0]))
        rows.append(tuple(row))
    return graded.HomogeneousMatrix._from_rows(field, nvars, source, target, tuple(rows))


def reference_document_to_mf(doc: dict) -> mf.MatrixFactorization:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != MF_SCHEMA:
        raise SchemaError(f"expected schema {MF_SCHEMA!r}, got {doc.get('schema')!r}")
    field = field_from_json(_expect(doc, "field", dict))
    nvars = _expect(doc, "nvars", int)
    if nvars < 1:
        raise SchemaError("nvars must be >= 1")
    if nvars > algebra.MAX_NVARS:
        raise SchemaError(f"nvars must be <= {algebra.MAX_NVARS}")
    d = _expect(doc, "d", int)
    try:
        f = algebra.parse_poly(_expect(doc, "f", str), field, nvars, d)
    except algebra.ParseError as exc:
        raise SchemaError(f"f: {exc}") from exc
    if not f.is_homogeneous or f.total_degree != d:
        raise SchemaError(f"f must be homogeneous of the declared degree d = {d}")
    F0 = graded.DegreeMultiset(_parse_degree_list(doc, "F0_degrees"))
    F1 = graded.DegreeMultiset(_parse_degree_list(doc, "F1_degrees"))
    memo: dict[str, tuple[Polynomial | None, int | float]] = {}
    return mf_ops.MatrixFactorization(
        f,
        reference_parse_matrix(doc, "s0", field, nvars, F0, F1, memo),
        reference_parse_matrix(doc, "s1", field, nvars, F1.twist(-d), F0, memo),
    )


# ``algebra.parse_poly``'s two readers as they were before one reader
# replaced them, bodies unchanged but for their names and the budgets,
# which they read through ``algebra`` so that a lowered budget applies
# to them: the one-scan path for printed text, ``reference_scan_printed``,
# and the recursive parser that read every text the scan declined,
# ``ReferenceRecursiveParser``.  ``reference_read`` runs them as
# ``parse_poly`` did.  Kept for the differential tests.


REFERENCE_TOKEN_PATTERN = r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S)"


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in re.finditer(REFERENCE_TOKEN_PATTERN, text):
        if m.lastindex == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        tokens.append((("num", "name", "op")[m.lastindex - 1], m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class ReferenceRecursiveParser:
    """Evaluates an expression with the polynomial operators, each result
    formed only after the checks of the parse's bounds and budgets: the
    summands of a sum are added by one ``Polynomial._signed_sum``, ``*``
    is ``a * b``, unary ``-`` is ``-p`` and ``^`` is
    ``Polynomial._power``; every atom is a view at 8 bits."""

    def __init__(self, text: str, field: Field, nvars: int, max_degree: int | None):
        self.tokens = reference_tokenize(text)
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
        if len(a._view[1]) > 1 or len(b._view[1]) > 1:
            cost = algebra._size(self.field, a._view[1]) * algebra._size(self.field, b._view[1])
            if cost > 1:
                self.products += cost
                if self.products > algebra.MAX_PARSE_PRODUCTS:
                    raise ParseError(
                        f"expansion needs more than {algebra.MAX_PARSE_PRODUCTS} term products", at)
        return a * b

    def view(self, pairs: list) -> Polynomial:
        # An atom: the constant of these view pairs, at the narrowest width.
        return Polynomial._from_view(self.field, self.nvars, _MIN_WIDTH, pairs)

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
        if len(summands) == 1:
            return summands[0][0]
        return Polynomial._signed_sum(self.field, self.nvars, summands)

    def term(self) -> Polynomial:
        result = self.signed()
        while (op := self.peek())[:2] == ("op", "*"):
            self.advance()
            rhs = self.signed()
            self.check_degree(result.total_degree + rhs.total_degree, op[2])
            result = self.product(result, rhs, op[2])
        return result

    def signed(self) -> Polynomial:
        negate = False
        while (op := self.peek())[0] == "op" and op[1] in "+-":
            self.advance()
            negate ^= op[1] == "-"
        poly = self.power()
        return -poly if negate else poly

    def power(self) -> Polynomial:
        base = self.atom()
        kind, text, at = self.peek()
        if not (kind == "op" and text == "^"):
            return base
        self.advance()
        nkind, ntext, nat = self.advance()
        if nkind != "num":
            raise ParseError("expected a nonnegative integer exponent", nat)
        exponent = int(ntext)
        if exponent > algebra.MAX_EXPONENT:
            raise ParseError(f"exponent overflow (limit {algebra.MAX_EXPONENT})", nat)
        if not exponent:
            return self.view([(0, 1)])
        self.check_degree(exponent * base.total_degree, at)
        # GF(p) residues never grow.
        self.bits += 0 if self.field.p else exponent * algebra._power_step_bits([v for _, v in base._view[1]])
        if self.bits > algebra.MAX_PARSE_BITS:
            raise ParseError(f"powers need more than {algebra.MAX_PARSE_BITS} coefficient bits", at)
        return base._power(exponent, lambda a, b: self.product(a, b, at))

    def atom(self) -> Polynomial:
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
            # The numerator is converted first: past the interpreter's digit
            # limit, its ValueError wins over any error after it.
            value, denominator, dat = int(text), None, at
            if self.peek()[:2] == ("op", "/"):
                self.advance()
                _, denominator, dat = self.advance()
            value = reference_literal(value, denominator, self.field.p, at, dat)
            return self.view([(0, value)] if value else [])
        if kind == "name":
            if text == "i":
                if self.field.kind != "Qi":
                    raise ParseError("'i' is only available over QQ(i)", at)
                return Polynomial._i(self.field, self.nvars)
            # Name tokens are ASCII, so isdigit() reads the \d+ of "x\d+".
            if text[:1] != "x" or not text[1:].isdigit():
                raise ParseError(f"unknown variable {text!r}", at)
            index = int(text[1:])
            if index >= self.nvars:
                raise ParseError(
                    f"unknown variable {text!r} (only x0..x{self.nvars - 1} in scope)", at
                )
            return Polynomial.variable(self.field, self.nvars, index)
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", at)


def reference_literal(value: int, denominator: str | None, p: int | None, at: int,
                      dat: int) -> int | Fraction:
    # The raw value of the literal value/denominator, or of value alone
    # where denominator is None; at and dat are the positions of the
    # literal and of its denominator, for the errors.
    if denominator is None:
        return value % p if p else value
    if not denominator.isdigit():
        raise ParseError("expected an integer denominator", dat)
    denominator = int(denominator)
    if not denominator:
        raise ParseError("zero denominator in rational literal", dat)
    common = gcd(value, denominator)
    value, denominator = value // common, denominator // common
    if p:
        if denominator % p == 0:
            raise ParseError(f"inverse of zero in F_{p}", at)
        return value * algebra._inverse(denominator, p) % p
    return value if denominator == 1 else algebra._fraction()(value, denominator)


def reference_scan_printed(text: str, field: Field, nvars: int, max_degree: int | None,
                           width: int = _MIN_WIDTH) -> Polynomial | None:
    """The polynomial of ``text`` if it is in the printed form and
    :class:`ReferenceRecursiveParser` would read it without error, else
    None.  The printed form: terms separated by exactly " + " or " - ", a
    leading "-" on the first term only, each term a coefficient ``a`` or
    ``a/b`` (over QQ(i) also ``(re + im*i)`` or ``(re - im*i)``), a
    monomial of factors ``xk`` or ``xk^e`` joined by ``*``, or a
    coefficient, ``*`` and a monomial, in ASCII.  The keys and raw values
    are those ReferenceRecursiveParser builds, packed
    at ``width``.  A term whose degree ``width`` cannot hold has the text
    read again at the width of that degree, so each read is at least
    twice as wide as the one before and takes every term of the reads
    before it; a term of degree 2^31 or more is handed back, so the
    fields are at most 32 bits wide, and so is a starred term past
    ``max_degree`` (an unstarred term has degree at most 1, and
    ReferenceRecursiveParser checks no bound on it).  _from_view narrows
    the result where its top degree cancels.  Every budget, bound and
    limit ReferenceRecursiveParser checks is read at call time, and the
    text is handed back (None) wherever one of them would raise.
    Literals are read as ReferenceRecursiveParser reads them, by int()
    and :func:`reference_literal`, so a ValueError of either (the
    interpreter's digit limit included) hands the text back too."""
    max_exponent = algebra.MAX_EXPONENT
    if not text.isascii() or algebra.MAX_PARSE_BITS < 0 and "^" in text:
        return None
    p = field.p
    gaussian = field.kind == "Qi"
    low = 2 if gaussian else 0
    degree_shift = width * nvars + low
    # The shift of field x0; x{k} sits width * k bits lower.
    top = degree_shift - width
    acc: dict[int, int | Fraction] = {}
    words = text.split(" ")
    count = len(words)
    word = words[0]
    sign = 1
    if word[:1] == "-":
        word, sign = word[1:], -1
    j = 0
    try:
        while True:
            if word[:1] == "(":
                # "(re", "+" or "-", "im*i)" with the monomial's "*..." appended.
                if not gaussian or algebra.MAX_NESTING < 1 or j + 2 >= count:
                    return None
                op = words[j + 1]
                imag_text, closed, factors = words[j + 2].partition("*i)")
                j += 2
                real_text, real_sign = word[1:], sign
                if real_text[:1] == "-":
                    real_text, real_sign = real_text[1:], -sign
                if not closed or op not in ("+", "-") or factors[:1] not in ("", "*"):
                    return None
                factors = factors[1:].split("*") if factors else []
                coefficients = []
                for half, half_sign, literal in ((0, real_sign, real_text),
                                                 (1, sign if op == "+" else -sign, imag_text)):
                    numerator, slash, denominator = literal.partition("/")
                    if not numerator.isdigit():
                        return None
                    value = reference_literal(int(numerator), denominator if slash else None, None, 0, 0)
                    coefficients.append((half, half_sign * value))
                starred = True
            else:
                factors = word.split("*")
                if word[:1] == "x":
                    value = 1
                else:
                    numerator, slash, denominator = factors.pop(0).partition("/")
                    if not numerator.isdigit():
                        return None
                    value = reference_literal(int(numerator), denominator if slash else None, p, 0, 0)
                coefficients = ((0, sign * value),)
                starred = "*" in word or "^" in word
            key = degree = 0
            for factor in factors:
                name, caret, exponent = factor.partition("^")
                index = name[1:]
                if name[:1] != "x" or not index.isdigit() or caret and not exponent.isdigit():
                    return None
                index, e = int(index), int(exponent) if caret else 1
                if index >= nvars or e > max_exponent:
                    return None
                degree += e
                key += e << (top - width * index)
            if degree >> 31 or starred and max_degree is not None and degree > max_degree:
                return None
            if degree >> (width - 1):
                return reference_scan_printed(text, field, nvars, max_degree, algebra._width(degree))
            key += degree << degree_shift
            for half, value in coefficients:
                acc[key + half] = acc.get(key + half, 0) + value
            j += 1
            if j == count:
                return Polynomial._from_settled(field, nvars, width, algebra._settle(field, acc))
            op = words[j]
            if op not in ("+", "-") or j + 1 == count:
                return None
            sign = 1 if op == "+" else -1
            j += 1
            word = words[j]
    except ValueError:
        return None


def reference_read(text: str, field: Field, nvars: int, max_degree: int | None = None) -> Polynomial:
    """``algebra.parse_poly`` as it was, with its two readers above: the
    scan first, the recursive parser on every text the scan declines."""
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    if nvars > algebra.MAX_NVARS:
        raise ValueError(f"nvars {nvars} exceeds MAX_NVARS = {algebra.MAX_NVARS}")
    if isinstance(text, str):
        poly = reference_scan_printed(text, field, nvars, max_degree)
        if poly is not None:
            return poly
    return ReferenceRecursiveParser(text, field, nvars, max_degree).parse()
