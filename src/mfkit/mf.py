"""The graded matrix-factorization calculus.

A graded matrix factorization of a homogeneous polynomial f of degree
d >= 1 is a tuple (F0, F1, s0, s1) of graded free modules and degree-0
homogeneous maps

    s0 : F0 -> F1,      s1 : F1(-d) -> F0,

with s1*s0 = f*id on F0 and s0*s1 = f*id on F1 (the composites land in
the d-twist of their source).  Both modules necessarily have the same
rank.  In this module F0 and F1 are sorted degree multisets, and s1 is
stored with source degrees ``F1 + d`` (the generators of F1(-d)).

Implemented operations: validation, shift (with shift-squared equal to
the grading twist by d), twist, direct sum, tensor product (producing a
factorization of f + g), transpose dual, unit-splitting reduction,
reducedness test, Betti extraction, and the Fermat-type generator built
from rank-one factors x^m + i*y^m / x^m - i*y^m.

Every constructor describes its result by the nonzero entries of s0
and s1; ``_mk`` sorts the generators and files each entry once in the
sparse rows of its matrix.  Validation, tensor products and reduction
work over those nonzero entries only.

Values are immutable and operations pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, groupby, permutations, product
from operator import itemgetter

from ._value import Counts, value_class
from .algebra import QI, Field, Polynomial
from .graded import DegreeMultiset, HomogeneousMatrix, Row

# Largest rank that fermat(), tensor() and direct_sum() build: a document
# holds all 2r^2 entry strings of the two maps, zeros included, so each
# doubling of the rank costs 4x its size and the time to write and read it.
MAX_FERMAT_RANK = 2**10


@value_class
class MatrixFactorization:
    """The tuple (F0, F1, s0, s1); F0/F1 are recoverable from the maps."""

    f: Polynomial
    s0: HomogeneousMatrix
    s1: HomogeneousMatrix

    @property
    def field(self) -> Field:
        return self.f.field

    @property
    def nvars(self) -> int:
        return self.f.nvars

    @property
    def d(self) -> int:
        deg = self.f.total_degree
        if not isinstance(deg, int):
            raise ValueError("the factored polynomial is zero")
        return deg

    @property
    def f0_degrees(self) -> DegreeMultiset:
        return self.s0.source

    @property
    def f1_degrees(self) -> DegreeMultiset:
        return self.s0.target

    @property
    def rank0(self) -> int:
        return self.f0_degrees.rank

    @property
    def rank1(self) -> int:
        return self.f1_degrees.rank

    @property
    def rank(self) -> int:
        """rank(F0); equal to rank(F1) for a valid factorization."""
        return self.rank0


@value_class
class BettiTable(Counts):
    """Finitely supported counts b^i_j of degree-j generators of F^i."""

    entries: tuple[tuple[tuple[int, int], int], ...]
    term_format = "b[{0[0]}][{0[1]}]={1}"
    empty_text = "(empty)"

    def mapping(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)


# ---------------------------------------------------------------------------
# Construction helpers

# A map given by its nonzero entries (row, column, polynomial).
Entries = Iterable[tuple[int, int, Polynomial]]
# Generator degrees by generator index: a list, or a dict of the indices in use.
Degrees = Sequence[int] | Mapping[int, int]


def _argsort(values: Degrees) -> list[int]:
    keys = values.keys() if isinstance(values, Mapping) else range(len(values))
    return sorted(keys, key=lambda k: (values[k], k))


def _mk(f: Polynomial, f0_degrees: Degrees, f1_degrees: Degrees,
        s0: Entries, s1: Entries) -> MatrixFactorization:
    """Assemble a factorization from the nonzero entries of s0 (rows F1,
    columns F0) and s1 (rows F0, columns F1), indexed by the generators
    as listed.  Both generator lists are sorted, and each entry is filed
    once in the sparse row its generators sort to."""
    deg = f.total_degree
    if not f.is_homogeneous or not isinstance(deg, int) or deg < 1:
        raise ValueError("f must be homogeneous of degree >= 1")
    p0, p1 = _argsort(f0_degrees), _argsort(f1_degrees)
    F0 = DegreeMultiset(tuple(f0_degrees[k] for k in p0))
    F1 = DegreeMultiset(tuple(f1_degrees[k] for k in p1))
    at0 = {k: pos for pos, k in enumerate(p0)}
    at1 = {k: pos for pos, k in enumerate(p1)}

    def rows(entries: Entries, at_row: dict[int, int], at_col: dict[int, int]) -> tuple[Row, ...]:
        out: list[list[tuple[int, Polynomial]]] = [[] for _ in at_row]
        for r, c, entry in entries:
            if not entry.is_zero:
                out[at_row[r]].append((at_col[c], entry))
        return tuple(tuple(sorted(row, key=itemgetter(0))) for row in out)

    return MatrixFactorization(
        f,
        HomogeneousMatrix._from_rows(f.field, f.nvars, F0, F1, rows(s0, at1, at0)),
        HomogeneousMatrix._from_rows(f.field, f.nvars, F1.twist(-deg), F0, rows(s1, at0, at1)),
    )


def _nonzeros(rows: Iterable[Iterable[tuple[int, Polynomial]]]) -> Entries:
    for r, row in enumerate(rows):
        for c, entry in row:
            yield r, c, entry


def _check_rank(rank: int) -> None:
    if rank > MAX_FERMAT_RANK:
        raise ValueError(f"rank {rank} exceeds MAX_FERMAT_RANK = {MAX_FERMAT_RANK}")


# ---------------------------------------------------------------------------
# Validation


def validate(F: MatrixFactorization) -> list[str]:
    """Diagnostics list; empty iff F is a valid graded matrix
    factorization of its polynomial.

    Each composite is checked by one kernel call,
    :meth:`Polynomial._first_entry_off`, which compares each row with f
    in its diagonal column as it sums the row and stops at the first row
    that differs, the only row made into polynomials, with its first
    offending entry.  Only s1*s0 is computed when it equals f*id;
    s0*s1 is computed only to report its own mismatch.  At that point
    rank(F0) = rank(F1) = r and f != 0, and k[x] is a domain:
    det(s1)*det(s0) = f^r != 0, so s0 is invertible over the fraction
    field, s1 = f*s0^-1, and s0*s1 = s0*(f*s0^-1) = f*id."""
    problems: list[str] = []
    f = F.f
    deg = f.total_degree
    if not f.is_homogeneous or not isinstance(deg, int) or deg < 1:
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

    # Composite identities; report the first offending entry of each, as
    # the kernel finds it.  s0*s1 is formed only when s1*s0 is not f*id.
    for name, left, right in (("s1*s0", F.s1.rows, F.s0.rows), ("s0*s1", F.s0.rows, F.s1.rows)):
        off = Polynomial._first_entry_off(f, left, right)
        if off is None:
            break
        r, c, entry = off
        expected = f if r == c else Polynomial.zero(f.field, f.nvars)
        problems.append(f"{name} disagrees with f*id at entry ({r},{c}): got {entry}, "
                        f"expected {expected}, difference {entry - expected}")
    return problems


def is_valid(F: MatrixFactorization) -> bool:
    return not validate(F)


def require_valid(F: MatrixFactorization) -> MatrixFactorization:
    problems = validate(F)
    if problems:
        raise ValueError("invalid matrix factorization: " + "; ".join(problems))
    return F


# ---------------------------------------------------------------------------
# Basic constructors


def trivial_one_f(f: Polynomial) -> MatrixFactorization:
    """The rank-1 trivial factorization (S, S, 1, f)."""
    return rank_one(f, Polynomial.constant(f.field, f.nvars, 1), f)


def trivial_f_one(f: Polynomial) -> MatrixFactorization:
    """The rank-1 trivial factorization (S(-d), S, f, 1)."""
    one = Polynomial.constant(f.field, f.nvars, 1)
    return _mk(f, (f.total_degree,), (0,), [(0, 0, f)], [(0, 0, one)])


def zero_mf(f: Polynomial) -> MatrixFactorization:
    """The rank-0 factorization of f."""
    return _mk(f, (), (), (), ())


def rank_one(f: Polynomial, u: Polynomial, v: Polynomial) -> MatrixFactorization:
    """The 1x1 factorization (S(-deg u), S, u, v) of f = v*u."""
    deg = u.total_degree
    if not isinstance(deg, int):
        raise ValueError("u must be nonzero")
    return _mk(f, (deg,), (0,), [(0, 0, u)], [(0, 0, v)])


# ---------------------------------------------------------------------------
# Shift, twist, sums


def shift(F: MatrixFactorization) -> MatrixFactorization:
    """The triangulated shift F[1] = (F1, F0(d), -s1, -s0)."""
    return MatrixFactorization(F.f, -F.s1.twist(F.d), -F.s0)


def twist(F: MatrixFactorization, t: int) -> MatrixFactorization:
    """The grading twist F(t): degrees move by -t, matrices unchanged."""
    return MatrixFactorization(F.f, F.s0.twist(t), F.s1.twist(t))


def direct_sum(F: MatrixFactorization, G: MatrixFactorization) -> MatrixFactorization:
    """Block-diagonal sum; both summands must factor the same f."""
    if F.f != G.f:
        raise ValueError("direct sum requires factorizations of the same polynomial")
    _check_rank(F.rank0 + G.rank0)
    f0 = list(F.f0_degrees) + list(G.f0_degrees)
    f1 = list(F.f1_degrees) + list(G.f1_degrees)
    s0 = chain(_nonzeros(F.s0.rows),
               ((F.rank1 + r, F.rank0 + c, e) for r, c, e in _nonzeros(G.s0.rows)))
    s1 = chain(_nonzeros(F.s1.rows),
               ((F.rank0 + r, F.rank1 + c, e) for r, c, e in _nonzeros(G.s1.rows)))
    return _mk(F.f, f0, f1, s0, s1)


# ---------------------------------------------------------------------------
# Tensor product


def tensor(F: MatrixFactorization, G: MatrixFactorization, *, normalize: bool = False) -> MatrixFactorization:
    """Tensor product: a factorization of f + g from one of f and one of g.

    Block convention (A = F maps, B = G maps, d the common degree):

        T0 = F0⊗G0 ⊕ (F1⊗G1)(-d)        T1 = F1⊗G0 ⊕ F0⊗G1
        t0 = [[A0⊗I, I⊗B1], [I⊗B0, -A1⊗I]]
        t1 = [[A1⊗I, I⊗B1], [I⊗B0, -A0⊗I]]

    The result is certified by its factors, which must pass
    ``require_valid``.  Valid factors give A1*A0 = A0*A1 = f*I and
    B1*B0 = B0*B1 = g*I (see ``validate``), and (X⊗Y)(X'⊗Y') = XX'⊗YY'.
    So the diagonal blocks of t1*t0 are A1A0⊗I + I⊗B1B0 and
    I⊗B0B1 + A0A1⊗I, both (f+g)*I, and its off-diagonal blocks are
    A1⊗B1 - A1⊗B1 = 0 and A0⊗B0 - A0⊗B0 = 0; t0*t1 is the same with
    the subscripts 0 and 1 swapped.  With ``normalize=True`` the result
    is twisted so that the minimum degree of T1 is zero.
    """
    T = _tensor(require_valid(F), require_valid(G))
    if normalize and T.rank1:
        T = twist(T, min(T.f1_degrees))
    return T


def _tensor(F: MatrixFactorization, G: MatrixFactorization) -> MatrixFactorization:
    """``tensor`` of two factors known to be valid, without validating
    them and without normalizing."""
    if F.field != G.field or F.nvars != G.nvars:
        raise ValueError("tensor factors must share one field and variable count")
    d = F.d
    if d != G.d:
        raise ValueError(f"degree mismatch: deg f = {d}, deg g = {G.d}")
    h = F.f + G.f
    if h.is_zero:
        raise ValueError("f + g = 0 admits no matrix factorization")
    rF0, rF1, rG0, rG1 = F.rank0, F.rank1, G.rank0, G.rank1
    _check_rank(rF0 * rG0 + rF1 * rG1)
    f0F, f1F = list(F.f0_degrees), list(F.f1_degrees)
    f0G, f1G = list(G.f0_degrees), list(G.f1_degrees)

    t0_degrees = [a + b for a in f0F for b in f0G] + [u + v + d for u in f1F for v in f1G]
    t1_degrees = [u + b for u in f1F for b in f0G] + [a + v for a in f0F for v in f1G]
    B0, B1 = G.s0.rows, G.s1.rows

    def blocks(A: tuple[Row, ...], A_next: tuple[Row, ...], nrows: int, ncols: int) -> Entries:
        # [[A⊗I, I⊗B1], [I⊗B0, -A_next⊗I]] for A of shape nrows x ncols;
        # (X⊗Y)[x*rows(Y) + y][x'*cols(Y) + y'] = X[x][x'] * Y[y][y'].
        dr, dc = nrows * rG0, ncols * rG0
        for r, c, e in _nonzeros(A):
            for k in range(rG0):
                yield r * rG0 + k, c * rG0 + k, e
        for r, c, e in _nonzeros(A_next):
            e = -e
            for k in range(rG1):
                yield dr + r * rG1 + k, dc + c * rG1 + k, e
        for r, c, e in _nonzeros(B1):
            for k in range(nrows):
                yield k * rG0 + r, dc + k * rG1 + c, e
        for r, c, e in _nonzeros(B0):
            for k in range(ncols):
                yield dr + k * rG1 + r, k * rG0 + c, e

    return _mk(h, t0_degrees, t1_degrees,
               blocks(F.s0.rows, F.s1.rows, rF1, rF0),
               blocks(F.s1.rows, F.s0.rows, rF0, rF1))


# ---------------------------------------------------------------------------
# Dual


def dual(F: MatrixFactorization) -> MatrixFactorization:
    """Transpose dual: degree multisets are negated, s0 and s1 swap into
    each other's transposes, and F1* is twisted by d so the result
    factors the same f.  Applying dual twice returns the original
    factorization exactly (the residual global twist is 0).
    """
    d = F.d
    f0 = [-m for m in reversed(list(F.f0_degrees))]
    f1 = [-m - d for m in reversed(list(F.f1_degrees))]
    # Both index orders reverse with the sorted degree lists under negation.
    n0, n1 = F.rank0 - 1, F.rank1 - 1
    s0 = ((n1 - c, n0 - r, e) for r, c, e in _nonzeros(F.s1.rows))
    s1 = ((n0 - c, n1 - r, e) for r, c, e in _nonzeros(F.s0.rows))
    return _mk(F.f, f0, f1, s0, s1)


# ---------------------------------------------------------------------------
# Reduction


def is_reduced(F: MatrixFactorization) -> bool:
    """True iff no entry of s0 or s1 has a nonzero constant term."""
    return not any(e._has_constant_term for m in (F.s0, F.s1) for row in m.rows for _, e in row)


def may_reduce_to_zero(F: MatrixFactorization) -> bool:
    """False when :func:`reduce` cannot take F to rank 0.  A split deletes
    one row of s0 and one of s1, its pivot's row among them, and gives no
    row a unit: the update adds q * (-p/u) to a row, a term with a
    constant only if that row's own q is a unit.  So rank 0 takes at least
    rank(F0) rows of s0 and s1 that hold a unit."""
    return sum(any(e._has_constant_term for _, e in row)
               for m in (F.s0, F.s1) for row in m.rows) >= F.rank0


def reduce(F: MatrixFactorization) -> MatrixFactorization:
    """Split off trivial rank-1 summands until no unit entries remain.

    Pivot policy: scan s0 then s1 in row-major order and take the first
    unit (nonzero constant) entry.  Each split performs exact row/column
    elimination over the polynomial ring and deletes one generator from
    F0 and one from F1; a pivot alone in its row or its column needs the
    deletion only.  Reduced inputs are returned unchanged.  A map that is
    not homogeneous of degree 0 (``HomogeneousMatrix.validate``) raises
    ValueError: an update keeps its entry's degree only in such maps.

    With a = [[u, p], [q, A]] (pivot first) the matrix of the pivot and b
    its partner, the row operations R and the column operations C that
    clear q and p give R*a*C = diag(u, A - q*p/u) and C^-1*b*R^-1 =
    diag(f/u, B'): C^-1 changes only the pivot row of b and R^-1 only its
    pivot column, so B' is b without them.  Clearing p touches only the
    pivot row of a, which is deleted too.  What remains is the Schur
    complement A - q*p/u, formed over the nonzero entries of q and p.

    Each matrix is scanned once, resuming at the row of the last pivot.
    This finds the pivots, hence the output, of a scan from (0, 0) after
    every split:
    - A row above the pivot has no unit, so its entry q in the pivot
      column has constant term 0.  Its update subtracts (q/u)*pivot[k],
      which adds nothing to any constant term: the row stays unit-free.
    - The partner matrix only loses a row and a column, so s0 gains no
      units once the s1 splits begin.
    Generators keep their indices while the splits run, so row-major
    order over the generators left is that of the compacted matrices.

    The splits run in :meth:`Polynomial._split_units`, on the sparse rows
    of both maps.  Between splits an entry is the input's own polynomial
    until an update touches it, and from then on the settled dict of its
    packed view, {key: raw value}, at the width of the widest input entry.
    Each update is one multiply-accumulate call, and only the entries left
    after the last split become polynomials, once each.  This function
    keeps the generators and assembles the result.
    """
    if problems := [f"{name} {p}" for name, m in (("s0", F.s0), ("s1", F.s1)) for p in m.validate()]:
        raise ValueError("reduce needs maps homogeneous of degree 0: " + problems[0])
    s0 = {r: dict(row) for r, row in enumerate(F.s0.rows)}
    s1 = {r: dict(row) for r, row in enumerate(F.s1.rows)}
    Polynomial._split_units(F.field, F.nvars, s0, s1)
    if len(s1) == F.rank0:
        return F
    # The rows of s1 are the F0 generators left, those of s0 the F1 ones.
    return _mk(F.f, {k: F.f0_degrees[k] for k in s1}, {k: F.f1_degrees[k] for k in s0},
               ((r, c, e) for r, row in s0.items() for c, e in row.items()),
               ((r, c, e) for r, row in s1.items() for c, e in row.items()))


# ---------------------------------------------------------------------------
# Betti numbers


def betti(F: MatrixFactorization) -> BettiTable:
    """Generator counts b^i_j; requires a reduced factorization (for a
    non-reduced one these counts exceed the Betti numbers of coker s0)."""
    if not is_reduced(F):
        raise ValueError("Betti extraction requires a reduced factorization; call reduce() first")
    return BettiTable.from_pairs(
        ((i, m), 1) for i, degrees in ((0, F.f0_degrees), (1, F.f1_degrees)) for m in degrees)


# ---------------------------------------------------------------------------
# Fermat-type generator


def fermat(pairs: int, half_degree: int, *, solo: bool = False,
           field: Field = QI) -> MatrixFactorization:
    """Tensor of ``pairs`` rank-one factors (x^m + i*y^m, x^m - i*y^m)
    in consecutive variable pairs, optionally followed by one solo factor
    (z^m, z^m) in a fresh variable.  The result factors the Fermat-type
    polynomial sum(x_k^(2m)) and is twist-normalized so the minimum
    degree of F1 is 0.  Rank is 2^(pairs-1), or 2^pairs with the solo
    factor; a rank above MAX_FERMAT_RANK raises ValueError before anything
    is built.  The field must contain a square root of -1.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if half_degree < 1:
        raise ValueError("half_degree must be >= 1")
    log_rank = pairs if solo else pairs - 1
    if log_rank >= MAX_FERMAT_RANK.bit_length():  # 2^log_rank > MAX_FERMAT_RANK
        raise ValueError(f"rank 2^{log_rank} exceeds MAX_FERMAT_RANK = {MAX_FERMAT_RANK}")
    m = half_degree
    nvars = 2 * pairs + (1 if solo else 0)
    i = Polynomial._i(field, nvars)

    def power(index: int) -> Polynomial:
        return Polynomial.variable(field, nvars, index) ** m

    factors = []
    for j in range(pairs):
        u, v = power(2 * j), power(2 * j + 1)
        factors.append(rank_one(u * u + v * v, u + v * i, u - v * i))
    if solo:
        w = power(2 * pairs)
        factors.append(rank_one(w * w, w, w))
    result = factors[0]
    # The factors are valid, (u + i*v)(u - i*v) = u^2 + v^2 and w*w = w^2,
    # hence so is each product (see tensor); validating them again would
    # be most of the cost.
    for factor in factors[1:]:
        result = _tensor(result, factor)
    if result.rank1:
        result = twist(result, min(result.f1_degrees))
    return result


# ---------------------------------------------------------------------------
# Equality up to presentation


def presentation_equivalent(F: MatrixFactorization, G: MatrixFactorization) -> bool:
    """True iff F and G differ only by permutations of equal-degree
    generators (degree multisets match and some block permutation makes
    the matrices equal)."""
    if F.f != G.f:
        return False
    if F.f0_degrees != G.f0_degrees or F.f1_degrees != G.f1_degrees:
        return False
    if F == G:
        return True

    def permuted(matrix: HomogeneousMatrix, rows: list[int], cols: list[int]):
        return tuple(tuple(matrix.entries[r][c] for c in cols) for r in rows)

    return any(permuted(F.s0, p1, p0) == G.s0.entries and permuted(F.s1, p0, p1) == G.s1.entries
               for p0 in _block_permutations(list(F.f0_degrees))
               for p1 in _block_permutations(list(F.f1_degrees)))


def _block_permutations(degrees: list[int]) -> Iterable[list[int]]:
    # All permutations of indices that fix the (sorted) degree sequence.
    blocks = [[k for k, _ in grp] for _, grp in groupby(enumerate(degrees), itemgetter(1))]
    for combo in product(*(permutations(block) for block in blocks)):
        yield [k for part in combo for k in part]
