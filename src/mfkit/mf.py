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
and s1; ``_mk`` sorts the generators and writes each entry once.

Values are immutable and operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, permutations, product
from typing import Iterable, Mapping, Sequence

from .algebra import QI, Field, Polynomial
from .graded import DegreeMultiset, HomogeneousMatrix, compose

Grid = Sequence[Sequence[Polynomial]]

# Largest rank that fermat(), tensor() and direct_sum() build: the matrices
# are dense, and each doubling of the rank costs about 4x the time and the
# document size.
MAX_FERMAT_RANK = 2**10


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BettiTable:
    """Finitely supported counts b^i_j of degree-j generators of F^i."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_mapping(cls, counts: Mapping[tuple[int, int], int]) -> "BettiTable":
        for key, value in counts.items():
            if value < 0:
                raise ValueError(f"negative count {value} at {key}")
        items = tuple(sorted((k, v) for k, v in counts.items() if v))
        return cls(items)

    def get(self, i: int, j: int) -> int:
        for (ii, jj), value in self.entries:
            if (ii, jj) == (i, j):
                return value
        return 0

    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def mapping(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        return ", ".join(f"b[{i}][{j}]={v}" for (i, j), v in self.entries)


# ---------------------------------------------------------------------------
# Construction helpers

# A map given by its nonzero entries (row, column, polynomial).
Entries = Iterable[tuple[int, int, Polynomial]]


def _argsort(values: Sequence[int]) -> list[int]:
    return sorted(range(len(values)), key=lambda k: (values[k], k))


def _mk(
    f: Polynomial,
    f0_degrees: Sequence[int],
    f1_degrees: Sequence[int],
    s0: Entries,
    s1: Entries,
) -> MatrixFactorization:
    """Assemble a factorization from the nonzero entries of s0 (rows F1,
    columns F0) and s1 (rows F0, columns F1), indexed by the generators
    as listed.  Both generator lists are sorted, and each entry is written
    once into a zero grid, at the row and column its generators sort to."""
    deg = f.total_degree
    if f.is_zero or not f.is_homogeneous or not isinstance(deg, int) or deg < 1:
        raise ValueError("f must be homogeneous of degree >= 1")
    p0 = _argsort(f0_degrees)
    p1 = _argsort(f1_degrees)
    F0 = DegreeMultiset(tuple(f0_degrees[k] for k in p0))
    F1 = DegreeMultiset(tuple(f1_degrees[k] for k in p1))
    at0 = {k: pos for pos, k in enumerate(p0)}
    at1 = {k: pos for pos, k in enumerate(p1)}
    zero = Polynomial.zero(f.field, f.nvars)

    def grid(entries: Entries, at_row: dict[int, int], at_col: dict[int, int]) -> list[list[Polynomial]]:
        out = [[zero] * len(at_col) for _ in at_row]
        for r, c, entry in entries:
            out[at_row[r]][at_col[c]] = entry
        return out

    return MatrixFactorization(
        f,
        HomogeneousMatrix(f.field, f.nvars, F0, F1, grid(s0, at1, at0)),
        HomogeneousMatrix(f.field, f.nvars, F1.twist(-deg), F0, grid(s1, at0, at1)),
    )


def _nonzeros(grid: Grid) -> Entries:
    for r, row in enumerate(grid):
        for c, entry in enumerate(row):
            if entry.terms:
                yield r, c, entry


def _check_rank(rank: int) -> None:
    if rank > MAX_FERMAT_RANK:
        raise ValueError(f"rank {rank} exceeds MAX_FERMAT_RANK = {MAX_FERMAT_RANK}")


# ---------------------------------------------------------------------------
# Validation


def validate(F: MatrixFactorization) -> list[str]:
    """Diagnostics list; empty iff F is a valid graded matrix
    factorization of its polynomial."""
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
        problems.append(
            f"s1 source degrees {F.s1.source} must be F1 degrees shifted by d = {deg}: {f1.twist(-deg)}"
        )
    if F.s1.target != f0:
        problems.append(f"s1 target degrees {F.s1.target} must equal F0 degrees {f0}")
    problems.extend(f"s0 {msg}" for msg in F.s0.validate())
    problems.extend(f"s1 {msg}" for msg in F.s1.validate())
    if problems:
        return problems

    # Composite identities; report the first offending entry of each.
    for name, prod_matrix in (
        ("s1*s0", compose(F.s1.twist(deg), F.s0)),
        ("s0*s1", compose(F.s0, F.s1)),
    ):
        mismatch = _first_composite_mismatch(prod_matrix, f)
        if mismatch is not None:
            problems.append(f"{name} disagrees with f*id at {mismatch}")
    return problems


def _first_composite_mismatch(prod_matrix: HomogeneousMatrix, f: Polynomial) -> str | None:
    zero = Polynomial.zero(f.field, f.nvars)
    for r in range(prod_matrix.nrows):
        for c in range(prod_matrix.ncols):
            expected = f if r == c else zero
            got = prod_matrix.entries[r][c]
            if got != expected:
                diff = got - expected
                return f"entry ({r},{c}): got {got}, expected {expected}, difference {diff}"
    return None


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
    one = Polynomial.constant(f.field, f.nvars, 1)
    return _mk(f, (0,), (0,), [(0, 0, one)], [(0, 0, f)])


def trivial_f_one(f: Polynomial) -> MatrixFactorization:
    """The rank-1 trivial factorization (S(-d), S, f, 1)."""
    one = Polynomial.constant(f.field, f.nvars, 1)
    deg = f.total_degree
    return _mk(f, (deg,), (0,), [(0, 0, f)], [(0, 0, one)])


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
    s0 = chain(_nonzeros(F.s0.entries),
               ((F.rank1 + r, F.rank0 + c, e) for r, c, e in _nonzeros(G.s0.entries)))
    s1 = chain(_nonzeros(F.s1.entries),
               ((F.rank0 + r, F.rank1 + c, e) for r, c, e in _nonzeros(G.s1.entries)))
    return _mk(F.f, f0, f1, s0, s1)


# ---------------------------------------------------------------------------
# Tensor product


def tensor(F: MatrixFactorization, G: MatrixFactorization, *, normalize: bool = False) -> MatrixFactorization:
    """Tensor product: a factorization of f + g from one of f and one of g.

    Block convention (A = F maps, B = G maps, d the common degree):

        T0 = F0⊗G0 ⊕ (F1⊗G1)(-d)        T1 = F1⊗G0 ⊕ F0⊗G1
        t0 = [[A0⊗I, I⊗B1], [I⊗B0, -A1⊗I]]
        t1 = [[A1⊗I, I⊗B1], [I⊗B0, -A0⊗I]]

    The sign placement is certified by a construction-time validity
    check.  With ``normalize=True`` the result is twisted so that the
    minimum degree of T1 is zero.
    """
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
    B0, B1 = G.s0.entries, G.s1.entries

    def blocks(A: Grid, A_next: Grid, nrows: int, ncols: int) -> Entries:
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

    T = _mk(h, t0_degrees, t1_degrees,
            blocks(F.s0.entries, F.s1.entries, rF1, rF0),
            blocks(F.s1.entries, F.s0.entries, rF0, rF1))
    problems = validate(T)
    if problems:
        raise AssertionError("tensor construction violated the factorization identity: " + problems[0])
    if normalize and T.rank1:
        T = twist(T, min(T.f1_degrees))
    return T


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
    s0 = ((n1 - c, n0 - r, e) for r, c, e in _nonzeros(F.s1.entries))
    s1 = ((n0 - c, n1 - r, e) for r, c, e in _nonzeros(F.s0.entries))
    return _mk(F.f, f0, f1, s0, s1)


# ---------------------------------------------------------------------------
# Reduction


def is_reduced(F: MatrixFactorization) -> bool:
    """True iff no entry of s0 or s1 has a nonzero constant term."""
    return _find_unit(F.s0.entries, 0) is None and _find_unit(F.s1.entries, 0) is None


def reduce(F: MatrixFactorization) -> MatrixFactorization:
    """Split off trivial rank-1 summands until no unit entries remain.

    Pivot policy: scan s0 then s1 in row-major order and take the first
    unit (nonzero constant) entry.  Each split performs exact row/column
    elimination over the polynomial ring and deletes one generator from
    F0 and one from F1.  Reduced inputs are returned unchanged.

    Each matrix is scanned once, resuming at the row of the last pivot.
    This finds the pivots, hence the output, of a scan from (0, 0) after
    every split:
    - A row above the pivot has no unit, so its entry q in the pivot
      column has constant term 0.  Its update subtracts (q/u)*pivot[k],
      which adds nothing to any constant term: the row stays unit-free.
    - The partner matrix only loses a row and a column, so s0 gains no
      units once the s1 splits begin.
    """
    f0 = list(F.f0_degrees)
    f1 = list(F.f1_degrees)
    s0 = [list(row) for row in F.s0.entries]
    s1 = [list(row) for row in F.s1.entries]
    # (matrix, partner, its row degrees, its column degrees)
    for a, b, rows, cols in ((s0, s1, f1, f0), (s1, s0, f0, f1)):
        r = 0
        while (pos := _find_unit(a, r)) is not None:
            r, c = pos
            _split_summand(F.field, a, b, r, c)
            del rows[r]
            del cols[c]
    if len(f0) == F.rank0:
        return F
    return _mk(F.f, f0, f1, _nonzeros(s0), _nonzeros(s1))


def _find_unit(grid: Grid, start: int) -> tuple[int, int] | None:
    for r in range(start, len(grid)):
        for c, entry in enumerate(grid[r]):
            if entry.constant_term:
                return (r, c)
    return None


def _split_summand(field: Field, a: list[list[Polynomial]], b: list[list[Polynomial]],
                   r: int, c: int) -> None:
    """Split off the trivial summand at the unit pivot a[r][c] and delete
    its generator pair: row r and column c of ``a``, row c and column r of
    the partner ``b``.  Mutates the grids in place.

    With a = [[u, p], [q, A]] (pivot first), the row operations R and the
    column operations C that clear q and p give R*a*C = diag(u, A - q*p/u)
    and C^-1*b*R^-1 = diag(f/u, B'): C^-1 changes only the pivot row of b
    and R^-1 only its pivot column, so B' is b without them.  Clearing p
    touches only the pivot row of a, which is deleted too.  What remains
    is the Schur complement A - q*p/u, computed over the nonzero entries
    of q and p."""
    pivot = a[r]
    uinv = field.inv(pivot[c].constant_term)
    pivot_cols = [k for k, entry in enumerate(pivot) if k != c and entry.terms]
    for r2, row in enumerate(a):
        if r2 == r or row[c].is_zero:
            continue
        lam = row[c].scalar_mul(uinv)
        for k in pivot_cols:
            row[k] = row[k] - lam * pivot[k]
    del a[r]
    for row in a:
        del row[c]
    del b[c]
    for row in b:
        del row[r]


# ---------------------------------------------------------------------------
# Betti numbers


def betti(F: MatrixFactorization) -> BettiTable:
    """Generator counts b^i_j; requires a reduced factorization (for a
    non-reduced one these counts exceed the Betti numbers of coker s0)."""
    if not is_reduced(F):
        raise ValueError("Betti extraction requires a reduced factorization; call reduce() first")
    counts: dict[tuple[int, int], int] = {}
    for i, degrees in ((0, F.f0_degrees), (1, F.f1_degrees)):
        for m in degrees:
            counts[(i, m)] = counts.get((i, m), 0) + 1
    return BettiTable.from_mapping(counts)


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
    i_scalar = field.i()
    m = half_degree
    nvars = 2 * pairs + (1 if solo else 0)

    def power(index: int) -> Polynomial:
        return Polynomial.variable(field, nvars, index) ** m

    factors = []
    for j in range(pairs):
        u, v = power(2 * j), power(2 * j + 1)
        factors.append(rank_one(u * u + v * v, u + v * i_scalar, u - v * i_scalar))
    if solo:
        w = power(2 * pairs)
        factors.append(rank_one(w * w, w, w))
    result = factors[0]
    for factor in factors[1:]:
        result = tensor(result, factor)
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
    for p0 in _block_permutations(list(F.f0_degrees)):
        for p1 in _block_permutations(list(F.f1_degrees)):
            if all(
                F.s0.entries[p1[r]][p0[c]] == G.s0.entries[r][c]
                for r in range(F.rank1) for c in range(F.rank0)
            ) and all(
                F.s1.entries[p0[r]][p1[c]] == G.s1.entries[r][c]
                for r in range(F.rank0) for c in range(F.rank1)
            ):
                return True
    return False


def _block_permutations(degrees: list[int]) -> Iterable[list[int]]:
    # All permutations of indices that fix the (sorted) degree sequence.
    blocks = []
    start = 0
    for _, grp in groupby(degrees):
        size = len(list(grp))
        blocks.append(list(range(start, start + size)))
        start += size
    for combo in product(*(permutations(block) for block in blocks)):
        flat: list[int] = []
        for part in combo:
            flat.extend(part)
        yield flat
