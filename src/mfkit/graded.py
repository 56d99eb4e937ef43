"""Graded free modules and homogeneous polynomial matrices.

The graded free module ``⊕_j S(-m_j)`` is recorded as the sorted tuple of
its generator degrees ``(m_1 <= ... <= m_r)``; twisting by ``t`` sends
every ``m_j`` to ``m_j - t`` (since ``S(-m)(t) = S(-(m - t))``).

A matrix with source degrees (columns) and target degrees (rows) is
homogeneous of degree 0 when entry ``(r, c)`` is zero or homogeneous of
degree ``source[c] - target[r]``; a negative required degree forces the
entry to be zero.  This convention makes the Koszul-type resolution
``S(-1)^{n+1} -> S`` carry linear entries.

Degree multisets carry a fixed (sorted, stable) order so matrices are
positionally unambiguous.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import Field, Polynomial


@dataclass(frozen=True)
class DegreeMultiset:
    """Sorted tuple of generator degrees of a graded free module."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degs = tuple(self.degrees)
        object.__setattr__(self, "degrees", degs)
        if any(not isinstance(m, int) for m in degs):
            raise ValueError("generator degrees must be integers")
        if any(degs[k] > degs[k + 1] for k in range(len(degs) - 1)):
            raise ValueError(f"generator degrees must be sorted ascending: {degs}")

    @classmethod
    def from_iterable(cls, degrees: Iterable[int]) -> "DegreeMultiset":
        return cls(tuple(sorted(degrees)))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def twist(self, t: int) -> "DegreeMultiset":
        return DegreeMultiset(tuple(m - t for m in self.degrees))

    def multiplicity(self, degree: int) -> int:
        return sum(1 for m in self.degrees if m == degree)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, k: int) -> int:
        return self.degrees[k]

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.degrees) + "}"


@dataclass(frozen=True)
class HomogeneousMatrix:
    """Polynomial matrix between graded free modules.

    ``entries`` has ``len(target)`` rows and ``len(source)`` columns.
    Construction checks only shape and coefficient-field consistency;
    the degree constraints are checked by :meth:`validate`.
    """

    field: Field
    nvars: int
    source: DegreeMultiset
    target: DegreeMultiset
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != len(self.target):
            raise ValueError(f"expected {len(self.target)} rows, got {len(rows)}")
        for r, row in enumerate(rows):
            if len(row) != len(self.source):
                raise ValueError(f"row {r}: expected {len(self.source)} columns, got {len(row)}")
            for c, entry in enumerate(row):
                if entry.field != self.field or entry.nvars != self.nvars:
                    raise ValueError(f"entry ({r},{c}) lives in the wrong polynomial ring")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int, source: DegreeMultiset, target: DegreeMultiset) -> "HomogeneousMatrix":
        z = Polynomial.zero(field, nvars)
        return cls(field, nvars, source, target, tuple(tuple(z for _ in source) for _ in target))

    @classmethod
    def identity(cls, field: Field, nvars: int, degrees: DegreeMultiset) -> "HomogeneousMatrix":
        z = Polynomial.zero(field, nvars)
        one = Polynomial.constant(field, nvars, 1)
        rows = tuple(
            tuple(one if r == c else z for c in range(len(degrees)))
            for r in range(len(degrees))
        )
        return cls(field, nvars, degrees, degrees, rows)

    # -- queries ----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.target)

    @property
    def ncols(self) -> int:
        return len(self.source)

    def validate(self) -> list[str]:
        """Diagnostics for every entry violating the homogeneity
        constraint; empty iff the matrix is homogeneous of degree 0."""
        problems = []
        for r, row in enumerate(self.entries):
            for c, entry in enumerate(row):
                expected = self.source[c] - self.target[r]
                if entry.is_zero:
                    continue
                if expected < 0:
                    problems.append(
                        f"entry ({r},{c}): expected degree {expected} < 0, entry must be zero"
                    )
                elif not entry.is_homogeneous:
                    problems.append(
                        f"entry ({r},{c}): not homogeneous, expected degree {expected}"
                    )
                elif entry.total_degree != expected:
                    problems.append(
                        f"entry ({r},{c}): degree {entry.total_degree}, expected {expected}"
                    )
        return problems

    # -- operations -------------------------------------------------------

    def twist(self, t: int) -> "HomogeneousMatrix":
        """Twist source and target by the same t; entries are unchanged."""
        return HomogeneousMatrix(
            self.field, self.nvars, self.source.twist(t), self.target.twist(t), self.entries
        )

    def __neg__(self) -> "HomogeneousMatrix":
        return HomogeneousMatrix(
            self.field,
            self.nvars,
            self.source,
            self.target,
            tuple(tuple(-e for e in row) for row in self.entries),
        )


def compose(a: HomogeneousMatrix, b: HomogeneousMatrix) -> HomogeneousMatrix:
    """The matrix product a ∘ b (apply b first)."""
    if a.field != b.field or a.nvars != b.nvars:
        raise ValueError("cannot compose matrices over different polynomial rings")
    if a.source != b.target:
        raise ValueError(
            f"shape/degree mismatch: source of left factor {a.source} != target of right factor {b.target}"
        )
    field, nvars = a.field, a.nvars
    zero = Polynomial.zero(field, nvars)
    # Only nonzero entries take part: (m, a[r][m]) per row of a, and
    # {m: b[m][c]} per column of b.
    a_rows = [[(m, e) for m, e in enumerate(row) if e.terms] for row in a.entries]
    b_cols = [
        {m: row[c] for m, row in enumerate(b.entries) if row[c].terms}
        for c in range(b.ncols)
    ]
    rows = []
    for a_row in a_rows:
        row = []
        for b_col in b_cols:
            pairs = [(left, b_col[m]) for m, left in a_row if m in b_col]
            row.append(Polynomial._sum_of_products(field, nvars, pairs) if pairs else zero)
        rows.append(tuple(row))
    return HomogeneousMatrix(field, nvars, b.source, a.target, tuple(rows))
