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
positionally unambiguous.  Matrices store their nonzero entries row by
row, and products and degree checks visit those alone.  Everything here
is immutable and pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import repeat

from ._value import value_class
from .algebra import Field, Polynomial

# The nonzero entries (column, polynomial) of one matrix row, in column order.
Row = tuple[tuple[int, Polynomial], ...]


@value_class
class DegreeMultiset:
    """Sorted tuple of generator degrees of a graded free module."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degs = tuple(self.degrees)
        object.__setattr__(self, "degrees", degs)
        # bool is an int subclass; a degree must be a plain int.
        if any(type(m) is not int for m in degs):
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


@value_class
class HomogeneousMatrix:
    """Polynomial matrix between graded free modules, stored sparsely.

    ``rows`` holds one tuple per target generator: the nonzero entries
    ``(column, polynomial)`` of that row, in column order.  ``entries`` is
    the dense view, ``len(target)`` rows of ``len(source)`` polynomials,
    built on demand.  The constructor takes such a dense grid and checks
    its shape and the ring of every entry; the degree constraints are
    checked by :meth:`validate`.
    """

    field: Field
    nvars: int
    source: DegreeMultiset
    target: DegreeMultiset
    rows: tuple[Row, ...]

    def __init__(self, field: Field, nvars: int, source: DegreeMultiset,
                 target: DegreeMultiset, entries: Iterable[Iterable[Polynomial]]):
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != len(target):
            raise ValueError(f"expected {len(target)} rows, got {len(grid)}")
        for r, row in enumerate(grid):
            if len(row) != len(source):
                raise ValueError(f"row {r}: expected {len(source)} columns, got {len(row)}")
            for c, entry in enumerate(row):
                if (entry.field is not field and entry.field != field) or entry.nvars != nvars:
                    raise ValueError(f"entry ({r},{c}) lives in the wrong polynomial ring")
        rows = tuple(tuple((c, e) for c, e in enumerate(row) if not e.is_zero) for row in grid)
        # The frozen value class guards __setattr__, not the instance dict.
        self.__dict__.update(field=field, nvars=nvars, source=source, target=target, rows=rows)

    @classmethod
    def _from_rows(cls, field: Field, nvars: int, source: DegreeMultiset,
                   target: DegreeMultiset, rows: tuple[Row, ...]) -> "HomogeneousMatrix":
        """Trusted constructor: ``rows`` as stored, nonzero entries only,
        columns ascending and below ``len(source)``.  Only the ring of
        each entry is checked."""
        for r, row in enumerate(rows):
            for c, entry in row:
                if (entry.field is not field and entry.field != field) or entry.nvars != nvars:
                    raise ValueError(f"entry ({r},{c}) lives in the wrong polynomial ring")
        matrix = object.__new__(cls)
        matrix.__dict__.update(field=field, nvars=nvars, source=source, target=target, rows=rows)
        return matrix

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int, source: DegreeMultiset, target: DegreeMultiset) -> "HomogeneousMatrix":
        return cls._from_rows(field, nvars, source, target, ((),) * len(target))

    @classmethod
    def identity(cls, field: Field, nvars: int, degrees: DegreeMultiset) -> "HomogeneousMatrix":
        one = Polynomial.constant(field, nvars, 1)
        return cls._from_rows(field, nvars, degrees, degrees, tuple(((r, one),) for r in range(len(degrees))))

    # -- queries ----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.target)

    @property
    def ncols(self) -> int:
        return len(self.source)

    # Built once per matrix, in the instance dict.
    @cached_property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        zero = Polynomial.zero(self.field, self.nvars)
        return tuple(tuple(map(dict(row).get, range(self.ncols), repeat(zero))) for row in self.rows)

    def validate(self) -> list[str]:
        """Diagnostics for every entry violating the homogeneity
        constraint; empty iff the matrix is homogeneous of degree 0.  They
        are found once per matrix, which is immutable, so that
        :func:`mf.reduce` checks again for free what ``mf.validate``
        checked."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        # Each distinct entry object is read once, keyed by its id, which
        # no other entry shares while the matrix holds them all.
        problems, degrees = [], {}
        source, target = self.source.degrees, self.target.degrees
        for r, row in enumerate(self.rows):
            for c, entry in row:
                expected = source[c] - target[r]
                # The degree of a homogeneous entry, None for any other.
                if (degree := degrees.get(id(entry), entry)) is entry:
                    degree = degrees[id(entry)] = entry.total_degree if entry.is_homogeneous else None
                if expected < 0:
                    problem = f"expected degree {expected} < 0, entry must be zero"
                elif degree is None:
                    problem = f"not homogeneous, expected degree {expected}"
                elif degree != expected:
                    problem = f"degree {degree}, expected {expected}"
                else:
                    continue
                problems.append(f"entry ({r},{c}): {problem}")
        return tuple(problems)

    # -- operations -------------------------------------------------------

    def twist(self, t: int) -> "HomogeneousMatrix":
        """Twist source and target by the same t; entries are unchanged."""
        return HomogeneousMatrix._from_rows(
            self.field, self.nvars, self.source.twist(t), self.target.twist(t), self.rows
        )

    def __neg__(self) -> "HomogeneousMatrix":
        rows = tuple(tuple((c, -e) for c, e in row) for row in self.rows)
        return HomogeneousMatrix._from_rows(self.field, self.nvars, self.source, self.target, rows)


def compose(a: HomogeneousMatrix, b: HomogeneousMatrix) -> HomogeneousMatrix:
    """The matrix product a ∘ b (apply b first), row by row over the
    nonzero entries (Gustavson, ACM TOMS 4(3), 1978): row r of the
    product gathers, for each nonzero a[r][m], the nonzeros of row m of
    b, so the work is the number of nonzero products.  All rows are one
    call of the polynomial kernel, which sums each row in one dict."""
    if a.field != b.field or a.nvars != b.nvars:
        raise ValueError("cannot compose matrices over different polynomial rings")
    if a.source != b.target:
        raise ValueError(
            f"shape/degree mismatch: source of left factor {a.source} != target of right factor {b.target}"
        )
    field, nvars = a.field, a.nvars
    rows = tuple(map(tuple, Polynomial._product_rows(field, nvars, a.rows, b.rows)))
    return HomogeneousMatrix._from_rows(field, nvars, b.source, a.target, rows)
