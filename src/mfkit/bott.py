"""Sheaf cohomology of twisted differentials on projective space.

Bott's formula gives, for 0 <= p, q <= n and any twist l,

    h^q(P^n, Omega^p(l)) = C(l+n-p, l) * C(l-1, p)    if q = 0 and l > p,
                           1                          if l = 0 and q = p,
                           C(p-l, -l) * C(-l-1, n-p)  if q = n and l < p-n,
                           0                          otherwise,

so each vector q -> h^q has at most one nonzero entry.  Binomials are
extended by C(x, k) = 0 whenever k < 0 or x < k, which makes every
branch total.

Restriction to a degree-d hypersurface X uses the short exact sequence

    0 -> Omega^r(r+t-d) -> Omega^r(r+t) -> O_X ⊗ Omega^r(r+t) -> 0

whose long exact sequence collapses because the two ambient vectors are
concentrated in single degrees: multiplication by the defining equation
is injective on H^0 and surjective (Serre-dually injective) on H^n, and
a collision in a middle degree would force l = 0 twice, which d >= 1
rules out.

On top of the restriction sit the aggregate invariants: rho of the
structure sheaf (closed form), of a point, and of a line bundle O_X(j),
each the total of Beilinson-type cohomology tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping


def binom(x: int, k: int) -> int:
    """Binomial coefficient with C(x, k) = 0 for k < 0 or x < k."""
    if k < 0 or x < k:
        return 0
    return math.comb(x, k)


@dataclass(frozen=True)
class CohomologyVector:
    """Counts q -> h^q for q in [0, n], stored sparsely."""

    n: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for q, value in self.entries:
            if not 0 <= q <= self.n:
                raise ValueError(f"cohomological degree {q} outside [0, {self.n}]")
            if value <= 0:
                raise ValueError(f"count at q={q} must be positive, got {value}")
        if tuple(sorted(self.entries)) != tuple(self.entries):
            raise ValueError("entries must be sorted by degree")

    @classmethod
    def from_mapping(cls, n: int, counts: Mapping[int, int]) -> "CohomologyVector":
        return cls(n, tuple(sorted((q, v) for q, v in counts.items() if v)))

    def get(self, q: int) -> int:
        for qq, value in self.entries:
            if qq == q:
                return value
        return 0

    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def euler(self) -> int:
        return sum(v if q % 2 == 0 else -v for q, v in self.entries)

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return ", ".join(f"h^{q}={v}" for q, v in self.entries)


def bott(n: int, p: int, q: int, l: int) -> int:
    """h^q(P^n, Omega^p(l)); 0 outside 0 <= p, q <= n."""
    if n < 0 or not (0 <= p <= n and 0 <= q <= n):
        return 0
    if q == 0 and l > p:
        return binom(l + n - p, l) * binom(l - 1, p)
    if l == 0 and q == p:
        return 1
    if q == n and l < p - n:
        return binom(p - l, -l) * binom(-l - 1, n - p)
    return 0


def bott_vector(n: int, p: int, l: int) -> CohomologyVector:
    """The full vector q -> h^q(P^n, Omega^p(l)); at most one entry."""
    return CohomologyVector.from_mapping(
        n, {q: bott(n, p, q, l) for q in range(n + 1)}
    )


def restricted_bott(n: int, d: int, r: int, t: int) -> CohomologyVector:
    """q -> h^q(P^n, O_X ⊗ Omega^r(r+t)) for the degree-d hypersurface X,
    resolved from the long exact sequence of the restriction."""
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    if d < 1:
        raise ValueError("hypersurface degree d must be >= 1")
    if not 0 <= r <= n:
        raise ValueError(f"r = {r} outside [0, {n}]")
    sub = bott_vector(n, r, r + t - d)   # Omega^r(r+t-d), the subsheaf
    amb = bott_vector(n, r, r + t)       # Omega^r(r+t), the ambient middle term
    sub_deg = sub.nonzero_degrees()
    amb_deg = amb.nonzero_degrees()
    if sub_deg and amb_deg and sub_deg == amb_deg:
        q = sub_deg[0]
        alpha, beta = sub.get(q), amb.get(q)
        if q == 0:
            # multiplication by f is injective on global sections
            assert beta >= alpha, "H^0 injectivity violated"
            return CohomologyVector.from_mapping(n, {0: beta - alpha})
        if q == n:
            # Serre-dually, multiplication by f is surjective on H^n
            assert alpha >= beta, "H^n surjectivity violated"
            return CohomologyVector.from_mapping(n, {n - 1: alpha - beta})
        raise AssertionError(
            f"ambient cohomology collided in middle degree q={q}; "
            "this requires twist 0 twice and cannot occur for d >= 1"
        )
    # No collision: every connecting segment splits.
    assert sub.get(0) == 0, "H^0 of the subsheaf must inject into the ambient H^0"
    counts = {q: amb.get(q) + sub.get(q + 1) for q in range(n + 1)}
    return CohomologyVector.from_mapping(n, counts)


def rho_structure_sheaf(n: int, d: int) -> int:
    """rho(O_X), valid when a = n+1-d <= 0; equals the total of the
    restricted Bott vectors and 1 + sum_r C(d, d-r) * C(d-r-1, n-r).

    The generating function (1+2x)^d / (1+x) gives the alternating form
    1 + sum_{k=0..n} (-1)^(n-k) * 2^k * C(d, k), evaluated here through
    S(k) = 2^k * C(d, k) - S(k-1) with S = rho - 1."""
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    if n + 1 - d > 0:
        raise ValueError(
            f"rho(O_X) closed form requires a = n+1-d <= 0, got a = {n + 1 - d}"
        )
    s, c = 0, 1  # c = C(d, k)
    for k in range(n + 1):
        s = (c << k) - s
        c = c * (d - k) // (k + 1)
    return s + 1


def rho_structure_sheaf_rows(n_max: int, d_max: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, d, rho(O_X)) for 1 <= n <= n_max and n < d <= d_max,
    ordered by n, then d.

    With S(n, d) = rho - 1, the coefficient of x^n in (1+2x)^d / (1+x),
    each row follows from the previous one: S(0, d) = 1,
    S(n, n+1) = 2^(n+1) - 1 and S(n, d+1) = S(n, d) + 2 * S(n-1, d).
    The step is the product with 1+2x.  The seed holds because the
    alternating sum of 2^k * C(n+1, k) over 0 <= k <= n+1 is
    (2-1)^(n+1) = 1, and its k = n+1 term is 2^(n+1)."""
    s = [1] * (d_max + 1)  # s[d] = S(n-1, d), overwritten by S(n, d)
    for n in range(1, min(n_max, d_max - 1) + 1):
        value = (2 << n) - 1
        for d in range(n + 1, d_max + 1):
            s[d], value = value, value + 2 * s[d]
            yield n, d, s[d] + 1


def rho_point(n: int) -> int:
    """rho of a point sheaf: sum of the ranks of Omega^r, i.e. 2^n."""
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    return sum(math.comb(n, r) for r in range(n + 1))


def rho_line_bundle(n: int, d: int, j: int) -> int:
    """rho(O_X(j)): total of the restricted Bott vectors at twist j.
    No Fano exclusion here; this is how the a > 0 counterexamples are
    computed."""
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    if d < 1:
        raise ValueError("hypersurface degree d must be >= 1")
    return sum(restricted_bott(n, d, r, j).total() for r in range(n + 1))
