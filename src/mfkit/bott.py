"""Sheaf cohomology of twisted differentials on projective space.

Bott's formula gives, for 0 <= p, q <= n and any twist l,

    h^q(P^n, Omega^p(l)) = C(l+n-p, l) * C(l-1, p)    if q = 0 and l > p,
                           1                          if l = 0 and q = p,
                           C(p-l, -l) * C(-l-1, n-p)  if q = n and l < p-n,
                           0                          otherwise,

so each vector q -> h^q has at most one nonzero entry, and every branch
value is positive; `bott`, `bott_vector` and `restricted_bott` compute
that entry alone.  Binomials are extended by C(x, k) = 0 whenever k < 0
or x < k, which makes every branch total.

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
from collections.abc import Iterator
from itertools import accumulate
from operator import add

from ._value import Counts, value_class

# Largest arguments of the rho and Bott queries, like the parser budgets:
# at its bounds each command answers in about 1.4 s on 2 vCPUs (Python
# 3.11, interpreter start included), and past them it raises before any
# work.  Every bound refuses through _at_most, with the one message
# "<label> = <value> exceeds <NAME> = <bound>".
#
# rho_structure_sheaf: n < d <= MAX_RHO_DEGREE.  It takes at most about
# d/2 steps, on integers of up to d * log2(3) bits; n near d/2 is its
# widest case, about 0.9 s through the command, where n = d - 1 took
# 1.7 s when every cell ran its n + 1 head steps.
MAX_RHO_DEGREE = 64_000
# rho_line_bundle: n <= MAX_LINE_BUNDLE_N, and d and |j|, which set the
# twists r + j and r + j - d, at most MAX_LINE_BUNDLE_TWIST.  Its n + 1
# restricted Bott vectors take binomials C(x, k) with k <= n and
# x <= n + d + |j|; at n = 2,000 the corners take up to 3.4 s.
MAX_LINE_BUNDLE_N = 1_500
MAX_LINE_BUNDLE_TWIST = 10_000
# rho_sweep_rows: d_max <= MAX_SWEEP_DEGREE, about d_max^2 / 2 cells of up
# to d_max * log2(3) bits each, one running sum per row; a larger n_max
# adds no row.  At the bound the sweep command
# prints 159 MB of CSV in 1.1-1.4 s on 2 vCPUs (Python 3.11), at 16 MB
# peak RSS: it holds two rows of ints and one block of text at a time.
MAX_SWEEP_DEGREE = 1_000
# bott, bott_vector and restricted_bott: n <= MAX_BOTT_N, and each twist l
# of an Omega^p(l) they evaluate (l itself, or r + t and r + t - d) at most
# MAX_BOTT_TWIST in absolute value; rho_line_bundle stays within both.  An
# entry is a product of two binomials C(x, k) with k <= n and
# x <= n + |l|; the widest, C(l+n, n), takes about 0.5 s at the bounds, and
# restricted_bott can take two, 1.2-1.5 s through the command.
MAX_BOTT_N = 80_000
MAX_BOTT_TWIST = 200_000
# rho_point's 2^n and orlov.check_rho's bound 2^(e+1): n, and e + 1, at
# most MAX_POWER_BITS, so the power takes at most 8 MiB.  That is above
# what the command line prints (2^k has more than cli.MAX_DIGITS digits
# from k = 996,579 on), so the bound only keeps out the powers that would
# not fit in memory, or whose shift count overflows, before they are built.
MAX_POWER_BITS = 2**26


def binom(x: int, k: int) -> int:
    """Binomial coefficient with C(x, k) = 0 for k < 0 or x < k."""
    if k < 0 or x < k:
        return 0
    return math.comb(x, k)


@value_class
class CohomologyVector(Counts):
    """Counts q -> h^q for q in [0, n], stored sparsely."""

    n: int
    entries: tuple[tuple[int, int], ...]
    term_format = "h^{0}={1}"
    empty_text = "0"

    def __post_init__(self):
        for q, _ in self.entries:
            if not 0 <= q <= self.n:
                raise ValueError(f"cohomological degree {q} outside [0, {self.n}]")
        # Called by name, not through super(): the value-class tests run
        # this method on dataclass twins, which do not derive from Counts.
        Counts.__post_init__(self)

    def euler(self) -> int:
        return sum(v if q % 2 == 0 else -v for q, v in self.entries)

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.entries)


def _at_most(name: str, bound: int, *values: tuple[str, int]) -> None:
    for label, value in values:
        if value > bound:
            raise ValueError(f"{label} = {value} exceeds {name} = {bound}")


def _bounded(n: int, *twists: tuple[str, int]) -> None:
    _at_most("MAX_BOTT_N", MAX_BOTT_N, ("n", n))
    _at_most("MAX_BOTT_TWIST", MAX_BOTT_TWIST, *((f"|{name}|", abs(l)) for name, l in twists))


def _require_positive(n: int, d: int = 1) -> None:
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    if d < 1:
        raise ValueError("hypersurface degree d must be >= 1")


def _bott_entry(n: int, p: int, l: int) -> tuple[int, int]:
    # (q, h^q) at the one q where h^q(P^n, Omega^p(l)) can be nonzero, or (0, 0).
    if n < 0 or not 0 <= p <= n:
        return 0, 0
    if l > p:
        return 0, binom(l + n - p, l) * binom(l - 1, p)
    if l == 0:
        return p, 1
    if l < p - n:
        return n, binom(p - l, -l) * binom(-l - 1, n - p)
    return 0, 0


def bott(n: int, p: int, q: int, l: int) -> int:
    """h^q(P^n, Omega^p(l)); 0 outside 0 <= p, q <= n."""
    _bounded(n, ("l", l))
    degree, value = _bott_entry(n, p, l)
    return value if degree == q else 0


def bott_vector(n: int, p: int, l: int) -> CohomologyVector:
    """The full vector q -> h^q(P^n, Omega^p(l)); at most one entry."""
    _bounded(n, ("l", l))
    return CohomologyVector.from_pairs([_bott_entry(n, p, l)], n)


def restricted_bott(n: int, d: int, r: int, t: int) -> CohomologyVector:
    """q -> h^q(P^n, O_X ⊗ Omega^r(r+t)) for the degree-d hypersurface X,
    resolved from the long exact sequence of the restriction."""
    _require_positive(n, d)
    if not 0 <= r <= n:
        raise ValueError(f"r = {r} outside [0, {n}]")
    _bounded(n, ("r+t", r + t), ("r+t-d", r + t - d))
    sub_q, alpha = _bott_entry(n, r, r + t - d)  # Omega^r(r+t-d), the subsheaf
    q, beta = _bott_entry(n, r, r + t)           # Omega^r(r+t), the ambient middle term
    if alpha and beta and sub_q == q:
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
    # No collision: every connecting segment splits; the subsheaf's H^q lands in q - 1.
    assert not (alpha and sub_q == 0), "H^0 of the subsheaf must inject into the ambient H^0"
    return CohomologyVector.from_pairs([(q, beta), (sub_q - 1, alpha)], n)


def rho_structure_sheaf(n: int, d: int) -> int:
    """rho(O_X), valid when a = n+1-d <= 0; equals the total of the
    restricted Bott vectors and 1 + sum_r C(d, d-r) * C(d-r-1, n-r).

    The generating function (1+2x)^d / (1+x) gives the alternating form
    S = rho - 1 = sum_{k=0..n} (-1)^(n-k) * 2^k * C(d, k).  The full sum
    over k <= d is (-1)^n * (1-2)^d = (-1)^(n+d), so S is also
    (-1)^(n+d) minus the tail over n < k <= d.  Either side is evaluated
    through T(k) = 2^k * C(d, k) - T(k-1): the head of n + 1 terms
    upwards from k = 0, or the tail of d - n terms downwards from k = d,
    with C(d, k-1) = C(d, k) * k / (d-k+1).  The head runs while
    2n < d + d/32 and the tail otherwise: the shorter side, moved past
    the middle because the tail's steps carry the wider powers of two;
    near the switch the two sides take about equal time for d from 200
    to 64,000.  A d above MAX_RHO_DEGREE raises ValueError."""
    _require_positive(n)
    if n + 1 - d > 0:
        raise ValueError(
            f"rho(O_X) closed form requires a = n+1-d <= 0, got a = {n + 1 - d}"
        )
    _at_most("MAX_RHO_DEGREE", MAX_RHO_DEGREE, ("d", d))
    s, c = 0, 1  # c = C(d, k)
    if 2 * n < d + d // 32:
        for k in range(n + 1):
            s = (c << k) - s
            c = c * (d - k) // (k + 1)
        return s + 1
    for k in range(d, n, -1):
        s = (c << k) - s
        c = c * k // (d - k + 1)
    return s + 1 + (-1) ** (n + d)


def rho_sweep_rows(n_max: int, d_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, rhos) for 1 <= n <= n_max, where rhos lists rho(O_X) for
    n < d <= d_max, d ascending.  A d_max above MAX_SWEEP_DEGREE raises
    at the call, not at the first row.

    With S(n, d) = rho - 1, the coefficient of x^n in (1+2x)^d / (1+x),
    each row follows from the previous one: S(0, d) = 1,
    S(n, n+1) = 2^(n+1) - 1 and S(n, d+1) = S(n, d) + 2 * S(n-1, d).
    The step is the product with 1+2x.  The seed holds because the
    alternating sum of 2^k * C(n+1, k) over 0 <= k <= n+1 is
    (2-1)^(n+1) = 1, and its k = n+1 term is 2^(n+1).  A row is thus one
    running sum, over 2 * S(n-1, d) from the seed, and runs in C as one
    itertools.accumulate."""
    _at_most("MAX_SWEEP_DEGREE", MAX_SWEEP_DEGREE, ("d_max", d_max))
    return _rho_rows(n_max, d_max)


def _rho_rows(n_max: int, d_max: int) -> Iterator[tuple[int, list[int]]]:
    s = [1] * d_max  # S(n-1, d) for n <= d <= d_max
    for n in range(1, min(n_max, d_max - 1) + 1):
        twice = s[1:-1]  # S(n-1, d) for n < d < d_max, each added twice
        s = list(accumulate(map(add, twice, twice), initial=(2 << n) - 1))
        yield n, list(map((1).__add__, s))


def rho_point(n: int) -> int:
    """rho of a point sheaf: the sum over r of the ranks C(n, r) of
    Omega^r, which is 2^n.  An n above MAX_POWER_BITS raises ValueError."""
    _require_positive(n)
    _at_most("MAX_POWER_BITS", MAX_POWER_BITS, ("n", n))
    return 1 << n


def rho_line_bundle(n: int, d: int, j: int) -> int:
    """rho(O_X(j)): total of the restricted Bott vectors at twist j.
    No Fano exclusion here; this is how the a > 0 counterexamples are
    computed.  An n above MAX_LINE_BUNDLE_N, or a d or |j| above
    MAX_LINE_BUNDLE_TWIST, raises ValueError."""
    _require_positive(n, d)
    _at_most("MAX_LINE_BUNDLE_N", MAX_LINE_BUNDLE_N, ("n", n))
    _at_most("MAX_LINE_BUNDLE_TWIST", MAX_LINE_BUNDLE_TWIST, ("d", d), ("|j|", abs(j)))
    return sum(restricted_bott(n, d, r, j).total() for r in range(n + 1))
