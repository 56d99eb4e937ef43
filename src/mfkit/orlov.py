"""Numerical translation between Betti tables of graded matrix
factorizations and Beilinson-type cohomology tables on projective space.

For a smooth degree-d hypersurface X in P^n with a = n+1-d <= 0, the
graded singularity category of S/(f) embeds into D^b(X), and the degree-j
generator counts b^i_j of a reduced factorization translate into ambient
cohomology: writing a - j = q*d - r with 0 <= r < d,

    b^i_j = h^(r+a-2q-i+1)( P^n, i_*(C) ⊗ Omega^(r+a)(r+a) ).

The index map (i, j) -> (p, h) = (r+a, r+a-2q-i+1) is a bijection; its
inverse recovers i from the parity of p+1-h, then q and j.  The total of
the table is the rho invariant (the total rank of the Beilinson E_1
page), which equals rank(F^0) + rank(F^1).

Also here: the residue-field image descriptor (an exterior power of the
tangent bundle, twisted and shifted), the degree data of the Shamash
resolution of the residue field, the duality involution of tables, and
instance checkers for the two rank lower bounds (2^e for ranks, 2^(e+1)
for rho).  Checkers only decide instance inequalities; they never claim
the general statements, and they carry the hypotheses left unchecked
(irreducibility of f, smoothness of X).
"""

from __future__ import annotations

from ._value import Counts, value_class
from .bott import MAX_POWER_BITS, binom

# The functions that use mf and graded import them, so that the scalar
# commands load neither.  Type checkers take this name for typing's.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .graded import DegreeMultiset
    from .mf import BettiTable, MatrixFactorization

# Largest rank of a Shamash term: shamash_degrees() lists one degree per
# generator, and answers at this rank in about 1 s.
MAX_SHAMASH_RANK = 2**22

UNCHECKED_HYPOTHESES = (
    "f is assumed irreducible (not verified)",
    "X = V(f) is assumed smooth (not verified)",
)


@value_class
class HypersurfaceContext:
    """Ambient dimension n and hypersurface degree d; a and e derived."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def a(self) -> int:
        return self.n + 1 - self.d

    @property
    def e(self) -> int:
        return self.n // 2

    def __str__(self) -> str:
        return f"n={self.n} d={self.d} a={self.a} e={self.e}"


@value_class
class CohomologyTable(Counts):
    """Finitely supported counts (p, h) -> h^h(P^n, i_*(C) ⊗ Omega^p(p)).

    Entries outside the sheaf support (p outside [0, n] or h outside
    [0, n-1]) are retained rather than dropped; they are reported by
    :meth:`out_of_support`.
    """

    n: int
    entries: tuple[tuple[tuple[int, int], int], ...]
    term_format = "T[{0[0]}][{0[1]}]={1}"
    empty_text = "(empty)"

    def out_of_support(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (p, h)
            for (p, h), _ in self.entries
            if not (0 <= p <= self.n and 0 <= h <= self.n - 1)
        )


@value_class
class Phi0Descriptor:
    """Shape of the image of a twisted residue field in D^b(X): the
    pullback of the exterior_power-th wedge of the tangent bundle,
    twisted by ``twist`` and shifted by ``shift``."""

    exterior_power: int
    twist: int
    shift: int

    def __str__(self) -> str:
        return f"i^*(wedge^{self.exterior_power} T)({self.twist})[{self.shift}]"


@value_class
class Verdict:
    """Outcome of one instance-level bound check."""

    check: str
    n: int
    d: int
    a: int
    e: int
    value: int
    bound: int
    passed: bool
    applicable: bool = True
    trivial: bool = False
    notes: tuple[str, ...] = UNCHECKED_HYPOTHESES


# ---------------------------------------------------------------------------
# Index arithmetic


def euclid_split(ctx: HypersurfaceContext, j: int) -> tuple[int, int]:
    """The unique (q, r) with a - j = q*d - r and 0 <= r < d."""
    x = ctx.a - j
    q = -((-x) // ctx.d)
    r = q * ctx.d - x
    return q, r


def _require_non_fano(ctx: HypersurfaceContext) -> None:
    if ctx.a > 0:
        raise ValueError(
            f"requires a = n+1-d <= 0 (got a = {ctx.a}); the translation "
            "does not apply to Fano hypersurfaces"
        )


def _require_table_of(ctx: HypersurfaceContext, table: CohomologyTable) -> None:
    # A table's support and indices are read in its own n.
    if table.n != ctx.n:
        raise ValueError(f"table has n = {table.n}, but the context has n = {ctx.n}")


def betti_to_table(ctx: HypersurfaceContext, table: BettiTable) -> CohomologyTable:
    """Translate generator counts b^i_j into the cohomology table.

    Entries landing outside the sheaf support are kept and flagged by
    the table, not dropped; the total always equals the Betti total.
    """
    _require_non_fano(ctx)
    pairs = []
    for (i, j), value in table.entries:
        q, r = euclid_split(ctx, j)
        pairs.append(((r + ctx.a, r + ctx.a - 2 * q - i + 1), value))
    return CohomologyTable.from_pairs(pairs, ctx.n)


def table_to_betti(ctx: HypersurfaceContext, table: CohomologyTable) -> BettiTable:
    """Exact inverse of :func:`betti_to_table`.

    Given (p, h): r = p - a, i is the parity of p + 1 - h, then
    q = (p + 1 - h - i)/2 and j = a - q*d + r.  Entries need p in
    [a, n] so that r lies in [0, d), and the table the context's n.
    """
    from .mf import BettiTable
    _require_non_fano(ctx)
    _require_table_of(ctx, table)
    pairs = []
    for (p, h), value in table.entries:
        r = p - ctx.a
        if not 0 <= r < ctx.d:
            raise ValueError(
                f"table entry p={p} lies outside [a, n] = [{ctx.a}, {ctx.n}] "
                "and corresponds to no generator degree"
            )
        i = (p + 1 - h) % 2
        q = (p + 1 - h - i) // 2
        pairs.append(((i, ctx.a - q * ctx.d + r), value))
    return BettiTable.from_pairs(pairs)


# ---------------------------------------------------------------------------
# The rho invariant


def rho_of_table(table: CohomologyTable) -> int:
    """Total of the table: the rho invariant / total Beilinson E_1 rank."""
    return table.total()


def rho_of_mf(F: MatrixFactorization) -> int:
    """rho of the sheaf-theoretic image of F: rank(F0) + rank(F1),
    requiring F valid and reduced."""
    from . import mf
    problems = mf.validate(F)
    if problems:
        raise ValueError("invalid matrix factorization: " + problems[0])
    if not mf.is_reduced(F):
        raise ValueError("rho requires a reduced factorization; call reduce() first")
    return F.rank0 + F.rank1


def dual_table(ctx: HypersurfaceContext, table: CohomologyTable) -> CohomologyTable:
    """The duality involution (p, h) -> (n-p, n-1-h); totals (hence rho)
    are preserved.  A table of another n than the context's, and
    out-of-support entries, are rejected."""
    _require_non_fano(ctx)
    _require_table_of(ctx, table)
    flagged = table.out_of_support()
    if flagged:
        raise ValueError(f"dual_table rejects out-of-support entries: {list(flagged)}")
    pairs = (((ctx.n - p, ctx.n - 1 - h), v) for (p, h), v in table.entries)
    return CohomologyTable.from_pairs(pairs, ctx.n)


# ---------------------------------------------------------------------------
# Residue-field descriptors and Shamash degrees


def phi0_residue(ctx: HypersurfaceContext, l: int) -> Phi0Descriptor | None:
    """Descriptor of the image of the residue field twisted by l, or None
    when that image vanishes.

    Write l = q*d - r with 0 <= r < d; the normalized twist l0 = -r lies
    in (-d, 0] and the excess q shifts the cohomological degree by 2q.
    The image vanishes exactly when l0 > a; otherwise it is the pullback
    of wedge^(r+a) T, twisted by -(r+a) and shifted by 2q + n - r - a - 1.
    """
    _require_non_fano(ctx)
    q, r = euclid_split(ctx, ctx.a - l)
    l0 = -r
    if l0 > ctx.a:
        return None
    p = r + ctx.a
    return Phi0Descriptor(exterior_power=p, twist=-p, shift=2 * q + ctx.n - p - 1)


def shamash_counts(n: int, d: int, m: int) -> list[tuple[int, int]]:
    """The (degree, multiplicity) pairs of cohomological piece m of the
    Shamash resolution of the residue field over S/(f), degrees ascending:

        term m = ⊕_{s+2j = -m, j >= 0, 0 <= s <= n+1} R(-s-jd)^C(n+1, s)

    Its rank, the sum of the multiplicities, must not exceed
    MAX_SHAMASH_RANK.  For -m >= 2 and n >= 4 the term holds C(n+1, 2)
    generators (s = 2) or C(n+1, 3) >= C(n+1, 2) of them (s = 3), so once
    C(n+1, 2) passes the bound (n >= 2,896) the term is refused without
    summing the up to n + 2 binomials.
    """
    HypersurfaceContext(n, d)  # raises unless n, d >= 1
    if m > 0:
        raise ValueError("the resolution lives in cohomological degrees <= 0")
    if m <= -2 and (least := binom(n + 1, 2)) > MAX_SHAMASH_RANK:
        raise ValueError(f"Shamash term {m} has rank at least {least}, "
                         f"above MAX_SHAMASH_RANK = {MAX_SHAMASH_RANK}")
    # Terms with s = -m - 2j > n + 1 are empty: j runs from the first with
    # s <= n + 1 to the last with s >= 0, at most n + 2 values whatever m is.
    counts: dict[int, int] = {}
    for j in range(max(0, (-m - n) // 2), -m // 2 + 1):
        degree = -m - 2 * j + j * d
        counts[degree] = counts.get(degree, 0) + binom(n + 1, -m - 2 * j)
    if (rank := sum(counts.values())) > MAX_SHAMASH_RANK:
        raise ValueError(f"Shamash term {m} has rank {rank}, "
                         f"above MAX_SHAMASH_RANK = {MAX_SHAMASH_RANK}")
    return sorted(counts.items())


def shamash_degrees(n: int, d: int, m: int) -> DegreeMultiset:
    """Generator degrees (with multiplicity) of cohomological piece m of
    the Shamash resolution of the residue field over S/(f); see
    :func:`shamash_counts`."""
    pairs = shamash_counts(n, d, m)
    from .graded import DegreeMultiset
    degrees: list[int] = []
    for degree, count in pairs:
        degrees.extend([degree] * count)
    return DegreeMultiset.from_iterable(degrees)


# ---------------------------------------------------------------------------
# Bound checkers


def check_bgs(ctx: HypersurfaceContext, F: MatrixFactorization) -> Verdict:
    """Instance check of the rank lower bound rank(F0) >= 2^e for
    nontrivial factorizations.  Trivial inputs (those reducing to rank 0)
    are marked not applicable; F is reduced only where
    :func:`mf.may_reduce_to_zero` allows rank 0."""
    from . import mf
    problems = mf.validate(F)
    if problems:
        raise ValueError("invalid matrix factorization: " + problems[0])
    trivial = mf.may_reduce_to_zero(F) and mf.reduce(F).rank0 == 0
    bound = 2 ** ctx.e
    return _verdict(ctx, "rank >= 2^e", F.rank0, bound, passed=True if trivial else F.rank0 >= bound,
                    applicable=not trivial, trivial=trivial)


def check_rho(ctx: HypersurfaceContext, value: int) -> Verdict:
    """Instance check of the cohomology lower bound rho >= 2^(e+1); only
    meaningful for a <= 0 (Fano hypersurfaces carry line bundles with rho
    as small as 2, so a > 0 contexts are rejected).  The bound is built
    as a shift, and an e + 1 above bott.MAX_POWER_BITS raises ValueError."""
    if ctx.a > 0:
        raise ValueError(
            f"rho bound requires a = n+1-d <= 0 (got a = {ctx.a}): on Fano "
            "hypersurfaces the bound fails, e.g. rho(O_X(-1)) = 2 on a plane "
            "line and rho(O_X) = 2 on a plane conic"
        )
    if ctx.e + 1 > MAX_POWER_BITS:
        raise ValueError(f"e + 1 = {ctx.e + 1} exceeds MAX_POWER_BITS = {MAX_POWER_BITS}")
    bound = 1 << (ctx.e + 1)
    return _verdict(ctx, "rho >= 2^(e+1)", value, bound, passed=value >= bound)


def _verdict(ctx: HypersurfaceContext, check: str, value: int, bound: int, **outcome) -> Verdict:
    return Verdict(check=check, n=ctx.n, d=ctx.d, a=ctx.a, e=ctx.e, value=value, bound=bound,
                   **outcome)
