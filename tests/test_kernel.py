"""Differential tests of the polynomial kernel.

Arithmetic results skip validation and go through the trusted
``Polynomial._canonical``; products run on raw scalar components (GF(p)
residues summed unreduced, integral rationals as ints) and wrap each
output term once; ``compose`` multiplies only nonzero entries into one
accumulator per output entry; ``mf.reduce`` updates only the Schur
complement of each pivot and scans each matrix once; ``document_to_mf``
parses each distinct entry string once; and ``mf`` assembles
factorizations from their nonzero entries.  Each fast path is compared
here with a plain reference: polynomials as dicts of monomials with the
public scalar operators, a triple-loop matrix product built with
``from_pairs``, a linear scan for the constant term, the original sort
key, the original row and column elimination, a rescan from (0, 0) after
every split, one parse per entry, and dense Kronecker and block grids.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import mf
from mfkit.algebra import GF, QI, QQ, FpElement, GaussianRational, Polynomial, parse_poly
from mfkit.cli import MF_SCHEMA, SchemaError, document_to_mf, field_to_json
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

from _factories import random_elementary, random_homogeneous, random_reduced_mf

# GF(2^31 - 1): products of two residues come near 2^62, and the kernel
# sums them unreduced.
FIELDS = [QQ, QI, GF(13), GF(2**31 - 1)]
FIELD_IDS = [str(field) for field in FIELDS]


def scalars(field):
    # Small values so that sums cancel often.
    small = st.integers(-2, 2)
    if field.kind == "Q":
        return st.builds(Fraction, small, st.integers(1, 2))
    if field.kind == "Qi":
        part = st.builds(Fraction, small, st.integers(1, 2))
        return st.builds(GaussianRational, part, part)
    return st.integers(0, field.p - 1).map(field.coerce)


def assert_public_scalars(poly):
    # Raw kernel values never leak: an int equals and hashes like the
    # Fraction it stands for, so equality alone would not notice.
    field = poly.field
    for _, c in poly.terms:
        if field.kind == "Fp":
            assert type(c) is FpElement and c.p == field.p and 0 <= c.value < field.p
        elif field.kind == "Qi":
            assert type(c) is GaussianRational
            assert type(c.re) is Fraction and type(c.im) is Fraction
        else:
            assert type(c) is Fraction


def term_lists(field, nvars, max_size=5):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.lists(st.tuples(exps, scalars(field)), max_size=max_size)


# -- dict-of-monomials reference ------------------------------------------


def ref_from(pairs):
    acc = {}
    for exps, coeff in pairs:
        acc[exps] = acc[exps] + coeff if exps in acc else coeff
    return {e: c for e, c in acc.items() if c}


def ref_add(p, q):
    return ref_from(list(p.items()) + list(q.items()))


def ref_neg(p):
    return {e: -c for e, c in p.items()}


def ref_mul(p, q):
    return ref_from(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in p.items()
        for e2, c2 in q.items()
    )


def old_order_key(exponents):
    # The sort key canonical form used before the trusted constructor.
    return (-sum(exponents), tuple(-e for e in exponents))


def assert_canonical(poly, ref):
    exps = [e for e, _ in poly.terms]
    assert dict(poly.terms) == ref
    assert_public_scalars(poly)
    assert exps == sorted(ref, key=old_order_key)
    assert all(c for _, c in poly.terms)
    assert Polynomial.from_pairs(poly.field, poly.nvars, poly.terms) == poly


# -- arithmetic -----------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_arithmetic_matches_reference(field, data):
    nvars = data.draw(st.integers(1, 3))
    p_pairs = data.draw(term_lists(field, nvars))
    q_pairs = data.draw(term_lists(field, nvars))
    p = Polynomial.from_pairs(field, nvars, p_pairs)
    q = Polynomial.from_pairs(field, nvars, q_pairs)
    rp, rq = ref_from(p_pairs), ref_from(q_pairs)
    assert_canonical(p, rp)
    assert_canonical(p + q, ref_add(rp, rq))
    assert_canonical(p - q, ref_add(rp, ref_neg(rq)))
    assert_canonical(p * q, ref_mul(rp, rq))
    assert_canonical(p * q + p, ref_add(ref_mul(rp, rq), rp))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_constant_term_matches_linear_scan(field, data):
    nvars = data.draw(st.integers(1, 3))
    p = Polynomial.from_pairs(field, nvars, data.draw(term_lists(field, nvars)))
    q = Polynomial.from_pairs(field, nvars, data.draw(term_lists(field, nvars)))
    for poly in (p, q, p * q, p + q):
        scan = next((c for e, c in poly.terms if not any(e)), field.zero)
        assert poly.constant_term == scan


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_canonical_sort_matches_old_key(field, data):
    nvars = data.draw(st.integers(1, 4))
    acc = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), scalars(field)))
    poly = Polynomial._canonical(field, nvars, acc)
    assert [e for e, _ in poly.terms] == sorted((e for e, c in acc.items() if c), key=old_order_key)


# -- compose --------------------------------------------------------------


def naive_compose(a, b):
    rows = []
    for r in range(a.nrows):
        row = []
        for c in range(b.ncols):
            pairs = [
                (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                for m in range(a.ncols)
                for e1, c1 in a.entries[r][m].terms
                for e2, c2 in b.entries[m][c].terms
            ]
            row.append(Polynomial.from_pairs(a.field, a.nvars, pairs))
        rows.append(tuple(row))
    return tuple(rows)


def sparse_matrices(field, nvars, nrows, ncols):
    # An empty term list gives a zero entry.
    entry = term_lists(field, nvars, max_size=3).map(
        lambda pairs: Polynomial.from_pairs(field, nvars, pairs))
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_compose_matches_triple_loop(field, data):
    # compose checks shapes, not degrees, so any entries will do.
    nvars = data.draw(st.integers(1, 3))
    k, m, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    left = data.draw(sparse_matrices(field, nvars, k, m))
    right = data.draw(sparse_matrices(field, nvars, m, n))
    rows_k, inner, cols_n = (DegreeMultiset((0,) * size) for size in (k, m, n))
    a = HomogeneousMatrix(field, nvars, inner, rows_k, left)
    b = HomogeneousMatrix(field, nvars, cols_n, inner, right)
    product = compose(a, b)
    assert product.entries == naive_compose(a, b)
    assert (product.source, product.target) == (cols_n, rows_k)
    for row in product.entries:
        for entry in row:
            assert_public_scalars(entry)


@given(data=st.data())
def test_long_unreduced_sums_match_reference(data):
    # A 1 x m by m x 1 product of entries whose residues lie just below p,
    # in two variables of degree <= 1: each output term sums up to 16*m
    # products near 2^62 before its one reduction.
    field = GF(2**31 - 1)
    near_p = st.integers(field.p - 4, field.p - 1).map(field.coerce)
    entry = st.lists(st.tuples(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]), near_p),
                     max_size=4).map(lambda pairs: Polynomial.from_pairs(field, 2, pairs))
    m = data.draw(st.integers(1, 24))
    left = [data.draw(st.lists(entry, min_size=m, max_size=m))]
    right = [[data.draw(entry)] for _ in range(m)]
    one, inner = DegreeMultiset((0,)), DegreeMultiset((0,) * m)
    a = HomogeneousMatrix(field, 2, inner, one, left)
    b = HomogeneousMatrix(field, 2, one, inner, right)
    product = compose(a, b)
    assert product.entries == naive_compose(a, b)
    assert_public_scalars(product.entries[0][0])


# -- per-document parse memo -----------------------------------------------


POOL = ["0", "x0", "x0 + x1", "2*x1", "x1 + x0", "1/2*x0 - x1", "0*x0", "x1"]


def repeated_entry_document(field, cells):
    entries = iter(cells)
    s0 = [[next(entries) for _ in range(3)] for _ in range(3)]
    s1 = [[next(entries) for _ in range(3)] for _ in range(3)]
    return {
        "schema": MF_SCHEMA, "field": field_to_json(field), "nvars": 2,
        "f": "x0^2 + x1^2", "d": 2,
        "F0_degrees": [1, 1, 1], "F1_degrees": [0, 0, 0],
        "s0": s0, "s1": s1,
    }


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(cells=st.lists(st.sampled_from(POOL), min_size=18, max_size=18))
def test_document_parse_memo_matches_entrywise_parse(field, cells):
    doc = repeated_entry_document(field, cells)
    F = document_to_mf(doc)
    for key, matrix in (("s0", F.s0), ("s1", F.s1)):
        for r, c in itertools.product(range(3), range(3)):
            assert matrix.entries[r][c] == parse_poly(doc[key][r][c], field, 2)


def test_unparsable_repeated_entry_reports_first_position():
    cells = ["x0"] * 18
    cells[4] = cells[7] = cells[12] = "x0 +"
    doc = repeated_entry_document(QQ, cells)
    with pytest.raises(SchemaError, match=r"^s0\[1\]\[1\]: "):
        document_to_mf(doc)
    doc["s0"][1][1] = doc["s0"][2][1] = "x0"
    with pytest.raises(SchemaError, match=r"^s1\[1\]\[0\]: "):
        document_to_mf(doc)


def test_memo_parses_again_under_a_smaller_bound():
    # Entry [r][c] of s0 has the bound F0[c] - F1[r]: 0 in column 0 and 2
    # in column 1.  "x0*x1" first parses under 2; at s0[1][0] it must be
    # parsed again under 0, and fail there.
    doc = {
        "schema": MF_SCHEMA, "field": field_to_json(QQ), "nvars": 2,
        "f": "x0^2 + x1^2", "d": 2,
        "F0_degrees": [0, 2], "F1_degrees": [0, 0],
        "s0": [["1", "x0*x1"], ["x0*x1", "x0*x1"]],
        "s1": [["x0*x1", "x0*x1"], ["1", "1"]],
    }
    with pytest.raises(SchemaError, match=r"^s0\[1\]\[0\]: degree 2 exceeds the bound 0"):
        document_to_mf(doc)
    doc["s0"][1][0] = "x0 + 1"  # a sum is not bounded, only products
    F = document_to_mf(doc)
    assert F.s0.entries[0][1] is F.s0.entries[1][1] is F.s1.entries[0][0]
    assert F.s0.entries[1][0] == parse_poly("x0 + 1", QQ, 2)
    # A text without '*' or '^' parses under every bound: once per document.
    doc["s0"] = [["1", "x0 + x1"], ["x0 + x1", "0"]]
    doc["s1"] = [["0", "x0*x1"], ["1", "0"]]
    with mock.patch("mfkit.cli.parse_poly", wraps=parse_poly) as parse:
        F = document_to_mf(doc)
    assert parse.call_count == 5  # f and four distinct entry texts
    assert F.s0.entries[1][0] is F.s0.entries[0][1]


# -- reduce -----------------------------------------------------------------


def reference_split_summand(field, a, b, r, c):
    """``mf._split_summand`` as it was before it skipped zero operands:
    every entry of the moved rows and columns is updated."""
    uinv = field.inv(a[r][c].constant_term)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    for r2 in range(nrows):
        if r2 == r or a[r2][c].is_zero:
            continue
        lam = a[r2][c].scalar_mul(uinv)
        a[r2] = [a[r2][k] - lam * a[r][k] for k in range(ncols)]
        for x in range(len(b)):
            b[x][r] = b[x][r] + lam * b[x][r2]
    for c2 in range(ncols):
        if c2 == c or a[r][c2].is_zero:
            continue
        mu = a[r][c2].scalar_mul(uinv)
        for r3 in range(nrows):
            a[r3][c2] = a[r3][c2] - mu * a[r3][c]
        b[c] = [b[c][k] + mu * b[c2][k] for k in range(len(b[c]))]
    del a[r]
    for row in a:
        del row[c]
    del b[c]
    for row in b:
        del row[r]


def rescan_reduce(F):
    """``mf.reduce`` as it was before it resumed at the last pivot row:
    after every split, rescan s0 and then s1 from entry (0, 0)."""

    def first_unit(grid):
        for r, row in enumerate(grid):
            for c, entry in enumerate(row):
                if entry.constant_term:
                    return r, c
        return None

    f0, f1 = list(F.f0_degrees), list(F.f1_degrees)
    s0 = [list(row) for row in F.s0.entries]
    s1 = [list(row) for row in F.s1.entries]
    while True:
        pos = first_unit(s0)
        if pos is not None:
            r, c = pos
            mf._split_summand(F.field, s0, s1, r, c)
            del f0[c]
            del f1[r]
            continue
        pos = first_unit(s1)
        if pos is not None:
            r, c = pos
            mf._split_summand(F.field, s1, s0, r, c)
            del f1[c]
            del f0[r]
            continue
        break
    return grid_mk(F.f, f0, f1, s0, s1)


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


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
@pytest.mark.parametrize("rank", [4, 8, 16])
@pytest.mark.parametrize("seed", range(3))
def test_reduce_matches_full_elimination(field, rank, seed):
    F = partly_reducible(field, rank, random.Random(f"{field}-{rank}-{seed}"))
    assert F.rank == rank and mf.validate(F) == [] and not mf.is_reduced(F)
    with mock.patch.object(mf, "_split_summand", reference_split_summand):
        expected = mf.reduce(F)
    got = mf.reduce(F)
    assert got == expected
    assert got == rescan_reduce(F)
    assert mf.is_reduced(got) and got.rank < rank
    for matrix in (got.s0, got.s1):
        for row in matrix.entries:
            for entry in row:
                assert_public_scalars(entry)


# -- assembly from nonzero entries ------------------------------------------
# Dense-grid assembly as it was before ``mf._mk`` took nonzero entries.


def grid_mk(f, f0_degrees, f1_degrees, s0_grid, s1_grid):
    p0 = sorted(range(len(f0_degrees)), key=lambda k: (f0_degrees[k], k))
    p1 = sorted(range(len(f1_degrees)), key=lambda k: (f1_degrees[k], k))
    F0 = DegreeMultiset(tuple(f0_degrees[k] for k in p0))
    F1 = DegreeMultiset(tuple(f1_degrees[k] for k in p1))
    s0 = HomogeneousMatrix(f.field, f.nvars, F0, F1,
                           tuple(tuple(s0_grid[r][c] for c in p0) for r in p1))
    s1 = HomogeneousMatrix(f.field, f.nvars, F1.twist(-f.total_degree), F0,
                           tuple(tuple(s1_grid[r][c] for c in p1) for r in p0))
    return mf.MatrixFactorization(f, s0, s1)


def grid_kron(a, b, field, nvars):
    arows, acols = len(a), len(a[0]) if a else 0
    brows, bcols = len(b), len(b[0]) if b else 0
    zero = Polynomial.zero(field, nvars)
    out = [[zero] * (acols * bcols) for _ in range(arows * brows)]
    for ia, ja, ib, jb in itertools.product(range(arows), range(acols), range(brows), range(bcols)):
        if not (a[ia][ja].is_zero or b[ib][jb].is_zero):
            out[ia * brows + ib][ja * bcols + jb] = a[ia][ja] * b[ib][jb]
    return out


def grid_block(blocks, row_sizes, col_sizes, field, nvars):
    zero = Polynomial.zero(field, nvars)
    out = [[zero] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for bi, bj in itertools.product(range(len(row_sizes)), range(len(col_sizes))):
        blk = blocks[bi][bj]
        if blk is None:
            continue
        r_off, c_off = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for r, c in itertools.product(range(row_sizes[bi]), range(col_sizes[bj])):
            out[r_off + r][c_off + c] = blk[r][c]
    return out


def grid_neg(grid):
    return [[-e for e in row] for row in grid]


def grid_transpose_reversed(grid, nrows, ncols):
    return [[grid[nrows - 1 - c][ncols - 1 - r] for c in range(nrows)] for r in range(ncols)]


def grid_direct_sum(F, G):
    field, nvars = F.field, F.nvars
    s0 = grid_block([[F.s0.entries, None], [None, G.s0.entries]],
                    [F.rank1, G.rank1], [F.rank0, G.rank0], field, nvars)
    s1 = grid_block([[F.s1.entries, None], [None, G.s1.entries]],
                    [F.rank0, G.rank0], [F.rank1, G.rank1], field, nvars)
    return grid_mk(F.f, list(F.f0_degrees) + list(G.f0_degrees),
                   list(F.f1_degrees) + list(G.f1_degrees), s0, s1)


def grid_tensor(F, G):
    field, nvars, d = F.field, F.nvars, F.d
    rF0, rF1, rG0, rG1 = F.rank0, F.rank1, G.rank0, G.rank1
    t0_degrees = ([a + b for a in F.f0_degrees for b in G.f0_degrees]
                  + [u + v + d for u in F.f1_degrees for v in G.f1_degrees])
    t1_degrees = ([u + b for u in F.f1_degrees for b in G.f0_degrees]
                  + [a + v for a in F.f0_degrees for v in G.f1_degrees])
    A0, A1, B0, B1 = F.s0.entries, F.s1.entries, G.s0.entries, G.s1.entries
    eye = {key: HomogeneousMatrix.identity(field, nvars, degrees).entries
           for key, degrees in (("F0", F.f0_degrees), ("F1", F.f1_degrees),
                                ("G0", G.f0_degrees), ("G1", G.f1_degrees))}

    def kron(a, b):
        return grid_kron(a, b, field, nvars)

    t0 = grid_block([[kron(A0, eye["G0"]), kron(eye["F1"], B1)],
                     [kron(eye["F0"], B0), grid_neg(kron(A1, eye["G1"]))]],
                    [rF1 * rG0, rF0 * rG1], [rF0 * rG0, rF1 * rG1], field, nvars)
    t1 = grid_block([[kron(A1, eye["G0"]), kron(eye["F0"], B1)],
                     [kron(eye["F1"], B0), grid_neg(kron(A0, eye["G1"]))]],
                    [rF0 * rG0, rF1 * rG1], [rF1 * rG0, rF0 * rG1], field, nvars)
    T = grid_mk(F.f + G.f, t0_degrees, t1_degrees, t0, t1)
    assert mf.validate(T) == []
    return T


def grid_dual(F):
    f0 = [-m for m in reversed(list(F.f0_degrees))]
    f1 = [-m - F.d for m in reversed(list(F.f1_degrees))]
    return grid_mk(F.f, f0, f1, grid_transpose_reversed(F.s1.entries, F.rank0, F.rank1),
                   grid_transpose_reversed(F.s0.entries, F.rank1, F.rank0))


def assorted_factor(field, d, rng):
    """A factorization of degree d in 4 variables: a reduced one, one with
    trivial summands, a trivial one, or the rank-0 one; twisted so that
    F0 and F1 differ, sometimes shifted."""
    kind = rng.randrange(4)
    if kind <= 1:
        F = random_reduced_mf(rng, field=field, d=d)
        if kind == 1:
            trivial = mf.trivial_one_f if rng.random() < 0.5 else mf.trivial_f_one
            F = mf.direct_sum(F, mf.twist(trivial(F.f), rng.randint(-2, 2)))
    else:
        f = random_homogeneous(field, 4, d, rng)
        F = mf.zero_mf(f) if kind == 3 else mf.trivial_f_one(f)
    F = mf.twist(F, rng.randint(-2, 2))
    return mf.shift(F) if rng.random() < 0.3 else F


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
@given(seed=st.integers(0, 2**32 - 1))
def test_assembly_matches_dense_grids(field, seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    F = assorted_factor(field, d, rng)
    G = assorted_factor(field, d, rng)
    if not (F.f + G.f).is_zero:
        assert mf.tensor(F, G) == grid_tensor(F, G)
    assert mf.dual(F) == grid_dual(F)
    for H in (F, mf.dual(F), mf.shift(F), mf.zero_mf(F.f), mf.twist(mf.trivial_one_f(F.f), 1)):
        assert mf.direct_sum(F, H) == grid_direct_sum(F, H)
        assert mf.direct_sum(H, F) == grid_direct_sum(H, F)
