"""Differential tests of the polynomial kernel.

Arithmetic results skip validation.  The operators run the view
operations of ``algebra`` and matrix products the kernel
``Polynomial._product_rows``.  Every polynomial holds its view:
monomials packed into one int each, with fields of 8 bits doubled until
its degree fits, and raw coefficients (GF(p) residues summed unreduced,
integral rationals as ints, QQ(i) coefficients split into real and
imaginary halves).  It builds its terms from the view on first read, and
``==``, ``hash``, ``str`` and the queries, which read the view, build
none.  A one-term
power scales its exponents; matrices store sparse rows and ``compose``
sums each row in one kernel call; ``mf.reduce`` updates only the Schur
complement of each pivot, each updated entry by one multiply-accumulate
call on raw views, and scans each matrix once; ``mf.validate`` forms
``s1*s0`` alone when it is ``f*id``; ``mf.tensor`` validates its
factors, not its product; ``document_to_mf`` parses each distinct entry
string once and skips ``"0"`` cells;
``mf_to_document`` prints each distinct entry object once; negation is
one shared object, negated on the view's raw values; and ``mf``
assembles factorizations from their nonzero entries.  Each fast path is compared
here with a plain reference: polynomials as dicts of monomials with the
public scalar operators, the tuple kernel that the packed one replaced
(exponent tuples added with ``map(add)``), repeated products, a
triple-loop matrix product built with ``from_pairs`` and the dense
per-column product, a linear scan for the constant term, the original
sort key, the original and the dense row and column elimination, the
split that made every updated row into polynomials, a rescan from (0, 0)
after every split, both composites on dense grids,
one parse per entry, one ``str()`` per cell, dense Kronecker and block
grids, polynomials built by ``from_pairs``, a packer written out
field by field, the printer that read ``terms``, the 1 x n by n x 1
kernel route of the operators, the ``struct`` codec, and the codec and
repack of one big-int shift per field that the byte codec replaced.
Degrees just below and above each field width, up to 2^127, and
``MAX_NVARS`` variables run through the same comparisons.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import add, attrgetter, mul
from struct import Struct
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import algebra, mf
from mfkit.algebra import (GF, MAX_EXPONENT, MAX_NVARS, QI, QQ, FpElement, GaussianRational,
                           Polynomial, parse_poly)
from mfkit.cli import MF_SCHEMA, SchemaError, document_to_mf, field_to_json, mf_to_document
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

from _factories import (base_changed, compose_validate, kernel_sum_of_products, mix_bases,
                        packed_view, partly_reducible, random_elementary, random_homogeneous,
                        random_reduced_mf, random_valid_mf, raw, reference_byte_codec, reference_codec,
                        reference_reduce, reference_repack, square_and_multiply)

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
def test_has_constant_term_matches_linear_scan(field, data):
    # The view-level test that mf.is_reduced and mf.reduce read.
    nvars = data.draw(st.integers(1, 3))
    p = Polynomial.from_pairs(field, nvars, data.draw(term_lists(field, nvars)))
    q = Polynomial.from_pairs(field, nvars, data.draw(term_lists(field, nvars)))
    for poly in (p, q, p * q, p + q, p - p + Polynomial.constant(field, nvars, 1)):
        assert poly._has_constant_term == any(not any(e) for e, _ in poly.terms)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_canonical_sort_matches_old_key(field, data):
    nvars = data.draw(st.integers(1, 4))
    acc = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), scalars(field)))
    poly = Polynomial.from_pairs(field, nvars, acc)
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


def dense_compose(a, b):
    """``compose`` as it was on dense grids, before sparse rows: the
    nonzeros of each row of a and each column of b, gathered per call."""
    zero = Polynomial.zero(a.field, a.nvars)
    a_rows = [[(m, e) for m, e in enumerate(row) if e.terms] for row in a.entries]
    b_cols = [{m: row[c] for m, row in enumerate(b.entries) if row[c].terms}
              for c in range(b.ncols)]
    return tuple(
        tuple(Polynomial._sum_of_products(a.field, a.nvars, pairs) if pairs else zero
              for pairs in ([(left, b_col[m]) for m, left in a_row if m in b_col]
                            for b_col in b_cols))
        for a_row in a_rows)


def assert_sparse_rows(matrix):
    # Stored rows hold the nonzeros of the dense view, columns ascending.
    assert len(matrix.rows) == matrix.nrows
    for row, dense in zip(matrix.rows, matrix.entries):
        assert [c for c, _ in row] == [c for c, e in enumerate(dense) if e.terms]
        assert all(dense[c] is e for c, e in row)


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
    assert product.entries == naive_compose(a, b) == dense_compose(a, b)
    assert (product.source, product.target) == (cols_n, rows_k)
    assert_sparse_rows(product)
    assert product == HomogeneousMatrix(field, nvars, cols_n, rows_k, product.entries)
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
    assert product.entries == naive_compose(a, b) == dense_compose(a, b)
    assert_public_scalars(product.entries[0][0])


# -- the packed kernel against the tuple kernel -----------------------------


def tuple_sum_of_products(field, nvars, pairs):
    """``Polynomial._sum_of_products`` as it was before packed monomials:
    exponent tuples added with ``map(add)``, raw scalar components (GF(p)
    residues summed unreduced, integral rationals as ints, both parts over
    QQ(i) by the Gaussian product formula) and one wrap per surviving
    term, then ``from_pairs``."""
    if field.kind == "Qi":
        acc_re, acc_im = {}, {}
        for left, right in pairs:
            rterms = [(e2, raw(c2.re), raw(c2.im)) for e2, c2 in right.terms]
            for e1, c1 in left.terms:
                a, b = raw(c1.re), raw(c1.im)
                for e2, c, d in rterms:
                    exps = tuple(map(add, e1, e2))
                    acc_re[exps] = acc_re.get(exps, 0) + (a * c - b * d)
                    acc_im[exps] = acc_im.get(exps, 0) + (a * d + b * c)
        acc = {exps: GaussianRational(Fraction(re), Fraction(acc_im[exps]))
               for exps, re in acc_re.items() if re or acc_im[exps]}
    else:
        raw_acc = {}
        to_raw = attrgetter("value") if field.kind == "Fp" else raw
        for left, right in pairs:
            rterms = [(e2, to_raw(c2)) for e2, c2 in right.terms]
            for e1, c1 in left.terms:
                a = to_raw(c1)
                for e2, c in rterms:
                    exps = tuple(map(add, e1, e2))
                    raw_acc[exps] = raw_acc.get(exps, 0) + a * c
        if field.kind == "Fp":
            acc = {exps: FpElement(residue, field.p)
                   for exps, value in raw_acc.items() if (residue := value % field.p)}
        else:
            acc = {exps: Fraction(value) for exps, value in raw_acc.items() if value}
    return Polynomial.from_pairs(field, nvars, acc)


def assert_view(poly):
    # Every polynomial holds the view built from its terms, at the width of
    # its total degree.
    assert poly._view == packed_view(poly)


# Exponents just below and above the degrees that each field width holds
# (a view of width w holds total degrees below 2^(w-1)), near MAX_EXPONENT,
# and at 2^40.
WIDE_EXPONENTS = [0, 1, 2, 63, 64, 127, 128, 32767, 32768, MAX_EXPONENT - 1, MAX_EXPONENT, 2**30,
                  2**31 - 2, 2**31 - 1, 2**31, 2**32, 2**40, 2**62, 2**63 - 1, 2**63, 2**126, 2**127]


def wide_term_lists(field, nvars, max_size=4, coeff=None):
    # Up to three nonzero exponents per term, so that MAX_NVARS stays cheap.
    position = st.integers(0, nvars - 1)
    exps = st.dictionaries(position, st.sampled_from(WIDE_EXPONENTS), max_size=3).map(
        lambda sparse: tuple(sparse.get(k, 0) for k in range(nvars)))
    if coeff is None:
        coeff = scalars(field)
        if field.kind == "Q":
            coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return st.lists(st.tuples(exps, coeff), max_size=max_size)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_packed_kernel_matches_tuple_kernel(field, data):
    nvars = data.draw(st.sampled_from([1, 2, 3, MAX_NVARS]))
    size = 4 if nvars < MAX_NVARS else 2
    polys = st.builds(lambda pairs: Polynomial.from_pairs(field, nvars, pairs),
                      wide_term_lists(field, nvars, max_size=size))
    pairs = data.draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=size))
    got = Polynomial._sum_of_products(field, nvars, pairs)
    assert got == tuple_sum_of_products(field, nvars, pairs)
    assert got == kernel_sum_of_products(field, nvars, pairs)
    assert_public_scalars(got)
    for poly in [got] + [p for pair in pairs for p in pair]:
        assert_view(poly)
    # Outputs carry their views into the next call.
    again = Polynomial._sum_of_products(field, nvars, [(got, got), (got, pairs[0][0])])
    assert again == tuple_sum_of_products(field, nvars, [(got, got), (got, pairs[0][0])])
    assert_view(again)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_operators_match_kernel_route(field, data):
    # The operators run the view operations at the widest operand's width;
    # the 1 x n by n x 1 kernel route gives the same polynomials.
    nvars = data.draw(st.integers(1, 3))
    polys = st.builds(lambda pairs: Polynomial.from_pairs(field, nvars, pairs),
                      wide_term_lists(field, nvars))
    p, q, scalar = data.draw(polys), data.draw(polys), data.draw(scalars(field))

    def const(value):
        return Polynomial.constant(field, nvars, value)

    def kernel(*pairs):
        return kernel_sum_of_products(field, nvars, pairs)

    cases = [(p + q, kernel((p, const(1)), (q, const(1)))),
             (p - q, kernel((p, const(1)), (q, const(-1)))),
             (p * q, kernel((p, q))),
             (p.scalar_mul(scalar), kernel((p, const(scalar)))),
             (-p, kernel((p, const(-1)))),
             (Polynomial._sum_of_products(field, nvars, [(p, q), (q, q)]), kernel((p, q), (q, q)))]
    for got, want in cases:
        assert got == want and str(got) == str(want)
        assert_view(got)


def struct_codec(nvars, width):
    """``algebra._codec`` as it was: ``struct`` for 32- and 64-bit fields
    and bytes for wider ones; ``struct`` also for 8- and 16-bit fields."""
    if width <= 64:
        code = {8: "B", 16: "H", 32: "I", 64: "Q"}[width]
        full, tail = Struct(f">{nvars + 1}{code}"), Struct(f">{nvars}{code}")
        size, skip = full.size, width // 8

        def pack(exponents):
            return int.from_bytes(full.pack(sum(exponents), *exponents), "big")

        def unpack(packed):
            return tail.unpack_from(packed.to_bytes(size, "big"), skip)
    else:
        size = width // 8
        offsets = range(size, size * (nvars + 1), size)

        def pack(exponents):
            return int.from_bytes(b"".join(e.to_bytes(size, "big") for e in (sum(exponents), *exponents)),
                                  "big")

        def unpack(packed):
            data = packed.to_bytes(size * (nvars + 1), "big")
            return tuple(int.from_bytes(data[k:k + size], "big") for k in offsets)
    return pack, unpack


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
@given(data=st.data())
def test_codec_matches_struct_codec(width, data):
    # Total degrees up to 2^(width - 1) - 1, the most a view of that width
    # holds, split among 0 to 30 variables; the edges drawn often.
    nvars = data.draw(st.integers(0, 30))
    top = 2 ** (width - 1) - 1
    total = 0
    if nvars:
        total = data.draw(st.sampled_from([0, 1, top - 1, top, 2 ** (width - 2)]) | st.integers(0, top))
    cut = st.sampled_from([0, total]) | st.integers(0, total)
    cuts = sorted(data.draw(st.lists(cut, min_size=max(nvars - 1, 0), max_size=max(nvars - 1, 0))))
    exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))[:nvars]
    pack, unpack = algebra._codec(nvars, width)
    ref_pack, ref_unpack = struct_codec(nvars, width)
    key = pack(exps)
    assert key == ref_pack(exps)
    assert unpack(key) == tuple(ref_unpack(key)) == exps


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
@given(data=st.data())
def test_struct_codec_matches_byte_codec(width, data):
    # Fields of 1, 2, 4 and 8 bytes through struct, 16 bytes through
    # to_bytes, against the one-bytes codec they replaced: a total degree
    # up to the full field, edges drawn often, split among at most four
    # of 1 to 1,024 variables.
    nvars = data.draw(st.sampled_from([1, 2, 12, 1024]) | st.integers(1, 1024))
    top = 2 ** width - 1
    total = data.draw(st.sampled_from([0, 1, 2 ** (width - 1) - 1, top]) | st.integers(0, top))
    places = data.draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=4, unique=True))
    cuts = sorted(data.draw(st.lists(st.sampled_from([0, total]) | st.integers(0, total),
                                     min_size=len(places) - 1, max_size=len(places) - 1)))
    parts = dict(zip(places, (b - a for a, b in zip([0] + cuts, cuts + [total]))))
    exps = tuple(parts.get(k, 0) for k in range(nvars))
    pack, unpack = algebra._codec(nvars, width)
    ref_pack, ref_unpack = reference_byte_codec(nvars, width)
    key = pack(exps)
    assert key == ref_pack(exps)
    assert unpack(key) == ref_unpack(key) == exps


WIDTHS = [8, 16, 32, 64, 128]


@pytest.mark.parametrize("width,new", list(itertools.product(WIDTHS, repeat=2)))
@given(data=st.data())
def test_byte_codec_and_repack_match_shift_codec(width, new, data):
    # Keys of both widths, widening and narrowing: a total degree up to
    # the narrower full field, edges drawn often (0, 2^(w-1) - 1 and
    # 2^w - 1 for the narrower w), split among at most three variables;
    # over QQ(i) each key carries some of the low bits 0-3 of i.
    nvars = data.draw(st.sampled_from([1, 2, 12, MAX_NVARS]))
    narrow = min(width, new)
    top = 2 ** narrow - 1
    total = data.draw(st.sampled_from([0, 1, 2 ** (narrow - 1) - 1, top]) | st.integers(0, top))
    places = data.draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3, unique=True))
    cuts = sorted(data.draw(st.lists(st.sampled_from([0, total]) | st.integers(0, total),
                                     min_size=len(places) - 1, max_size=len(places) - 1)))
    parts = dict(zip(places, (b - a for a, b in zip([0] + cuts, cuts + [total]))))
    exps = tuple(parts.get(k, 0) for k in range(nvars))
    for w in (width, new):
        pack, unpack = algebra._codec(nvars, w)
        ref_pack, ref_unpack = reference_codec(nvars, w)
        key = pack(exps)
        assert key == ref_pack(exps)
        assert unpack(key) == ref_unpack(key) == exps
    field = data.draw(st.sampled_from([QQ, QI]))
    key = algebra._codec(nvars, width)[0](exps)
    if field.kind == "Qi":
        lows = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        pairs = [(key << 2 | low, low - 2) for low in sorted(lows, reverse=True)]
    else:
        pairs = [(key, 1)]
    got = algebra._repack(field, nvars, pairs, width, new)
    assert got == reference_repack(field, nvars, pairs, width, new)
    assert algebra._repack(field, nvars, got, new, width) == pairs


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_compose_across_widths_matches_triple_loop(field, data):
    nvars = data.draw(st.sampled_from([1, 3, MAX_NVARS]))
    size = 3 if nvars < MAX_NVARS else 2
    entry = wide_term_lists(field, nvars, max_size=size).map(
        lambda pairs: Polynomial.from_pairs(field, nvars, pairs))
    k, m, n = (data.draw(st.integers(1, size)) for _ in range(3))
    grid = lambda rows, cols: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)
    rows_k, inner, cols_n = (DegreeMultiset((0,) * rank) for rank in (k, m, n))
    a = HomogeneousMatrix(field, nvars, inner, rows_k, data.draw(grid(k, m)))
    b = HomogeneousMatrix(field, nvars, cols_n, inner, data.draw(grid(m, n)))
    product = compose(a, b)
    assert product.entries == naive_compose(a, b)
    assert_sparse_rows(product)
    for row in product.rows:
        for _, entry in row:
            assert_public_scalars(entry)
            assert_view(entry)


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
    with mock.patch("mfkit.algebra.parse_poly", wraps=parse_poly) as parse:
        F = document_to_mf(doc)
    assert parse.call_count == 4  # f and three distinct entry texts; "0" is skipped
    assert F.s0.entries[1][0] is F.s0.entries[0][1]


# -- reduce -----------------------------------------------------------------


def dense_split_summand(field, a, b, r, c):
    """``mf._split_summand`` as it was on dense grids, before sparse rows:
    only the Schur complement of the pivot is updated."""
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


def first_unit(grid, start=0):
    for r in range(start, len(grid)):
        for c, entry in enumerate(grid[r]):
            if entry.constant_term:
                return r, c
    return None


def dense_reduce(F, split):
    """``mf.reduce`` as it was on dense grids: scan s0 and then s1 once,
    resuming at the last pivot row, and split with ``split``."""
    f0, f1 = list(F.f0_degrees), list(F.f1_degrees)
    s0 = [list(row) for row in F.s0.entries]
    s1 = [list(row) for row in F.s1.entries]
    for a, b, rows, cols in ((s0, s1, f1, f0), (s1, s0, f0, f1)):
        r = 0
        while (pos := first_unit(a, r)) is not None:
            r, c = pos
            split(F.field, a, b, r, c)
            del rows[r]
            del cols[c]
    return grid_mk(F.f, f0, f1, s0, s1)


def rescan_reduce(F):
    """``mf.reduce`` as it was before it resumed at the last pivot row:
    after every split, rescan s0 and then s1 from entry (0, 0)."""
    f0, f1 = list(F.f0_degrees), list(F.f1_degrees)
    s0 = [list(row) for row in F.s0.entries]
    s1 = [list(row) for row in F.s1.entries]
    while True:
        pos = first_unit(s0)
        if pos is not None:
            r, c = pos
            dense_split_summand(F.field, s0, s1, r, c)
            del f0[c]
            del f1[r]
            continue
        pos = first_unit(s1)
        if pos is not None:
            r, c = pos
            dense_split_summand(F.field, s1, s0, r, c)
            del f1[c]
            del f0[r]
            continue
        break
    return grid_mk(F.f, f0, f1, s0, s1)


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
@pytest.mark.parametrize("rank", [4, 8, 16])
@pytest.mark.parametrize("seed", range(3))
def test_reduce_matches_full_elimination(field, rank, seed):
    F = partly_reducible(field, rank, random.Random(f"{field}-{rank}-{seed}"))
    assert F.rank == rank and mf.validate(F) == [] and not mf.is_reduced(F)
    assert first_unit(F.s0.entries) or first_unit(F.s1.entries)
    got = mf.reduce(F)
    assert got == dense_reduce(F, reference_split_summand)
    assert got == dense_reduce(F, dense_split_summand)
    assert got == rescan_reduce(F)
    assert mf.reduce(got) is got
    assert first_unit(got.s0.entries) is None and first_unit(got.s1.entries) is None
    assert mf.is_reduced(got) and got.rank < rank
    for matrix in (got.s0, got.s1):
        for row in matrix.entries:
            for entry in row:
                assert_public_scalars(entry)


def inflate(F, N):
    """F under the substitution x_k -> x_k^N, a ring map: the result
    factors f(x^N), every degree times N, with the same unit entries."""
    def poly(p):
        return Polynomial.from_pairs(p.field, p.nvars,
                                     [(tuple(N * e for e in exps), c) for exps, c in p.terms])

    def matrix(m):
        return HomogeneousMatrix(m.field, m.nvars, DegreeMultiset(tuple(N * x for x in m.source)),
                                 DegreeMultiset(tuple(N * x for x in m.target)),
                                 [[poly(e) for e in row] for row in m.entries])

    return mf.MatrixFactorization(poly(F.f), matrix(F.s0), matrix(F.s1))


@pytest.mark.parametrize("field", [QQ, QI, GF(2**31 - 1)], ids=["QQ", "QQ(i)", "GF(2^31-1)"])
@pytest.mark.parametrize("N", [64, 2**14, 2**28, 2**30, 2**62])
def test_reduce_across_widths_matches_dense_elimination(field, N):
    # N = 64 and N = 2^14 put operands of 8 and 16-bit, and of 16 and
    # 32-bit fields into one Schur update; with N = 2^28 every degree stays
    # below 2^31; N = 2^30 and N = 2^62 put operands of 32, 64 and 128-bit
    # fields into one Schur update.
    F = partly_reducible(field, 8, random.Random(f"wide-{field}-{N}"))
    wide = inflate(F, N)
    assert mf.validate(wide) == []
    got = mf.reduce(wide)
    assert got == dense_reduce(wide, reference_split_summand) == inflate(mf.reduce(F), N)
    assert mf.is_reduced(got) and mf.validate(got) == []
    for matrix in (got.s0, got.s1):
        for row in matrix.rows:
            for _, entry in row:
                assert_public_scalars(entry)
                assert_view(entry)


def reduced_factor(field, rng):
    """A reduced factorization of rank 1 to 4, or over a field with i of
    rank 2 to 8: random elementary factors tensored, or fermat(p, 2)."""
    if field.has_sqrt_minus_one() and rng.random() < 0.5:
        return mf.fermat(rng.choice([2, 3, 4]), 2, field=field)
    d = rng.choice([2, 3])
    F = random_reduced_mf(rng, field=field, d=d)
    while rng.random() < 0.5:
        G = random_reduced_mf(rng, field=field, d=d)
        if not (F.f + G.f).is_zero:
            return mf.tensor(F, G)
    return F


def document_or_error(F):
    try:
        return mf_to_document(F)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("family", ["partly_reducible", "random_valid_mf", "inflate", "base_changed"])
@given(field=st.sampled_from(FIELDS), seed=st.integers(0, 2**32))
def test_reduce_matches_the_reference_elimination(family, field, seed):
    # The raw-view elimination against the one that made every updated row
    # into polynomials: the same factorization and the same document.  On
    # base-changed factorizations the reduced part is F's, so its Betti
    # table is too.
    rng = random.Random(seed)
    if family == "partly_reducible":
        F = partly_reducible(field, rng.choice([4, 8, 16]), rng)
    elif family == "random_valid_mf":
        F = random_valid_mf(rng, field)
    elif family == "inflate":
        F = inflate(partly_reducible(field, 8, rng), rng.choice([64, 2**14, 2**28, 2**30, 2**62]))
    else:
        factor = reduced_factor(field, rng)
        F = base_changed(factor, rng)
        assert mf.validate(F) == [] and F.rank == 2 * factor.rank <= 16
    got, want = mf.reduce(F), reference_reduce(F)
    assert got == want
    # A document refuses the exponents of the widest inflations, alike.
    assert document_or_error(got) == document_or_error(want)
    if family == "base_changed":
        assert mf.betti(got) == mf.betti(factor)


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


# -- validate: one composite --------------------------------------------------


def dense_mismatch(grid, f):
    zero = Polynomial.zero(f.field, f.nvars)
    for r, row in enumerate(grid):
        for c, got in enumerate(row):
            expected = f if r == c else zero
            if got != expected:
                return f"entry ({r},{c}): got {got}, expected {expected}, difference {got - expected}"
    return None


def two_composite_validate(F):
    """``mf.validate`` as it was before it skipped s0*s1: both composites
    are formed on dense grids and compared entry by entry with f*id."""
    problems = []
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
    for name, grid in (("s1*s0", dense_compose(F.s1.twist(deg), F.s0)),
                       ("s0*s1", dense_compose(F.s0, F.s1))):
        mismatch = dense_mismatch(grid, f)
        if mismatch is not None:
            problems.append(f"{name} disagrees with f*id at {mismatch}")
    return problems


def perturbed(F, rng):
    """F with one entry of s0 or s1 changed: set to zero, or plus a random
    polynomial of the entry's degree (or of degree 1 where it must be 0)."""
    name = rng.choice(["s0", "s1"])
    matrix = getattr(F, name)
    grid = [list(row) for row in matrix.entries]
    r, c = rng.randrange(matrix.nrows), rng.randrange(matrix.ncols)
    degree = matrix.source[c] - matrix.target[r]
    if rng.random() < 0.25:
        grid[r][c] = Polynomial.zero(F.field, F.nvars)
    else:
        grid[r][c] += random_homogeneous(F.field, F.nvars, max(degree, 1), rng)
    changed = HomogeneousMatrix(F.field, F.nvars, matrix.source, matrix.target, grid)
    if name == "s0":
        return mf.MatrixFactorization(F.f, changed, F.s1)
    return mf.MatrixFactorization(F.f, F.s0, changed)


def rank_mismatched(F):
    # F with its last F1 generator dropped: s0 loses a row, s1 a column.
    keep = F.rank1 - 1
    s0 = HomogeneousMatrix(F.field, F.nvars, F.s0.source, DegreeMultiset(F.f1_degrees[:keep]),
                           F.s0.entries[:keep])
    s1 = HomogeneousMatrix(F.field, F.nvars, DegreeMultiset(F.s1.source[:keep]), F.s1.target,
                           [row[:keep] for row in F.s1.entries])
    return mf.MatrixFactorization(F.f, s0, s1)


def validate_inputs(field, rng):
    F = partly_reducible(field, rng.choice([4, 8]), rng)
    R = mf.reduce(F)
    G = mf.shift(mf.tensor(random_elementary(field, 3, F.d, rng),
                           random_elementary(field, 3, F.d, rng, variables=[0])))
    x0 = Polynomial.variable(field, F.nvars, 0)
    yield from (F, R, G, mf.dual(R), rank_mismatched(F))
    for base in (F, R, G):
        for _ in range(6):
            yield perturbed(base, rng)
    yield mf.MatrixFactorization(F.f * x0, F.s0, F.s1)   # f of the wrong degree
    yield mf.MatrixFactorization(F.f + F.f, F.s0, F.s1)  # f of the right degree, not s1*s0
    yield mf.MatrixFactorization(R.f, R.s1.twist(R.d), R.s0)  # the shift without signs


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_two_composites(field, seed):
    rng = random.Random(f"validate-{field}-{seed}")
    outcomes = set()
    for F in validate_inputs(field, rng):
        got = mf.validate(F)
        assert got == two_composite_validate(F)
        outcomes.add(tuple(p.split(" ", 1)[0] for p in got))
    # Valid inputs, degree and rank diagnostics, and both composites.
    assert () in outcomes and ("s1*s0", "s0*s1") in outcomes
    assert any(diagnostics and diagnostics[0] in ("s0", "s1") for diagnostics in outcomes)


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
@given(seed=st.integers(0, 2**32 - 1))
def test_tensor_of_valid_factors_is_valid(field, seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    F = random_valid_mf(rng, field=field, d=d)
    G = random_valid_mf(rng, field=field, d=d)
    if not (F.f + G.f).is_zero:
        T = mf.tensor(F, G)
        assert mf.validate(T) == [] == two_composite_validate(T)


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
def test_tensor_rejects_an_invalid_factor(field):
    rng = random.Random(f"tensor-{field}")
    F = random_reduced_mf(rng, field=field, d=2)
    G = random_reduced_mf(rng, field=field, d=2)
    bad = F
    while not mf.validate(bad):
        bad = perturbed(F, rng)
    message = "invalid matrix factorization: " + "; ".join(mf.validate(bad))
    for left, right in ((bad, G), (G, bad), (bad, bad)):
        with pytest.raises(ValueError) as info:
            mf.tensor(left, right)
        assert str(info.value) == message
    assert mf.validate(mf.tensor(F, G)) == []


# -- powers ---------------------------------------------------------------------


def loop_pow(poly, exponent, times=mul):
    """``Polynomial.__pow__`` as it was before its one-term fast path:
    square-and-multiply by full polynomial products, each formed by
    ``times``."""
    one = Polynomial.constant(poly.field, poly.nvars, 1)
    return square_and_multiply(poly, exponent, one, times)


def assert_power(field, nvars, pairs, exponent):
    # p ** exponent builds the terms of neither p nor the power, and equals
    # square-and-multiply over the tuple kernel, run on a copy of p.
    p = Polynomial.from_pairs(field, nvars, pairs)
    power = p ** exponent
    assert "terms" not in p.__dict__ and "terms" not in power.__dict__
    copy = Polynomial.from_pairs(field, nvars, pairs)
    assert power == loop_pow(copy, exponent,
                             lambda a, b: tuple_sum_of_products(field, nvars, [(a, b)]))
    assert_view(power)
    assert_public_scalars(power)
    return power


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_power_builds_no_terms_and_matches_tuple_power(field, data):
    nvars = data.draw(st.integers(1, 3))
    pairs = data.draw(term_lists(field, nvars, max_size=1) | term_lists(field, nvars, max_size=4))
    assert_power(field, nvars, pairs, data.draw(st.integers(0, 6)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("top, width", [(2**31 - 1, 64), (2**62, 128)])
@pytest.mark.parametrize("terms", [1, 2])
def test_power_across_a_width_matches_tuple_power(field, top, width, terms):
    # x0^(2^31 - 1) squared has degree 2^32 - 2, and x0^(2^62) squared 2^63.
    one = field.one
    pairs = [((top, 0), one + one), ((0, 1), one)][:terms]
    assert assert_power(field, 2, pairs, 2)._view[0] == width


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_power_matches_repeated_products(field, data):
    nvars = data.draw(st.integers(1, 3))
    pairs = data.draw(term_lists(field, nvars, max_size=1))
    poly = Polynomial.from_pairs(field, nvars, pairs)
    exponent = data.draw(st.one_of(st.integers(0, 6), st.integers(0, MAX_EXPONENT)))
    power = poly ** exponent
    assert power == loop_pow(poly, exponent)
    assert_public_scalars(power)
    if exponent <= 6:
        product = Polynomial.constant(field, nvars, 1)
        for _ in range(exponent):
            product = product * poly
        assert power == product


# -- terms built on first read -------------------------------------------------
# Every polynomial holds its view and builds ``terms`` on first read; each
# reader of a kernel or parser output must give what it gives for the
# same polynomial built by ``from_pairs``, whichever is read first.

READERS = {
    "==": lambda poly, ref: poly == ref,
    "hash": lambda poly, ref: hash(poly) == hash(ref),
    "repr": lambda poly, ref: repr(poly) == repr(ref),
    "str": lambda poly, ref: str(poly) == str(ref),
    "is_zero": lambda poly, ref: poly.is_zero is ref.is_zero,
    "total_degree": lambda poly, ref: poly.total_degree == ref.total_degree,
    "is_homogeneous": lambda poly, ref: poly.is_homogeneous is ref.is_homogeneous,
    "constant_term": lambda poly, ref: (type(poly.constant_term) is type(ref.constant_term)
                                        and poly.constant_term == ref.constant_term),
}
# The readers that answer from a view without building terms.
VIEW_READERS = {"==", "hash", "str", "is_zero", "total_degree", "is_homogeneous", "constant_term"}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_lazy_terms_read_like_from_pairs(field, data):
    nvars = data.draw(st.integers(1, 3))
    p_pairs = data.draw(wide_term_lists(field, nvars))
    q_pairs = data.draw(wide_term_lists(field, nvars))
    p = Polynomial.from_pairs(field, nvars, p_pairs)
    q = Polynomial.from_pairs(field, nvars, q_pairs)
    ref = Polynomial.from_pairs(field, nvars, ref_mul(ref_from(p_pairs), ref_from(q_pairs)))
    makers = [lambda: p * q, lambda: Polynomial._sum_of_products(field, nvars, [(p, q), (ref, ref)])
              - ref * ref]
    if all(e <= MAX_EXPONENT for exps, _ in ref.terms for e in exps):
        makers.append(lambda: parse_poly(str(ref), field, nvars))
    first = data.draw(st.sampled_from(sorted(READERS)))
    for make in makers:
        poly = make()
        assert READERS[first](poly, ref), first
        if first in VIEW_READERS:
            assert "terms" not in poly.__dict__
        for name, agrees in READERS.items():
            assert agrees(poly, ref), name
        assert_public_scalars(poly)


@pytest.fixture
def wrapped(monkeypatch):
    """The polynomials whose terms get built, in order."""
    built = []
    wrap = algebra._terms_from_view

    def counting(poly):
        built.append(poly)
        return wrap(poly)

    monkeypatch.setattr(algebra, "_terms_from_view", counting)
    return built


@pytest.fixture
def composites(monkeypatch):
    """The rows that each call of the row generator yields, one list per
    call, and the arguments of every row split into polynomials."""
    calls, split = [], []
    row_sums, row_from_sums = Polynomial._row_sums.__func__, Polynomial._row_from_sums.__func__

    def recording(cls, *args):
        rows = []
        calls.append(rows)
        for sums in row_sums(cls, *args):
            rows.append(sums)
            yield sums

    def splitting(cls, *args):
        split.append(args)
        return row_from_sums(cls, *args)

    monkeypatch.setattr(Polynomial, "_row_sums", classmethod(recording))
    monkeypatch.setattr(Polynomial, "_row_from_sums", classmethod(splitting))
    return calls, split


@pytest.mark.parametrize("field", [QI, GF(13)], ids=["QQ(i)", "GF(13)"])
def test_validate_builds_no_composite_terms(wrapped, composites, field):
    calls, split = composites
    built = mf.fermat(4, 2, field=field)
    loaded = document_to_mf(mf_to_document(built))
    for F in (built, loaded):
        wrapped.clear()
        calls.clear()
        split.clear()
        assert mf.validate(F) == []
        # One composite of F.rank settled rows, each f's view in one column,
        # and no row made into polynomials.
        assert len(calls) == 1 and len(calls[0]) == F.rank
        assert all(len(sums) == len(F.f._view[1]) for sums in calls[0])
        assert split == []
        assert wrapped == []


def dense_invalid_document(field, rank):
    # Every entry x0, F0 degrees all 1, F1 degrees all 0, f = x0^2: every
    # entry of either composite is rank * x0^2, so row 0 already fails.
    return {"schema": MF_SCHEMA, "field": field_to_json(field), "nvars": 1, "f": "x0^2", "d": 2,
            "F0_degrees": [1] * rank, "F1_degrees": [0] * rank,
            "s0": [["x0"] * rank] * rank, "s1": [["x0"] * rank] * rank}


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
def test_validate_forms_no_row_after_the_first_bad_one(composites, field):
    calls, split = composites
    F = document_to_mf(dense_invalid_document(field, 16))
    problems = mf.validate(F)
    # Each composite stops at its row 0, the one row split.
    assert [len(rows) for rows in calls] == [1, 1]
    assert len(split) == 2
    assert [problem.split(" ")[0] for problem in problems] == ["s1*s0", "s0*s1"]
    assert problems == compose_validate(F)


def validate_case(field, rng):
    # A valid factorization: with trivial summands, partly reducible with
    # mixed bases, or f of degree 128 over entries of degree below 128,
    # so that the composite is checked at a width wider than its operands'.
    kind = rng.randrange(3)
    if kind == 0:
        return random_valid_mf(rng, field=field)
    if kind == 1:
        return partly_reducible(field, rng.choice([4, 8]), rng)
    F = random_elementary(field, 2, 128, rng)
    G = random_elementary(field, 2, 128, rng)
    return mf.tensor(F, G) if not (F.f + G.f).is_zero and rng.random() < 0.5 else F


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(seed=st.integers(0, 2**32 - 1), perturb=st.booleans())
def test_validate_matches_compose_validate(field, seed, perturb):
    rng = random.Random(seed)
    F = validate_case(field, rng)
    assert mf.validate(F) == []
    if perturb:
        F = perturbed(F, rng)
    want = compose_validate(F)
    assert mf.validate(F) == want
    # Read back from its document, which only a factorization whose
    # entries have their degrees can make, every entry is one that the
    # reader packed at the width of its own degree.
    if all(problem.startswith(("s1*s0 ", "s0*s1 ")) for problem in want):
        assert mf.validate(document_to_mf(mf_to_document(F))) == want


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_compare_hash_and_print_build_no_terms(wrapped, field):
    # The counter sees terms only when they are read.
    text = "(1/2 + 3*i)*x0^2 - x0*x1 + 2" if field.kind == "Qi" else "1/2*x0^2 - x0*x1 + 2"
    parsed = parse_poly(text, field, 2)
    again = parse_poly(text, field, 2)
    product = parsed * parsed
    other = Polynomial._sum_of_products(field, 2, [(again, again)])
    for poly, twin in ((parsed, again), (product, other)):
        assert poly == twin and not poly != twin and poly != -twin
        assert hash(poly) == hash(twin)
        assert str(poly) == str(twin)
    assert wrapped == []
    assert parsed.terms and wrapped == [parsed]


@pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
def test_reduce_builds_no_terms_for_overwritten_rows(monkeypatch, wrapped, field):
    # The updates of reduce are formed by _sum_products, each from the
    # settled sums of the entry it overwrites, passed as its start; an
    # entry that a later update overwrites never becomes a polynomial.
    F = partly_reducible(field, 16, random.Random(f"lazy-{field}"))
    outputs, starts, built = [], [], []
    kernel, from_view = algebra._sum_products, Polynomial._from_view.__func__

    def recording(ring, products, start=()):
        starts.append(start)
        outputs.append(kernel(ring, products, start))
        return outputs[-1]

    def building(cls, *args):
        built.append(from_view(cls, *args))
        return built[-1]

    monkeypatch.setattr(algebra, "_sum_products", recording)
    monkeypatch.setattr(Polynomial, "_from_view", classmethod(building))
    wrapped.clear()
    R = mf.reduce(F)
    kept = {id(e) for matrix in (R.s0, R.s1) for row in matrix.rows for _, e in row}
    overwritten = [e for e in outputs if any(start is e for start in starts)]
    assert overwritten and R.rank < F.rank
    assert all(id(p) in kept for p in built)
    assert wrapped == []


# -- the printer against the one that read terms ----------------------------


def reference_term_text(field, exps, coeff):
    # Returns (sign, body); sign is "+" or "-" and body carries no sign.
    sign = "+"
    magnitude = coeff
    if field.kind == "Q" and coeff < 0:
        sign, magnitude = "-", -coeff
    elif field.kind == "Qi" and coeff.im == 0 and coeff.re < 0:
        sign, magnitude = "-", -coeff
    mono = algebra._monomial_text(exps)
    if not mono:
        return sign, str(magnitude)
    if magnitude == field.one:
        return sign, mono
    return sign, f"{magnitude}*{mono}"


def reference_str(poly):
    """``Polynomial.__str__`` as it was before it read the view: one
    signed body per term of ``terms``, from the public scalars."""
    if not poly.terms:
        return "0"
    pieces = []
    for exps, coeff in poly.terms:
        sign, body = reference_term_text(poly.field, exps, coeff)
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def printed_scalars(field):
    # The drawn scalars and the forms the printer treats apart: units,
    # negative and fractional values, and over QQ(i) a zero real part.
    half = Fraction(1, 2)
    special = {
        "Q": [Fraction(1), Fraction(-1), -half, Fraction(7, 3)],
        "Qi": [GaussianRational(0, 1), GaussianRational(half, -3), GaussianRational(0, -1),
               GaussianRational(1, 0), GaussianRational(-1, 0), GaussianRational(-half, 0)],
        "Fp": [field.one, -field.one] if field.kind == "Fp" else [],
    }[field.kind]
    return st.one_of(scalars(field), st.sampled_from(special))


# Total degrees at the edges of each width: the least and the largest
# that the view of that width holds.
WIDTH_EDGES = {8: [1, 127], 16: [128, 32767], 32: [32768, 2**31 - 1], 64: [2**31, 2**63 - 1],
               128: [2**63, 2**127 - 1]}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
@given(data=st.data())
def test_printer_matches_terms_printer(field, width, data):
    nvars = data.draw(st.integers(1, 3))
    top = tuple(data.draw(st.sampled_from(WIDTH_EDGES[width])) if k == 0 else 0
                for k in range(nvars))
    coeff = printed_scalars(field)
    small = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), coeff), max_size=4)
    p = Polynomial.from_pairs(field, nvars, [(top, data.draw(coeff.filter(bool)))] + data.draw(small))
    q = Polynomial.from_pairs(field, nvars, data.draw(wide_term_lists(field, nvars, coeff=coeff)))
    assert p._view[0] == width
    one = Polynomial.constant(field, nvars, 1)
    polys = [p, q, -p, -q, p * one, p * q, p - q, Polynomial._sum_of_products(field, nvars, [(p, q)])]
    for poly in list(polys):
        if all(e <= MAX_EXPONENT for exps, _ in poly.terms for e in exps):
            polys.append(parse_poly(reference_str(poly), field, nvars))
    for poly in polys:
        text = str(poly)
        assert text == reference_str(poly)
        if all(e <= MAX_EXPONENT for exps, _ in poly.terms for e in exps):
            assert parse_poly(text, field, nvars) == poly


# -- shared negations and the document boundary ---------------------------


def neg_cases(field, nvars, pairs):
    # The same polynomial made from terms, by the kernel and by the parser.
    p = Polynomial.from_pairs(field, nvars, pairs)
    cases = [p, Polynomial._sum_of_products(field, nvars, [(p, Polynomial.constant(field, nvars, 1))])]
    if all(e <= MAX_EXPONENT for exps, _ in p.terms for e in exps):
        cases.append(parse_poly(str(p), field, nvars))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_negation_is_one_shared_object(field, data):
    nvars = data.draw(st.integers(1, 3))
    pairs = data.draw(wide_term_lists(field, nvars))
    ref = Polynomial.from_pairs(field, nvars, pairs)
    expected = Polynomial.from_pairs(field, nvars, [(e, -c) for e, c in ref.terms])
    for p in neg_cases(field, nvars, pairs):
        neg = -p
        assert -p is neg and -neg is p
        assert neg == expected and hash(neg) == hash(expected)
        assert repr(neg) == repr(expected) and neg.terms == expected.terms
        assert_public_scalars(neg)
        # The link is a cache: p reads as the polynomial it was.
        assert p == ref and hash(p) == hash(ref) and repr(p) == repr(ref) and p.terms == ref.terms
        assert (neg is p) == p.is_zero


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
@given(data=st.data())
def test_negation_keeps_the_view(field, width, data):
    # A polynomial made from a view at the given width is negated on its
    # raw values and builds no terms.
    top = {8: 3, 16: 200, 32: 2**20, 64: 2**40, 128: 2**100}[width]
    one = field.one
    small = st.tuples(st.integers(0, 1), st.integers(0, 1))
    pairs = [((top, 0), one + one)] + data.draw(st.lists(st.tuples(small, scalars(field)), max_size=4))
    for p in neg_cases(field, 2, pairs)[1:]:
        assert p._view[0] == width and "terms" not in p.__dict__
        neg = -p
        assert neg._view[0] == width
        assert "terms" not in p.__dict__ and "terms" not in neg.__dict__
        assert neg == Polynomial.from_pairs(field, 2, [(e, -c) for e, c in p.terms])
        assert_view(neg)
        assert_public_scalars(neg)


def per_entry_texts(matrix):
    return [[str(e) for e in row] for row in matrix.entries]


def boundary_outputs(field, rng):
    # Outputs of fermat (when the field has i), tensor, reduce, shift and
    # dual, and a sum in which one object is an entry of s0 and of s1 and
    # equal entries are distinct objects.
    F = partly_reducible(field, 8, rng)
    G = random_valid_mf(rng, field=field)
    outputs = [F, mf.reduce(F), mf.shift(F), mf.dual(F), mf.shift(mf.shift(F)), mf.dual(mf.shift(G))]
    H = random_valid_mf(rng, field=field, d=G.d)
    if not (G.f + H.f).is_zero:
        outputs.append(mf.tensor(G, H))
    if field.has_sqrt_minus_one():
        fermat = mf.fermat(4, 2, field=field)
        outputs += [fermat, mf.shift(fermat), mf.dual(fermat)]
    f = G.f
    same = mf.direct_sum(mf.trivial_one_f(f), mf.trivial_f_one(f))
    assert same.s0.rows[1][0][1] is same.s1.rows[0][0][1]
    copy = parse_poly(str(f), field, f.nvars)
    outputs += [same, mf.direct_sum(same, mf.trivial_f_one(copy))]
    return outputs


@pytest.mark.parametrize("field", [QQ, QI, GF(13), GF(2**31 - 1)],
                         ids=["QQ", "QQ(i)", "GF(13)", "GF(2^31-1)"])
@pytest.mark.parametrize("seed", range(3))
def test_document_prints_each_entry_like_str(field, seed):
    for F in boundary_outputs(field, random.Random(f"print-{field}-{seed}")):
        doc = mf_to_document(F)
        assert doc["f"] == str(F.f)
        assert doc["s0"] == per_entry_texts(F.s0)
        assert doc["s1"] == per_entry_texts(F.s1)
        assert document_to_mf(doc) == F


@pytest.mark.parametrize("field", [QI, GF(13)], ids=["QQ(i)", "GF(13)"])
def test_fermat_holds_one_object_per_entry_text(field):
    for pairs in range(1, 9):
        F = mf.fermat(pairs, 2, field=field)
        objects = {id(e): e for m in (F.s0, F.s1) for row in m.rows for _, e in row}
        assert len(objects) == len({str(e) for e in objects.values()}) == 4 * pairs - 2


@pytest.mark.parametrize("bad, message", [
    (0, "s0[1][3] must be a polynomial string"),
    (None, "s0[1][3] must be a polynomial string"),
    ("x0 +", "s0[1][3]: unexpected end of input (at position 4)"),
    ("x0*x1", "s0[1][3]: degree 2 exceeds the bound 1 (at position 2)"),
])
def test_entry_after_zero_cells_keeps_its_message(bad, message):
    doc = {
        "schema": MF_SCHEMA, "field": field_to_json(QQ), "nvars": 2,
        "f": "x0^2 + x1^2", "d": 2,
        "F0_degrees": [1, 1, 1, 1], "F1_degrees": [0, 0, 0, 0],
        "s0": [["0"] * 4 for _ in range(4)], "s1": [["0"] * 4 for _ in range(4)],
    }
    doc["s0"][1][3] = bad
    with pytest.raises(SchemaError) as caught:
        document_to_mf(doc)
    assert str(caught.value) == message
