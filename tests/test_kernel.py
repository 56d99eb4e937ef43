"""Differential tests of the polynomial kernel.

Arithmetic results skip validation and go through the trusted
``Polynomial._canonical``, ``compose`` multiplies only nonzero entries
into one accumulator per output entry, and ``document_to_mf`` parses each
distinct entry string once.  Each fast path is compared here with a
plain reference: polynomials as dicts of monomials, a triple-loop matrix
product built with ``from_pairs``, a linear scan for the constant term,
the original sort key, and one parse per entry.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit.algebra import GF, QI, QQ, GaussianRational, Polynomial, parse_poly
from mfkit.cli import MF_SCHEMA, SchemaError, document_to_mf, field_to_json
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

FIELDS = [QQ, QI, GF(13)]
FIELD_IDS = [str(field) for field in FIELDS]


def scalars(field):
    # Small values so that sums cancel often.
    small = st.integers(-2, 2)
    if field.kind == "Q":
        return st.builds(Fraction, small, st.integers(1, 2))
    if field.kind == "Qi":
        return st.builds(GaussianRational, st.builds(Fraction, small, st.integers(1, 2)), small)
    return st.integers(0, field.p - 1).map(field.coerce)


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
