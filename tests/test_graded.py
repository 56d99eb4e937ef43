import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit.algebra import GF, QI, QQ, Polynomial, parse_poly
from mfkit.graded import DegreeMultiset, HomogeneousMatrix, compose

from _factories import random_homogeneous_matrix, reference_matrix_validate


def _matrix(field, nvars, source, target, texts):
    entries = tuple(
        tuple(parse_poly(t, field, nvars) for t in row) for row in texts
    )
    return HomogeneousMatrix(field, nvars, DegreeMultiset(source), DegreeMultiset(target), entries)


class TestDegreeMultiset:
    def test_twist(self):
        assert DegreeMultiset((0, 2)).twist(2) == DegreeMultiset((-2, 0))
        assert DegreeMultiset((5,)).twist(0) == DegreeMultiset((5,))
        d = DegreeMultiset((1, 3, 3))
        assert d.twist(4).twist(-4) == d

    def test_rank_and_multiplicity(self):
        d = DegreeMultiset((0, 2, 2))
        assert d.rank == 3
        assert d.multiplicity(2) == 2
        assert d.multiplicity(5) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            DegreeMultiset((2, 0))
        assert DegreeMultiset.from_iterable([2, 0]) == DegreeMultiset((0, 2))

    def test_bool_degrees_rejected(self):
        for degrees in ((False, True), (0, True), (True,)):
            with pytest.raises(ValueError, match="integers"):
                DegreeMultiset(degrees)
        assert str(DegreeMultiset((0, 1))) == "{0, 1}"


class TestValidate:
    def test_valid_one_by_one(self):
        m = _matrix(QQ, 1, (2,), (0,), [["x0^2"]])
        assert m.validate() == []

    def test_degree_mismatch_diagnostic(self):
        m = _matrix(QQ, 1, (2,), (0,), [["x0"]])
        problems = m.validate()
        assert len(problems) == 1
        assert "degree 1" in problems[0] and "expected 2" in problems[0]

    def test_fermat_tensor_block(self):
        # The two-pair tensor's s0 block: all entries homogeneous of degree 2.
        texts = [
            ["x0^2 + i*x1^2", "-(x2^2 - i*x3^2)"],
            ["x2^2 + i*x3^2", "x0^2 - i*x1^2"],
        ]
        m = _matrix(QI, 4, (2, 2), (0, 0), texts)
        assert m.validate() == []

    def test_negative_expected_degree_must_be_zero(self):
        m = _matrix(QQ, 1, (0,), (2,), [["1"]])
        assert any("must be zero" in p for p in m.validate())
        z = _matrix(QQ, 1, (0,), (2,), [["0"]])
        assert z.validate() == []

    def test_inhomogeneous_entry(self):
        m = _matrix(QQ, 1, (2,), (0,), [["x0^2 + x0"]])
        assert any("not homogeneous" in p for p in m.validate())

    @given(st.data())
    def test_matches_the_reference_loop(self, data):
        # Entries drawn from one pool, so that one entry object sits in
        # several cells, valid in some and not in others: homogeneous ones
        # of degrees 0 to 3, inhomogeneous ones, and degrees that put a
        # negative expected degree in some cells.
        field = data.draw(st.sampled_from([QQ, QI, GF(13)]), label="field")
        pool = [Polynomial.zero(field, 2)] + [parse_poly(text, field, 2) for text in (
            "1", "x0", "2*x0 - x1", "x0*x1 + x1^2", "x0^3", "x0^2 + x1", "x1^2 + 1")]
        degrees = st.lists(st.integers(-2, 4), max_size=5).map(lambda ds: DegreeMultiset(tuple(sorted(ds))))
        source, target = data.draw(degrees, label="source"), data.draw(degrees, label="target")
        cells = st.lists(st.lists(st.sampled_from(pool), min_size=len(source), max_size=len(source)),
                         min_size=len(target), max_size=len(target))
        m = HomogeneousMatrix(field, 2, source, target, data.draw(cells, label="cells"))
        # The diagnostics are kept per matrix; a caller's list is its own.
        m.validate().append("entry (0,0): changed by a caller")
        assert m.validate() == reference_matrix_validate(m)


class TestSparseRows:
    def test_rows_hold_the_nonzeros(self):
        m = _matrix(QQ, 2, (1, 2, 2), (0, 1), [["x0", "0", "x1^2"], ["0", "0", "x0"]])
        x0, x1 = (parse_poly(t, QQ, 2) for t in ("x0", "x1"))
        assert m.rows == (((0, x0), (2, x1 ** 2)), ((2, x0),))
        assert m.entries[1][0].is_zero and m.entries[0][2] == x1 ** 2
        assert HomogeneousMatrix(QQ, 2, m.source, m.target, m.entries) == m
        z = HomogeneousMatrix.zero(QQ, 2, m.source, m.target)
        assert z.rows == ((), ()) and all(e.is_zero for row in z.entries for e in row)

    def test_every_entry_is_checked(self):
        zero_q = parse_poly("0", QQ, 1)
        with pytest.raises(ValueError, match=r"entry \(0,1\) lives in the wrong"):
            HomogeneousMatrix(QI, 1, DegreeMultiset((0, 0)), DegreeMultiset((0,)),
                              [[parse_poly("0", QI, 1), zero_q]])
        with pytest.raises(ValueError, match=r"entry \(0,0\) lives in the wrong"):
            HomogeneousMatrix._from_rows(QI, 1, DegreeMultiset((0,)), DegreeMultiset((0,)),
                                         (((0, parse_poly("x0", QQ, 1)),),))
        with pytest.raises(ValueError, match="row 0: expected 2 columns"):
            HomogeneousMatrix(QQ, 1, DegreeMultiset((0, 0)), DegreeMultiset((0,)), [[zero_q]])
        with pytest.raises(ValueError, match="expected 1 rows"):
            HomogeneousMatrix(QQ, 1, DegreeMultiset((0,)), DegreeMultiset((0,)), [])


class TestCompose:
    def test_identity(self):
        m = _matrix(QQ, 2, (1, 2), (0, 0), [["x0", "x1^2"], ["x1", "x0^2"]])
        left = HomogeneousMatrix.identity(QQ, 2, m.target)
        right = HomogeneousMatrix.identity(QQ, 2, m.source)
        assert compose(left, m) == m
        assert compose(m, right) == m

    def test_fermat_composition(self):
        a = _matrix(QI, 2, (4,), (2,), [["x0^2 + i*x1^2"]])
        b = _matrix(QI, 2, (2,), (0,), [["x0^2 - i*x1^2"]])
        product = compose(b, a)
        assert product.entries[0][0] == parse_poly("x0^4 + x1^4", QI, 2)
        assert product.source == DegreeMultiset((4,))
        assert product.target == DegreeMultiset((0,))

    def test_zero_annihilates(self):
        m = _matrix(QQ, 1, (2,), (0,), [["x0^2"]])
        z = HomogeneousMatrix.zero(QQ, 1, DegreeMultiset((3,)), m.source)
        assert all(e.is_zero for row in compose(m, z).entries for e in row)

    def test_shape_mismatch(self):
        m = _matrix(QQ, 1, (2,), (0,), [["x0^2"]])
        with pytest.raises(ValueError, match="mismatch"):
            compose(m, m)


class TestProperties:
    def test_composition_of_valid_is_valid(self):
        rng = random.Random(5)
        field = GF(13)
        for _ in range(50):
            x = DegreeMultiset(tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))))
            y = DegreeMultiset(tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))))
            z = DegreeMultiset(tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))))
            a = random_homogeneous_matrix(field, 2, y, z, rng)
            b = random_homogeneous_matrix(field, 2, x, y, rng)
            assert a.validate() == [] and b.validate() == []
            assert compose(a, b).validate() == []

    def test_twist_preserves_validity_and_entries(self):
        rng = random.Random(6)
        m = random_homogeneous_matrix(QQ, 2, DegreeMultiset((0, 1, 3)), DegreeMultiset((0, 2)), rng)
        for t in (-3, 1, 7):
            twisted = m.twist(t)
            assert twisted.validate() == []
            assert twisted.entries == m.entries

    def test_composition_associative(self):
        rng = random.Random(8)
        field = GF(13)
        w = DegreeMultiset((0, 1))
        x = DegreeMultiset((1, 2))
        y = DegreeMultiset((2, 3))
        z = DegreeMultiset((3, 4))
        a = random_homogeneous_matrix(field, 2, y, z, rng, density=1.0)
        b = random_homogeneous_matrix(field, 2, x, y, rng, density=1.0)
        c = random_homogeneous_matrix(field, 2, w, x, rng, density=1.0)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
