import random
import time

import pytest

from mfkit import algebra, mf
from mfkit.algebra import GF, QI, QQ, Polynomial, parse_poly
from mfkit.graded import DegreeMultiset, HomogeneousMatrix

from _factories import FP13, random_elementary, random_reduced_mf, random_valid_mf


def quartic(field=QQ, nvars=1):
    return parse_poly("x0^4", field, nvars)


def fermat_poly(nvars=2):
    text = " + ".join(f"x{k}^4" for k in range(nvars))
    return parse_poly(text, QI, nvars)


class TestValidate:
    def test_trivial_pair(self):
        f = quartic()
        assert mf.validate(mf.trivial_one_f(f)) == []
        assert mf.validate(mf.trivial_f_one(f)) == []

    def test_fermat_pair_one_by_one(self):
        f = fermat_poly(2)
        F = mf.rank_one(
            f,
            parse_poly("x0^2 + i*x1^2", QI, 2),
            parse_poly("x0^2 - i*x1^2", QI, 2),
        )
        assert F.f0_degrees == DegreeMultiset((2,))
        assert F.f1_degrees == DegreeMultiset((0,))
        assert mf.validate(F) == []

    def test_composite_mismatch_diagnostic(self):
        f = parse_poly("x0^4 + x1^4", QQ, 2)
        bad = mf.rank_one(f, parse_poly("x0^2", QQ, 2), parse_poly("x1^2", QQ, 2))
        problems = mf.validate(bad)
        assert any("disagrees with f*id" in p for p in problems)

    def test_underdegree_entries_diagnosed(self):
        # s0 = s1 = [x0] against x0^4: the degree bookkeeping already
        # rules this out (the composite x0^2 could never equal x0^4).
        f = quartic()
        bad = mf.rank_one(f, parse_poly("x0", QQ, 1), parse_poly("x0", QQ, 1))
        assert mf.validate(bad)

    def test_rank_mismatch(self):
        f = quartic()
        one = Polynomial.constant(QQ, 1, 1)
        s0 = HomogeneousMatrix(QQ, 1, DegreeMultiset((0,)), DegreeMultiset((0, 4)),
                               ((one,), (f,)))
        s1 = HomogeneousMatrix(QQ, 1, DegreeMultiset((-4, 0)), DegreeMultiset((0,)),
                               ((f, one),))
        problems = mf.validate(mf.MatrixFactorization(f, s0, s1))
        assert any("rank mismatch" in p for p in problems)

    def test_zero_f_rejected(self):
        z = Polynomial.zero(QQ, 1)
        with pytest.raises(ValueError):
            mf.zero_mf(z)


class TestShift:
    def test_shift_of_trivial(self):
        f = quartic()
        shifted = mf.shift(mf.trivial_one_f(f))
        assert mf.validate(shifted) == []
        # (1, f) shifts to the (-f, -1) variant with twisted degrees.
        assert shifted.f0_degrees == DegreeMultiset((0,))
        assert shifted.f1_degrees == DegreeMultiset((-4,))
        assert shifted.s0.entries[0][0] == -f
        assert shifted.s1.entries[0][0] == Polynomial.constant(QQ, 1, -1)

    def test_shift_squared_is_twist_by_d(self):
        F = mf.fermat(2, 2)
        assert mf.shift(mf.shift(F)) == mf.twist(F, F.d)

    def test_rank_preserved(self):
        rng = random.Random(21)
        for _ in range(20):
            F = random_valid_mf(rng)
            S = mf.shift(F)
            assert (S.rank0, S.rank1) == (F.rank1, F.rank0)
            assert mf.validate(S) == []


class TestTwist:
    def test_twist_zero_is_identity(self):
        F = mf.fermat(1, 2)
        assert mf.twist(F, 0) == F

    def test_twist_inverse(self):
        F = mf.fermat(2, 2)
        assert mf.twist(mf.twist(F, 3), -3) == F

    def test_twist_reindexes_betti(self):
        F = mf.fermat(2, 2)
        table = mf.betti(F)
        for t in (-2, 1, 5):
            twisted = mf.betti(mf.twist(F, t))
            for (i, j), value in table.entries:
                assert twisted.get(i, j - t) == value
            assert twisted.total() == table.total()


class TestDirectSum:
    def test_sum_with_zero_rank(self):
        F = mf.fermat(2, 2)
        assert mf.direct_sum(F, mf.zero_mf(F.f)) == F

    def test_two_trivials(self):
        f = quartic()
        T = mf.direct_sum(mf.trivial_one_f(f), mf.trivial_f_one(f))
        assert mf.validate(T) == []
        assert T.rank0 == 2
        assert not mf.is_reduced(T)
        assert mf.reduce(T).rank0 == 0

    def test_rank_additive(self):
        rng = random.Random(31)
        F = random_reduced_mf(rng, d=4)
        G = mf.twist(mf.trivial_one_f(F.f), 1)
        S = mf.direct_sum(F, G)
        assert S.rank0 == F.rank0 + 1
        assert mf.validate(S) == []

    def test_mismatched_f_rejected(self):
        with pytest.raises(ValueError, match="same polynomial"):
            mf.direct_sum(mf.trivial_one_f(quartic()), mf.trivial_one_f(parse_poly("x0^2", QQ, 1)))


class TestTensor:
    def test_elementary_pair(self):
        # (x0^2, x0^2) of x0^4 with the Gaussian pair of x1^4 + x2^4.
        u = parse_poly("x0^2", QI, 3)
        F = mf.rank_one(u * u, u, u)
        G = mf.rank_one(
            parse_poly("x1^4 + x2^4", QI, 3),
            parse_poly("x1^2 + i*x2^2", QI, 3),
            parse_poly("x1^2 - i*x2^2", QI, 3),
        )
        T = mf.tensor(F, G)
        assert mf.validate(T) == []
        assert T.rank0 == 2
        assert T.f == parse_poly("x0^4 + x1^4 + x2^4", QI, 3)

    def test_fermat_two_pairs_normalized(self):
        F = mf.fermat(2, 2)
        assert F.f0_degrees == DegreeMultiset((2, 2))
        assert F.f1_degrees == DegreeMultiset((0, 0))
        assert F.f == fermat_poly(4)

    def test_normalize_flag_zeroes_min_f1_degree(self):
        rng = random.Random(47)
        left = mf.twist(random_elementary(FP13, 4, 4, rng, variables=(0, 1)), -2)
        right = random_elementary(FP13, 4, 4, rng, variables=(2, 3))
        plain = mf.tensor(left, right)
        normalized = mf.tensor(left, right, normalize=True)
        assert min(normalized.f1_degrees) == 0
        assert normalized == mf.twist(plain, min(plain.f1_degrees))
        assert mf.validate(normalized) == []

    def test_iterated_rank(self):
        rng = random.Random(41)
        nvars = 10
        factors = [
            random_elementary(FP13, nvars, 4, rng, variables=(2 * k, 2 * k + 1))
            for k in range(5)
        ]
        T = factors[0]
        for t, factor in enumerate(factors[1:], start=2):
            T = mf.tensor(T, factor)
            assert T.rank0 == 2 ** (t - 1)

    def test_degree_mismatch(self):
        f2 = parse_poly("x0^2", QQ, 1)
        with pytest.raises(ValueError, match="degree mismatch"):
            mf.tensor(mf.trivial_one_f(quartic()), mf.trivial_one_f(f2))

    def test_sum_to_zero_rejected(self):
        f = parse_poly("x0^2", GF(13), 1)
        g = parse_poly("12*x0^2", GF(13), 1)
        with pytest.raises(ValueError, match="f \\+ g = 0"):
            mf.tensor(mf.trivial_one_f(f), mf.trivial_one_f(g))


class TestDual:
    def test_dual_of_trivial_is_trivial(self):
        f = quartic()
        D = mf.dual(mf.trivial_one_f(f))
        assert mf.validate(D) == []
        assert D.rank0 == 1
        assert not mf.is_reduced(D)
        # It is the (f, 1) variant twisted so that F0 sits in degree 0.
        assert D == mf.twist(mf.trivial_f_one(f), 4)

    def test_dual_validates_same_f(self):
        F = mf.fermat(2, 2)
        D = mf.dual(F)
        assert D.f == F.f
        assert mf.validate(D) == []

    def test_rank_preserved_and_involutive(self):
        rng = random.Random(51)
        for _ in range(20):
            F = random_valid_mf(rng)
            D = mf.dual(F)
            assert D.rank0 == F.rank0
            assert mf.validate(D) == []
            assert mf.dual(D) == F


class TestReduced:
    def test_trivial_not_reduced(self):
        assert not mf.is_reduced(mf.trivial_one_f(quartic()))

    def test_fermat_reduced(self):
        assert mf.is_reduced(mf.fermat(2, 2))

    def test_zero_rank_reduced(self):
        assert mf.is_reduced(mf.zero_mf(quartic()))


class TestReduce:
    def test_strips_trivial_summand(self):
        F = mf.fermat(2, 2)
        padded = mf.direct_sum(F, mf.trivial_one_f(F.f))
        R = mf.reduce(padded)
        assert mf.validate(R) == []
        assert R.rank0 == F.rank0
        assert mf.betti(R) == mf.betti(F)

    def test_reduced_input_returned_unchanged(self):
        F = mf.fermat(2, 2)
        assert mf.reduce(F) is F

    def test_trivial_sum_reduces_to_zero(self):
        f = quartic()
        T = mf.direct_sum(mf.trivial_one_f(f), mf.trivial_f_one(f))
        R = mf.reduce(T)
        assert R.rank0 == 0
        assert mf.validate(R) == []

    @pytest.mark.parametrize("field", [QQ, QI, FP13], ids=str)
    def test_isolated_pivots_split_without_the_kernel(self, monkeypatch, field):
        # A pivot alone in its row or its column leaves the rest as it is:
        # the split deletes its row and column, and no product is formed.
        F = random_reduced_mf(random.Random(f"isolated-{field}"), field=field)
        f = F.f
        padded = [mf.direct_sum(F, mf.trivial_one_f(f)), mf.direct_sum(mf.trivial_f_one(f), F),
                  mf.direct_sum(mf.direct_sum(mf.trivial_one_f(f), F), mf.trivial_f_one(f))]
        # Every update and the scaling of a pivot row is a _sum_products
        # call, and the scaling takes the pivot's _minus_inverse first.
        calls = []
        for name in ("_sum_products", "_minus_inverse"):
            monkeypatch.setattr(algebra, name, lambda *args, kernel=getattr(algebra, name):
                                calls.append(args) or kernel(*args))
        for G in padded:
            R = mf.reduce(G)
            assert mf.presentation_equivalent(R, F)
        assert calls == []

    def test_maps_off_degree_zero_are_refused(self):
        # The updates are formed at the width of the widest input entry,
        # which holds them only where each keeps its entry's degree.
        f = quartic()
        one, x = Polynomial.constant(QQ, 1, 1), parse_poly("x0^100", QQ, 1)
        D = DegreeMultiset((0, 0))
        s0 = HomogeneousMatrix(QQ, 1, D, D, [[one, x], [x, x * x]])
        s1 = HomogeneousMatrix(QQ, 1, D.twist(-4), D, [[one, one], [one, one]])
        with pytest.raises(ValueError, match=r"homogeneous of degree 0: s0 entry \(0,1\): degree 100, expected 0"):
            mf.reduce(mf.MatrixFactorization(f, s0, s1))

    def test_idempotent_on_random_inputs(self):
        rng = random.Random(61)
        for _ in range(50):
            F = random_valid_mf(rng)
            R = mf.reduce(F)
            assert mf.validate(R) == []
            assert mf.is_reduced(R)
            assert mf.reduce(R) == R


class TestFermat:
    def test_single_pair(self):
        F = mf.fermat(1, 2)
        assert F.rank0 == 1
        assert F.f == fermat_poly(2)
        assert mf.validate(F) == []

    def test_two_pairs_full_pipeline(self):
        F = mf.fermat(2, 2)
        assert mf.validate(F) == []
        assert mf.is_reduced(F)
        assert F.rank0 == 2
        table = mf.betti(F)
        assert table.get(1, 0) == 2 and table.get(0, 2) == 2
        assert table.total() == 4

    def test_three_pairs_rank(self):
        assert mf.fermat(3, 2).rank0 == 4

    def test_solo_factor(self):
        F = mf.fermat(1, 2, solo=True)
        assert F.rank0 == 2
        assert F.f == parse_poly("x0^4 + x1^4 + x2^4", QI, 3)
        assert mf.validate(F) == []
        assert mf.is_reduced(F)

    def test_prime_field_with_i(self):
        F = mf.fermat(2, 1, field=GF(13))
        assert mf.validate(F) == []
        assert F.rank0 == 2

    @pytest.mark.parametrize("field", [QI, GF(13)], ids=str)
    @pytest.mark.parametrize("solo", [False, True])
    @pytest.mark.parametrize("pairs", range(1, 7))
    def test_equals_chain_of_public_tensors(self, field, solo, pairs):
        # fermat does not validate its own intermediates; the public tensor
        # validates both of its factors at every step.
        nvars = 2 * pairs + solo
        x = [Polynomial.variable(field, nvars, k) ** 2 for k in range(nvars)]
        i = field.i()
        factors = [mf.rank_one(u * u + v * v, u + v * i, u - v * i)
                   for u, v in zip(x[0:2 * pairs:2], x[1:2 * pairs:2])]
        if solo:
            factors.append(mf.rank_one(x[-1] * x[-1], x[-1], x[-1]))
        expected = factors[0]
        for G in factors[1:]:
            expected = mf.tensor(expected, G)
        expected = mf.twist(expected, min(expected.f1_degrees))
        F = mf.fermat(pairs, 2, solo=solo, field=field)
        assert F == expected
        assert mf.validate(F) == []

    def test_field_without_i_rejected(self):
        with pytest.raises(ValueError, match="square root of -1"):
            mf.fermat(1, 2, field=QQ)
        with pytest.raises(ValueError, match="square root of -1"):
            mf.fermat(1, 2, field=GF(7))  # 7 = 3 mod 4


class TestBetti:
    def test_fermat_table(self):
        table = mf.betti(mf.fermat(2, 2))
        assert table.mapping() == {(1, 0): 2, (0, 2): 2}

    def test_zero_rank_empty(self):
        assert mf.betti(mf.zero_mf(quartic())).entries == ()

    def test_totals(self):
        rng = random.Random(71)
        for _ in range(20):
            F = random_reduced_mf(rng)
            assert mf.betti(F).total() == F.rank0 + F.rank1

    def test_requires_reduced(self):
        with pytest.raises(ValueError, match="reduced"):
            mf.betti(mf.trivial_one_f(quartic()))


class TestPresentationEquivalence:
    def test_permuted_presentation(self):
        F = mf.fermat(2, 2)
        # Swap the two degree-2 generators of F0 and the two degree-0
        # generators of F1 consistently.
        s0 = tuple(tuple(F.s0.entries[r][c] for c in (1, 0)) for r in (1, 0))
        s1 = tuple(tuple(F.s1.entries[r][c] for c in (1, 0)) for r in (1, 0))
        G = mf.MatrixFactorization(
            F.f,
            HomogeneousMatrix(F.field, F.nvars, F.f0_degrees, F.f1_degrees, s0),
            HomogeneousMatrix(F.field, F.nvars, F.s1.source, F.s1.target, s1),
        )
        assert G != F
        assert mf.presentation_equivalent(F, G)
        assert mf.presentation_equivalent(G, F)

    def test_different_factorizations_not_equivalent(self):
        f = quartic()
        assert not mf.presentation_equivalent(mf.trivial_one_f(f), mf.trivial_f_one(f))


class TestConstructorsValidate:
    def test_every_constructor_output_validates(self):
        rng = random.Random(81)
        F = mf.fermat(2, 2)
        outputs = [
            mf.shift(F),
            mf.twist(F, 3),
            mf.direct_sum(F, mf.trivial_one_f(F.f)),
            mf.dual(F),
            mf.reduce(mf.direct_sum(F, mf.trivial_f_one(F.f))),
            mf.fermat(2, 1),
            mf.tensor(random_elementary(FP13, 4, 3, rng), random_elementary(FP13, 4, 3, rng)),
        ]
        for out in outputs:
            assert mf.validate(out) == []


class TestTensorWithZeroRank:
    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_rank_zero_factor_gives_rank_zero(self, side):
        F = mf.fermat(1, 2)  # f = x0^4 + x1^4
        g = parse_poly("x0^4", QI, 2)
        left = mf.zero_mf(F.f) if side in ("left", "both") else F
        right = mf.zero_mf(g) if side in ("right", "both") else mf.trivial_one_f(g)
        T = mf.tensor(left, right)
        assert T.rank0 == T.rank1 == 0
        assert T.f == left.f + right.f
        assert mf.validate(T) == []


class TestFermatRankBound:
    @pytest.mark.parametrize("pairs, solo", [(12, False), (11, True), (40, False), (10**9, True)])
    def test_rank_above_bound_rejected(self, pairs, solo):
        with pytest.raises(ValueError, match="exceeds MAX_FERMAT_RANK"):
            mf.fermat(pairs, 2, solo=solo)

    def test_rank_at_bound_is_built(self, monkeypatch):
        monkeypatch.setattr(mf, "MAX_FERMAT_RANK", 4)
        assert mf.fermat(3, 1).rank0 == 4
        assert mf.fermat(2, 1, solo=True).rank0 == 4
        for pairs, solo in ((4, False), (3, True)):
            with pytest.raises(ValueError, match="rank 2\\^3 exceeds MAX_FERMAT_RANK = 4"):
                mf.fermat(pairs, 1, solo=solo)


class TestTensorAndSumRankBound:
    def test_tensor_above_bound_fails_fast(self):
        F = mf.fermat(7, 2)  # rank 64: the tensor square has rank 8,192
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^rank 8192 exceeds MAX_FERMAT_RANK = 1024$"):
            mf.tensor(F, F)
        assert time.perf_counter() - start < 1.0

    def test_bound_on_tensor_and_direct_sum(self, monkeypatch):
        monkeypatch.setattr(mf, "MAX_FERMAT_RANK", 4)
        F = mf.fermat(2, 1)  # rank 2, f of degree 2 in 4 variables
        G = mf.trivial_one_f(parse_poly("x0*x1", QI, 4))
        assert mf.direct_sum(F, F).rank == 4
        assert mf.tensor(F, G).rank == 4  # 2*1 + 2*1
        three = mf.direct_sum(F, mf.trivial_one_f(F.f))
        with pytest.raises(ValueError, match="^rank 5 exceeds MAX_FERMAT_RANK = 4$"):
            mf.direct_sum(three, F)
        with pytest.raises(ValueError, match="^rank 6 exceeds MAX_FERMAT_RANK = 4$"):
            mf.tensor(three, G)
