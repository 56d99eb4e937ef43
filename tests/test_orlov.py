import math
import random
import time
from collections import Counter

import pytest

from mfkit import mf
from mfkit.algebra import GF, QI, QQ
from mfkit.bott import MAX_POWER_BITS, CohomologyVector
from mfkit.graded import DegreeMultiset
from mfkit.mf import BettiTable
from mfkit.orlov import (
    MAX_SHAMASH_RANK,
    CohomologyTable,
    HypersurfaceContext,
    Phi0Descriptor,
    betti_to_table,
    check_bgs,
    check_rho,
    dual_table,
    euclid_split,
    phi0_residue,
    rho_of_mf,
    rho_of_table,
    shamash_counts,
    shamash_degrees,
    table_to_betti,
)

from _factories import mix_bases, partly_reducible, random_elementary, random_reduced_mf

CTX34 = HypersurfaceContext(3, 4)


def random_context(rng, n_max=6, d_extra=4):
    n = rng.randint(1, n_max)
    d = rng.randint(n + 1, n + 1 + d_extra)  # a <= 0
    return HypersurfaceContext(n, d)


def random_betti(rng, size=6):
    counts = {}
    for _ in range(rng.randint(0, size)):
        key = (rng.randint(0, 1), rng.randint(-10, 10))
        counts[key] = counts.get(key, 0) + rng.randint(1, 5)
    return BettiTable.from_mapping(counts)


def random_table(ctx, rng, size=6):
    counts = {}
    for _ in range(rng.randint(0, size)):
        key = (rng.randint(0, ctx.n), rng.randint(-2, ctx.n + 2))
        counts[key] = counts.get(key, 0) + rng.randint(1, 5)
    return CohomologyTable.from_mapping(ctx.n, counts)


class TestContext:
    def test_derived_quantities(self):
        assert (CTX34.a, CTX34.e) == (0, 1)
        ctx = HypersurfaceContext(4, 7)
        assert (ctx.a, ctx.e) == (-2, 2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            HypersurfaceContext(0, 3)
        with pytest.raises(ValueError):
            HypersurfaceContext(3, 0)


class TestEuclidSplit:
    def test_examples(self):
        assert euclid_split(CTX34, 0) == (0, 0)
        assert euclid_split(CTX34, 2) == (0, 2)
        assert euclid_split(CTX34, 6) == (-1, 2)

    def test_defining_property(self):
        rng = random.Random(3)
        for _ in range(300):
            ctx = random_context(rng)
            j = rng.randint(-30, 30)
            q, r = euclid_split(ctx, j)
            assert ctx.a - j == q * ctx.d - r
            assert 0 <= r < ctx.d


class TestTranslate:
    def test_empty(self):
        assert betti_to_table(CTX34, BettiTable.from_mapping({})).entries == ()

    def test_degree_zero_generators(self):
        table = betti_to_table(CTX34, BettiTable.from_mapping({(1, 0): 2}))
        assert table.entries == (((0, 0), 2),)
        assert table.out_of_support() == ()

    def test_out_of_support_flagged(self):
        table = betti_to_table(CTX34, BettiTable.from_mapping({(0, 2): 2}))
        assert table.entries == (((2, 3), 2),)
        assert table.out_of_support() == ((2, 3),)

    def test_total_preserved(self):
        rng = random.Random(13)
        for _ in range(100):
            ctx = random_context(rng)
            betti = random_betti(rng)
            assert betti_to_table(ctx, betti).total() == betti.total()

    def test_fano_rejected(self):
        with pytest.raises(ValueError, match="Fano"):
            betti_to_table(HypersurfaceContext(3, 2), BettiTable.from_mapping({}))


class TestInvert:
    def test_example(self):
        table = CohomologyTable.from_mapping(3, {(0, 0): 2})
        assert table_to_betti(CTX34, table).mapping() == {(1, 0): 2}

    def test_empty(self):
        assert table_to_betti(CTX34, CohomologyTable.from_mapping(3, {})).entries == ()

    def test_roundtrips_both_ways(self):
        rng = random.Random(17)
        for _ in range(100):
            ctx = random_context(rng)
            betti = random_betti(rng)
            assert table_to_betti(ctx, betti_to_table(ctx, betti)) == betti
            table = random_table(ctx, rng)
            assert betti_to_table(ctx, table_to_betti(ctx, table)) == table

    def test_out_of_range_p_rejected(self):
        table = CohomologyTable.from_mapping(3, {(-2, 0): 1})
        with pytest.raises(ValueError, match="outside"):
            table_to_betti(HypersurfaceContext(3, 4), table)


class TestRho:
    def test_fermat_pipeline(self):
        F = mf.fermat(2, 2)
        assert rho_of_mf(F) == 4 == 2 ** (CTX34.e + 1)
        table = betti_to_table(CTX34, mf.betti(F))
        assert rho_of_table(table) == 4

    def test_zero_rank(self):
        from mfkit.algebra import QQ, parse_poly
        assert rho_of_mf(mf.zero_mf(parse_poly("x0^4", QQ, 1))) == 0

    def test_reduction_before_counting(self):
        F = mf.fermat(2, 2)
        padded = mf.direct_sum(mf.trivial_one_f(F.f), F)
        assert rho_of_mf(mf.reduce(padded)) == 4

    def test_non_reduced_rejected(self):
        F = mf.fermat(2, 2)
        padded = mf.direct_sum(F, mf.trivial_one_f(F.f))
        with pytest.raises(ValueError, match="reduced"):
            rho_of_mf(padded)

    def test_translated_total_is_double_rank(self):
        rng = random.Random(19)
        for _ in range(30):
            F = random_reduced_mf(rng, nvars=4, d=4)
            table = betti_to_table(CTX34, mf.betti(F))
            assert table.total() == 2 * F.rank0 == rho_of_mf(F)


class TestDualTable:
    def test_example(self):
        table = CohomologyTable.from_mapping(3, {(0, 0): 2})
        assert dual_table(CTX34, table).entries == (((3, 2), 2),)

    def test_involution_and_total(self):
        rng = random.Random(23)
        for _ in range(100):
            ctx = random_context(rng)
            counts = {}
            for _ in range(rng.randint(0, 6)):
                key = (rng.randint(0, ctx.n), rng.randint(0, ctx.n - 1))
                counts[key] = counts.get(key, 0) + rng.randint(1, 5)
            table = CohomologyTable.from_mapping(ctx.n, counts)
            dualized = dual_table(ctx, table)
            assert dual_table(ctx, dualized) == table
            assert dualized.total() == table.total()

    def test_out_of_support_rejected(self):
        table = CohomologyTable.from_mapping(3, {(2, 3): 2})
        with pytest.raises(ValueError, match="out-of-support"):
            dual_table(CTX34, table)

    def test_table_of_another_n_rejected(self):
        # Both entries lie in the support for n = 5; read with n = 3, the
        # involution would send (5, 4) to (-2, -2) and table_to_betti
        # would accept (1, 0).
        for entry in ((5, 4), (1, 0)):
            table = CohomologyTable.from_mapping(5, {entry: 1})
            assert table.out_of_support() == ()
            for operation in (dual_table, table_to_betti):
                with pytest.raises(ValueError, match=r"^table has n = 5, but the context has n = 3$"):
                    operation(CTX34, table)


class TestPhi0:
    def test_structure_sheaf_window(self):
        assert phi0_residue(CTX34, 0) == Phi0Descriptor(0, 0, 2)

    def test_interior_twist(self):
        assert phi0_residue(CTX34, -2) == Phi0Descriptor(2, -2, 0)

    def test_zero_case(self):
        assert phi0_residue(HypersurfaceContext(3, 5), 0) is None

    def test_zero_iff_window_exceeds_a(self):
        rng = random.Random(29)
        for _ in range(300):
            ctx = random_context(rng)
            l = rng.randint(-30, 30)
            normalized = -((-l) % ctx.d)
            assert (phi0_residue(ctx, l) is None) == (normalized > ctx.a)

    def test_period_two_shift(self):
        rng = random.Random(31)
        for _ in range(300):
            ctx = random_context(rng)
            l = rng.randint(-30, 30)
            base = phi0_residue(ctx, l)
            stepped = phi0_residue(ctx, l + ctx.d)
            if base is None:
                assert stepped is None
            else:
                assert stepped == Phi0Descriptor(base.exterior_power, base.twist, base.shift + 2)

    def test_fano_rejected(self):
        with pytest.raises(ValueError, match="Fano"):
            phi0_residue(HypersurfaceContext(2, 2), 0)


class TestShamash:
    def test_first_terms(self):
        assert shamash_degrees(3, 4, 0) == DegreeMultiset((0,))
        assert shamash_degrees(3, 4, -1) == DegreeMultiset((1, 1, 1, 1))
        assert shamash_degrees(3, 4, -2) == DegreeMultiset.from_iterable([2] * 6 + [4])
        assert shamash_degrees(3, 4, -3) == DegreeMultiset.from_iterable([3] * 4 + [5] * 4)

    def test_bounded_loop_matches_full_scan(self):
        def full_scan(n, d, m):
            degrees, j = [], 0
            while -m - 2 * j >= 0:
                s = -m - 2 * j
                if s <= n + 1:
                    degrees.extend([s + j * d] * math.comb(n + 1, s))
                j += 1
            return DegreeMultiset.from_iterable(degrees)

        for n in range(1, 7):
            for d in range(1, 7):
                for m in range(0, -41, -1):
                    assert shamash_degrees(n, d, m) == full_scan(n, d, m)

    def test_counts_match_the_degree_list(self):
        # d = 1 reverses the order of the degrees in j, d = 2 merges them.
        for n in range(1, 6):
            for d in range(1, 6):
                for m in range(0, -13, -1):
                    degrees = shamash_degrees(n, d, m).degrees
                    assert shamash_counts(n, d, m) == sorted(Counter(degrees).items())

    def test_huge_negative_index_is_fast(self):
        start = time.perf_counter()
        degrees = shamash_degrees(3, 4, -10**9)
        assert time.perf_counter() - start < 0.1
        assert len(degrees) == 8  # C(4, 0) + C(4, 2) + C(4, 4): s = 0, 2, 4

    def test_rank_totals(self):
        import math
        for n in range(1, 7):
            for d in range(1, 9):
                for m in range(0, -7, -1):
                    expected = sum(
                        math.comb(n + 1, -m - 2 * j)
                        for j in range(0, (-m) // 2 + 1)
                        if 0 <= -m - 2 * j <= n + 1
                    )
                    assert len(shamash_degrees(n, d, m)) == expected

    def test_positive_degree_rejected(self):
        with pytest.raises(ValueError):
            shamash_degrees(3, 4, 1)

    def test_rank_at_the_bound(self):
        # C(24, 11 - 2j) generators in degree 11 + 2j for j = 0..5.
        degrees = shamash_degrees(23, 4, -11)
        assert len(degrees) == MAX_SHAMASH_RANK == 2**22
        assert Counter(degrees.degrees) == {11 + 2 * j: math.comb(24, 11 - 2 * j)
                                            for j in range(6)}

    def test_rank_past_the_bound_lists_no_degree(self, monkeypatch):
        def unreachable(degrees):
            raise AssertionError("a term past the bound lists its degrees")

        monkeypatch.setattr(DegreeMultiset, "from_iterable", unreachable)
        for n, m, rank in ((23, -12, 5546382), (30, -15, 614429672)):
            with pytest.raises(ValueError, match=f"has rank {rank}, above MAX_SHAMASH_RANK"):
                shamash_degrees(n, 4, m)

    def test_rank_guard_agrees_with_the_exact_sum(self):
        # Around n = 2,896, where C(n+1, 2) first passes the bound, a term is
        # refused exactly when its summed rank passes it.
        refused = 0
        for n in range(2890, 2911):
            for m in range(0, -13, -1):
                rank = sum(math.comb(n + 1, -m - 2 * j) for j in range(-m // 2 + 1)
                           if -m - 2 * j <= n + 1)
                if rank <= MAX_SHAMASH_RANK:
                    assert sum(count for _, count in shamash_counts(n, 4, m)) == rank
                else:
                    refused += 1
                    with pytest.raises(ValueError, match="above MAX_SHAMASH_RANK"):
                        shamash_counts(n, 4, m)
        assert refused > 0

    def test_rank_guard_at_the_bound(self):
        # C(2896, 2) = 4,191,960 generators in degree 2 and one in degree d.
        assert shamash_counts(2895, 4, -2) == [(2, 4191960), (4, 1)]
        with pytest.raises(ValueError, match=r"^Shamash term -2 has rank at least 4194856, "
                                             r"above MAX_SHAMASH_RANK = 4194304$"):
            shamash_counts(2896, 4, -2)
        assert shamash_counts(MAX_SHAMASH_RANK - 1, 4, -1) == [(1, MAX_SHAMASH_RANK)]
        with pytest.raises(ValueError, match="has rank 4194305, above MAX_SHAMASH_RANK"):
            shamash_counts(MAX_SHAMASH_RANK, 4, -1)

    def test_rank_guard_sums_no_binomial(self, monkeypatch):
        # Only the guard's C(n+1, 2) is taken; the 10,001 terms are not summed.
        from mfkit import orlov

        def guard_only(x, k):
            assert k == 2, "a term past the bound was summed"
            return math.comb(x, k)

        monkeypatch.setattr(orlov, "binom", guard_only)
        with pytest.raises(ValueError, match="has rank at least 200010000"):
            shamash_counts(20000, 4, -20000)


class TestCheckBgs:
    def test_fermat_at_equality(self):
        verdict = check_bgs(CTX34, mf.fermat(2, 2))
        assert verdict.passed and verdict.applicable
        assert verdict.value == verdict.bound == 2

    def test_trivial_marked_inapplicable(self):
        F = mf.fermat(2, 2)
        verdict = check_bgs(CTX34, mf.trivial_one_f(F.f))
        assert verdict.trivial and not verdict.applicable

    def test_would_be_counterexample(self):
        rng = random.Random(37)
        F = random_reduced_mf(rng, nvars=5, d=5)
        while F.rank0 != 1:
            F = random_reduced_mf(rng, nvars=5, d=5)
        verdict = check_bgs(HypersurfaceContext(4, 5), F)
        assert not verdict.passed
        assert verdict.value == 1 and verdict.bound == 4

    def test_hypotheses_recorded(self):
        verdict = check_bgs(CTX34, mf.fermat(2, 2))
        assert any("irreducible" in note for note in verdict.notes)
        assert any("smooth" in note for note in verdict.notes)

    @pytest.mark.parametrize("field", [QQ, QI, GF(13)], ids=["QQ", "QQ(i)", "GF(13)"])
    def test_trivial_matches_reduce(self, monkeypatch, field):
        # check_bgs reduces only where mf.may_reduce_to_zero allows rank 0;
        # its verdict must be that of reducing every input.
        reduce = mf.reduce
        reduce_calls = []
        monkeypatch.setattr(mf, "reduce", lambda F: reduce_calls.append(F) or reduce(F))
        cases = []
        for seed in range(6):
            rng = random.Random(f"bgs-{field}-{seed}")
            cases.append(partly_reducible(field, rng.choice([4, 8]), rng))
            # Fully trivial: summands (1, f) and (f, 1), twisted, then
            # mixed, and their sum with a reduced rank-one factor of f, mixed.
            factor = random_elementary(field, 3, rng.choice([2, 3]), rng)
            summands = [mf.twist(rng.choice([mf.trivial_one_f, mf.trivial_f_one])(factor.f),
                                 rng.randint(-1, 1)) for _ in range(rng.randint(2, 5))]
            trivial = summands[0]
            for summand in summands[1:]:
                trivial = mf.direct_sum(trivial, summand)
            mixed = mix_bases(trivial, rng, rng.randint(1, 2 * trivial.rank0))
            cases += [trivial, mixed,
                      mix_bases(mf.direct_sum(trivial, factor), rng, 4 * trivial.rank0)]
        outcomes = set()
        for F in cases:
            reduce_calls.clear()
            expected = reduce(F)
            may = mf.may_reduce_to_zero(F)
            assert may or expected.rank0 > 0
            verdict = check_bgs(HypersurfaceContext(2, F.d), F)
            assert verdict.trivial == (expected.rank0 == 0) == (not verdict.applicable)
            assert len(reduce_calls) == may
            outcomes.add((bool(reduce_calls), verdict.trivial))
        # Skipped, reduced to rank 0, and reduced to a nonzero rank.
        assert outcomes == {(False, False), (True, True), (True, False)}


class TestCheckRho:
    def test_pass_at_equality(self):
        verdict = check_rho(CTX34, 4)
        assert verdict.passed and verdict.value == verdict.bound == 4

    def test_point_sheaf_on_cubic(self):
        from mfkit.bott import rho_point
        verdict = check_rho(HypersurfaceContext(2, 3), rho_point(2))
        assert verdict.passed

    def test_fano_rejected(self):
        with pytest.raises(ValueError, match="a = n\\+1-d <= 0"):
            check_rho(HypersurfaceContext(2, 2), 2)

    def test_bound_is_two_to_the_e_plus_one(self):
        rng = random.Random(83)
        for e in [0, 1, 2, 10**4] + [rng.randint(0, 10**4) for _ in range(50)]:
            n = 2 * e + rng.randint(0, 1) or 1
            assert check_rho(HypersurfaceContext(n, n + 1), 1).bound == 2 ** (e + 1)

    def test_at_and_past_the_power_bound(self):
        # e + 1 = MAX_POWER_BITS at n = 2^27 - 1, and one more at n = 2^27.
        verdict = check_rho(HypersurfaceContext(2**27 - 1, 2**27), 1)
        assert verdict.bound == 1 << MAX_POWER_BITS and not verdict.passed
        for n in (2**27, 10**11):
            with pytest.raises(ValueError, match=f"^e \\+ 1 = {n // 2 + 1} exceeds "
                                                 f"MAX_POWER_BITS = {MAX_POWER_BITS}$"):
                check_rho(HypersurfaceContext(n, n + 1), 1)


class TestCountTables:
    """The three count tables share one container: summed, sorted,
    zero-free entries, positional lookup, a total and a text form."""

    def test_str(self):
        assert str(BettiTable.from_mapping({(1, 0): 2, (0, 2): 2})) == "b[0][2]=2, b[1][0]=2"
        assert str(BettiTable(())) == "(empty)"
        table = CohomologyTable.from_mapping(3, {(2, 3): 2, (0, 0): 1})
        assert str(table) == "T[0][0]=1, T[2][3]=2"
        assert str(CohomologyTable(3, ())) == "(empty)"
        assert str(CohomologyVector.from_mapping(3, {2: 1, 0: 4})) == "h^0=4, h^2=1"
        assert str(CohomologyVector(2, ())) == "0"

    def test_get_total_and_zero_counts(self):
        betti = BettiTable.from_mapping({(0, 2): 3, (1, 0): 0, (1, 1): 1})
        assert betti.entries == (((0, 2), 3), ((1, 1), 1))
        assert (betti.get(0, 2), betti.get(1, 0), betti.total()) == (3, 0, 4)
        table = CohomologyTable.from_mapping(3, {(1, 1): 5, (0, 0): 0})
        assert (table.get(1, 1), table.get(0, 0), table.total()) == (5, 0, 5)
        vector = CohomologyVector.from_mapping(3, {3: 6, 1: 0})
        assert (vector.get(3), vector.get(1), vector.total()) == (6, 0, 6)

    def test_from_mapping_is_from_pairs(self):
        for cls, fields, counts in (
                (BettiTable, (), {(1, 0): 2, (0, 2): 0, (0, -1): 3}),
                (CohomologyTable, (3,), {(2, 3): 2, (-1, 0): 1, (0, 0): 0}),
                (CohomologyVector, (3,), {3: 6, 0: 2, 1: 0}),
                (CohomologyVector, (2,), {})):
            table = cls.from_mapping(*fields, counts)
            assert type(table) is cls
            assert table == cls.from_pairs(counts.items(), *fields)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"^negative count -1 at \(0, 1\)$"):
            BettiTable.from_mapping({(0, 1): -1})
        with pytest.raises(ValueError, match=r"^negative count -2 at \(1, 0\)$"):
            CohomologyTable.from_mapping(3, {(1, 0): -2})
        with pytest.raises(ValueError, match=r"^negative count -3 at 1$"):
            CohomologyVector.from_mapping(3, {1: -3})
