import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import bott as bott_module
from mfkit.bott import (
    CohomologyVector,
    binom,
    bott,
    bott_vector,
    restricted_bott,
    rho_line_bundle,
    rho_point,
    rho_structure_sheaf,
    rho_sweep_rows,
)


def chi_sheaf_of_lines(n: int, m: int) -> int:
    # chi(O(m)) on P^n as the degree-n binomial polynomial in m; exact for
    # all integers m, including negative twists.
    num = 1
    for k in range(1, n + 1):
        num *= m + k
    return num // math.factorial(n)


def chi_twisted_differentials(n: int, p: int, l: int) -> int:
    # Independent Euler characteristic via the exterior powers of the
    # Euler sequence: chi(Omega^p(l)) = C(n+1,p)*chi(O(l-p)) - chi(Omega^(p-1)(l)).
    if p < 0 or p > n:
        return 0
    if p == 0:
        return chi_sheaf_of_lines(n, l)
    return math.comb(n + 1, p) * chi_sheaf_of_lines(n, l - p) - chi_twisted_differentials(n, p - 1, l)


class TestBinom:
    def test_extended_zero_branches(self):
        assert binom(-1, 0) == 0  # x < k
        assert binom(3, -1) == 0  # k < 0
        assert binom(2, 5) == 0
        assert binom(5, 2) == 10


class TestBott:
    def test_middle_branch(self):
        assert bott(3, 1, 1, 0) == 1

    def test_top_branch_serre_cross_check(self):
        assert bott(3, 2, 3, -2) == 6
        assert bott(3, 1, 0, 2) == 6  # Serre-dual partner h^0(Omega^1(2))

    def test_global_sections_count_monomials(self):
        value = bott(3, 0, 0, 2)
        monomials = sum(1 for _ in combinations_with_replacement(range(4), 2))
        assert value == monomials == 10

    def test_out_of_range_is_zero(self):
        assert bott(3, 4, 0, 5) == 0
        assert bott(3, 0, 4, 5) == 0
        assert bott(3, -1, 0, 0) == 0

    def test_serre_duality_sweep(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for q in range(n + 1):
                    for l in range(-12, 13):
                        assert bott(n, p, q, l) == bott(n, n - p, n - q, -l)

    def test_euler_characteristic_against_independent_oracle(self):
        for n in range(1, 5):
            for p in range(n + 1):
                for l in range(-9, 10):
                    total = sum((-1) ** q * bott(n, p, q, l) for q in range(n + 1))
                    assert total == chi_twisted_differentials(n, p, l)


class TestBottVector:
    def test_concentration_examples(self):
        assert bott_vector(3, 2, -2).entries == ((3, 6),)
        assert bott_vector(3, 1, 0).entries == ((1, 1),)
        assert bott_vector(3, 1, 1).entries == ()

    def test_at_most_one_entry(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for l in range(-12, 13):
                    assert len(bott_vector(n, p, l).entries) <= 1

    def test_vector_accessors(self):
        v = bott_vector(3, 2, -2)
        assert v.get(3) == 6 and v.get(0) == 0
        assert v.total() == 6
        assert v.euler() == -6


class TestRestrictedBott:
    def test_quartic_surface_middle(self):
        assert restricted_bott(3, 4, 2, 0).entries == ((2, 6),)

    def test_quartic_surface_structure_sheaf_piece(self):
        # O_X on the quartic surface: h^0 = h^2 = 1 (the subsheaf's H^3
        # descends to H^2 alongside the ambient H^0).
        assert restricted_bott(3, 4, 0, 0).entries == ((0, 1), (2, 1))

    def test_line_in_plane(self):
        assert restricted_bott(2, 1, 1, -1).entries == ((1, 1),)

    def test_injective_h0_case(self):
        # r = 0, large positive twist: graded piece of the coordinate ring.
        v = restricted_bott(3, 4, 0, 5)
        expected = math.comb(5 + 3, 3) - math.comb(1 + 3, 3)
        assert v.entries == ((0, expected),)

    def test_surjective_hn_case(self):
        v = restricted_bott(3, 4, 0, -9)
        alpha = bott(3, 0, 3, -13)
        beta = bott(3, 0, 3, -9)
        assert v.entries == ((2, alpha - beta),)

    def test_euler_consistency_sweep(self):
        for n in range(1, 7):
            for d in range(1, 9):
                for r in range(n + 1):
                    for t in range(-8, 9):
                        got = restricted_bott(n, d, r, t).euler()
                        want = chi_twisted_differentials(n, r, r + t) - chi_twisted_differentials(n, r, r + t - d)
                        assert got == want, (n, d, r, t)

    def test_top_degree_always_vanishes(self):
        for n in range(1, 6):
            for d in range(1, 7):
                for r in range(n + 1):
                    for t in range(-6, 7):
                        assert restricted_bott(n, d, r, t).get(n) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            restricted_bott(3, 0, 1, 0)
        with pytest.raises(ValueError):
            restricted_bott(3, 2, 5, 0)


class TestRhoStructureSheaf:
    def test_quartic_surface(self):
        assert rho_structure_sheaf(3, 4) == 16 == 2 ** 4

    def test_plane_cubic(self):
        assert rho_structure_sheaf(2, 3) == 8

    def test_quintic_threefold_ambient(self):
        assert rho_structure_sheaf(3, 5) == 50

    def test_matches_restricted_sum(self):
        for n in range(1, 7):
            for d in range(n + 1, 10):
                total = sum(restricted_bott(n, d, r, 0).total() for r in range(n + 1))
                assert rho_structure_sheaf(n, d) == total

    def test_calabi_yau_gives_power_of_two(self):
        for n in range(1, 9):
            assert rho_structure_sheaf(n, n + 1) == 2 ** (n + 1)

    def test_fano_rejected(self):
        with pytest.raises(ValueError, match="a = n\\+1-d <= 0"):
            rho_structure_sheaf(3, 2)


def reference_rho_structure_sheaf(n: int, d: int) -> int:
    # The binomial sum rho_structure_sheaf evaluated before the
    # alternating form; kept as the reference for both fast paths.
    return 1 + sum(binom(d, d - r) * binom(d - r - 1, n - r) for r in range(n + 1))


def head_rho_structure_sheaf(n: int, d: int) -> int:
    # The alternating sum over its n + 1 head terms, as rho_structure_sheaf
    # evaluated it before it chose the shorter side; kept as the reference
    # for the tail.
    s, c = 0, 1
    for k in range(n + 1):
        s = (c << k) - s
        c = c * (d - k) // (k + 1)
    return s + 1


class TestRhoStructureSheafFastPaths:
    """The alternating sum and the row recurrence against the binomial
    sum and the head-only sum.  Agreement with the restricted Bott
    formula is checked by TestRhoStructureSheaf.test_matches_restricted_sum
    and TestRhoLineBundle.test_agrees_with_structure_sheaf."""

    def test_closed_form_matches_reference_sum(self):
        # Every cell with d <= 120: both sides, the switch near 2n = d, and
        # n = d - 1 and d - 2.
        for d in range(2, 121):
            for n in range(1, d):
                assert rho_structure_sheaf(n, d) == head_rho_structure_sheaf(n, d) \
                    == reference_rho_structure_sheaf(n, d), (n, d)

    @given(st.integers(2, 600).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))))
    def test_matches_both_references(self, cell):
        n, d = cell
        assert rho_structure_sheaf(n, d) == head_rho_structure_sheaf(n, d) \
            == reference_rho_structure_sheaf(n, d)

    @pytest.mark.parametrize("n, d, steps", [
        (1, 2, 1), (1, 3, 2), (2, 4, 2), (3, 5, 2), (50, 100, 51), (51, 100, 52), (52, 100, 48),
        (98, 100, 2), (32999, 64000, 33000), (33000, 64000, 31000), (63999, 64000, 1),
    ])
    def test_runs_the_shorter_side(self, monkeypatch, n, d, steps):
        # The head's n + 1 steps while 2n < d + d/32, else the tail's d - n;
        # the loop is recorded, not run.
        lengths = []

        def recording(*args):
            lengths.append(len(range(*args)))
            return ()

        monkeypatch.setattr(bott_module, "range", recording, raising=False)
        rho_structure_sheaf(n, d)
        assert lengths == [steps]

    @pytest.mark.parametrize("n_max, d_max", [
        (60, 120), (0, 10), (-2, 5), (5, 2), (5, 1), (5, -3), (3, 3), (10, 6), (1, 2),
    ])
    def test_rows_match_single_cells(self, n_max, d_max):
        expected = [
            (n, d, rho_structure_sheaf(n, d))
            for n in range(1, n_max + 1)
            for d in range(n + 1, d_max + 1)
        ]
        assert [(n, d, rho) for n, rhos in rho_sweep_rows(n_max, d_max)
                for d, rho in enumerate(rhos, n + 1)] == expected


class TestRhoPoint:
    def test_values(self):
        assert rho_point(2) == 4
        assert rho_point(3) == 8
        assert rho_point(1) == 2

    def test_power_of_two(self):
        for n in range(1, 11):
            assert rho_point(n) == 2 ** n

    def test_matches_binomial_sum(self):
        # The sum over r of the ranks C(n, r) of Omega^r, term by term.
        for n in list(range(1, 65)) + [500, 1000]:
            assert rho_point(n) == sum(math.comb(n, r) for r in range(n + 1))

    def test_large_n(self):
        # The binomial sum at n = 14400 takes tens of seconds; modulo the
        # prime p = 2^61 - 1 > n its terms follow from
        # C(n, r + 1) = C(n, r) * (n - r) / (r + 1).
        n, p = 14400, 2**61 - 1
        value = rho_point(n)
        assert value == 2**n and value.bit_length() == n + 1
        term, total = 1, 1
        for r in range(n):
            term = term * (n - r) % p * pow(r + 1, -1, p) % p
            total += term
        assert value % p == total % p

    def test_at_and_past_the_power_bound(self):
        bits = bott_module.MAX_POWER_BITS
        assert bits == 2**26
        assert rho_point(bits) == 1 << bits
        for n in (bits + 1, 10**11, 10**40 - 1):
            with pytest.raises(ValueError, match=f"^n = {n} exceeds MAX_POWER_BITS = {bits}$"):
                rho_point(n)


class TestRhoLineBundle:
    def test_fano_counterexamples(self):
        assert rho_line_bundle(2, 1, -1) == 2
        assert rho_line_bundle(2, 1, 0) == 2
        assert rho_line_bundle(2, 2, 0) == 2

    def test_agrees_with_structure_sheaf(self):
        assert rho_line_bundle(3, 4, 0) == 16 == rho_structure_sheaf(3, 4)
        for n in range(1, 6):
            for d in range(n + 1, 9):
                assert rho_line_bundle(n, d, 0) == rho_structure_sheaf(n, d)


# -- dense reference ---------------------------------------------------------


def dense_bott_vector(n: int, p: int, l: int) -> CohomologyVector:
    # Every degree q in [0, n] through bott(), as the vector was formed
    # before it was computed from its one entry.
    return CohomologyVector.from_mapping(n, {q: reference_bott(n, p, q, l) for q in range(n + 1)})


def reference_bott(n: int, p: int, q: int, l: int) -> int:
    # Bott's formula branch by branch, as in the module docstring.
    if n < 0 or not (0 <= p <= n and 0 <= q <= n):
        return 0
    if q == 0 and l > p:
        return binom(l + n - p, l) * binom(l - 1, p)
    if l == 0 and q == p:
        return 1
    if q == n and l < p - n:
        return binom(p - l, -l) * binom(-l - 1, n - p)
    return 0


def dense_restricted_bott(n: int, d: int, r: int, t: int) -> CohomologyVector:
    # The long exact sequence read over every degree q in [0, n].
    sub = dense_bott_vector(n, r, r + t - d)
    amb = dense_bott_vector(n, r, r + t)
    sub_deg, amb_deg = sub.nonzero_degrees(), amb.nonzero_degrees()
    if sub_deg and amb_deg and sub_deg == amb_deg:
        q = sub_deg[0]
        alpha, beta = sub.get(q), amb.get(q)
        if q == 0:
            assert beta >= alpha
            return CohomologyVector.from_mapping(n, {0: beta - alpha})
        assert q == n and alpha >= beta
        return CohomologyVector.from_mapping(n, {n - 1: alpha - beta})
    assert sub.get(0) == 0
    return CohomologyVector.from_mapping(n, {q: amb.get(q) + sub.get(q + 1) for q in range(n + 1)})


TWISTS = range(-15, 16)


class TestOneEntryMatchesDense:
    def test_bott_and_vector(self):
        for n in range(-1, 9):
            for p in range(-1, n + 2):
                for l in TWISTS:
                    vector = bott_vector(n, p, l)
                    assert vector == dense_bott_vector(n, p, l), (n, p, l)
                    for q in range(-1, n + 2):
                        assert bott(n, p, q, l) == reference_bott(n, p, q, l), (n, p, q, l)

    def test_restricted(self):
        for n in range(1, 9):
            for r in range(n + 1):
                for d in range(1, 11):
                    for t in TWISTS:
                        assert restricted_bott(n, d, r, t) == dense_restricted_bott(n, d, r, t), \
                            (n, d, r, t)

    def test_line_bundle_sum(self):
        for n, d, j in [(1, 1, -3), (3, 4, 0), (4, 2, 5), (6, 9, -7), (8, 10, 15)]:
            expected = sum(dense_restricted_bott(n, d, r, j).total() for r in range(n + 1))
            assert rho_line_bundle(n, d, j) == expected
