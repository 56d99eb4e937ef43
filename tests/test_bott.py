import math
from itertools import combinations_with_replacement

import pytest

from mfkit.bott import (
    CohomologyVector,
    binom,
    bott,
    bott_vector,
    restricted_bott,
    rho_line_bundle,
    rho_point,
    rho_structure_sheaf,
    rho_structure_sheaf_rows,
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


class TestRhoStructureSheafFastPaths:
    """The alternating sum and the row recurrence against the binomial
    sum.  Agreement with the restricted Bott formula is checked by
    TestRhoStructureSheaf.test_matches_restricted_sum and
    TestRhoLineBundle.test_agrees_with_structure_sheaf."""

    def test_closed_form_matches_reference_sum(self):
        for n in range(1, 40):
            for d in range(n + 1, 90):
                assert rho_structure_sheaf(n, d) == reference_rho_structure_sheaf(n, d)

    @pytest.mark.parametrize("n_max, d_max", [
        (60, 120), (0, 10), (-2, 5), (5, 2), (5, 1), (5, -3), (3, 3), (10, 6), (1, 2),
    ])
    def test_rows_match_single_cells(self, n_max, d_max):
        expected = [
            (n, d, rho_structure_sheaf(n, d))
            for n in range(1, n_max + 1)
            for d in range(n + 1, d_max + 1)
        ]
        assert list(rho_structure_sheaf_rows(n_max, d_max)) == expected


class TestRhoPoint:
    def test_values(self):
        assert rho_point(2) == 4
        assert rho_point(3) == 8
        assert rho_point(1) == 2

    def test_power_of_two(self):
        for n in range(1, 11):
            assert rho_point(n) == 2 ** n


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
