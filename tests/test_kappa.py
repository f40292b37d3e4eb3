from __future__ import annotations

import importlib

import pytest

from sparsegroup import (
    InvalidParameters,
    Leap,
    LimitExceeded,
    NumericalSemigroup,
    classify,
    example_family,
    frobenius_identity_check,
    is_kappa_sparse,
    is_kappa_sparse_gapdiff,
    is_kappa_sparse_nongap,
    is_kappa_sparse_profile,
    is_kappa_sparse_run,
    is_pure_kappa_sparse,
    leap_profile,
    leap_set,
    ordinary,
    sparseness_index,
    sparseness_report,
)


from oracle import first_member_run


def gs(*gaps: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_gaps(gaps)


ALL_FOUR = (
    is_kappa_sparse_profile,
    is_kappa_sparse_gapdiff,
    is_kappa_sparse_nongap,
    is_kappa_sparse_run,
)


class TestDecisionProcedures:
    @pytest.mark.parametrize("kappa", [2, 3, 7])
    def test_naturals_in_every_class(self, kappa):
        for procedure in ALL_FOUR:
            assert procedure(gs(), kappa)

    @pytest.mark.parametrize("kappa, expected", [(4, True), (3, False)])
    def test_big_jump_semigroup(self, kappa, expected):
        for procedure in ALL_FOUR:
            assert procedure(gs(1, 2, 3, 7), kappa) == expected

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_ordinary_is_two_sparse(self, g):
        for procedure in ALL_FOUR:
            assert procedure(ordinary(g), 2)

    def test_profile_and_gapdiff_accept_kappa_one(self):
        assert is_kappa_sparse_profile(gs(), 1)
        assert is_kappa_sparse_gapdiff(gs(), 1)
        assert not is_kappa_sparse_gapdiff(gs(1), 1)

    @pytest.mark.parametrize("procedure", [is_kappa_sparse_nongap, is_kappa_sparse_run])
    def test_spacing_forms_need_kappa_two(self, procedure):
        with pytest.raises(ValueError):
            procedure(gs(1), 1)

    @pytest.mark.parametrize(
        "procedure, minimum",
        [
            (is_kappa_sparse_profile, 1),
            (is_kappa_sparse_gapdiff, 1),
            (is_kappa_sparse, 1),
            (is_kappa_sparse_nongap, 2),
            (is_kappa_sparse_run, 2),
            (is_pure_kappa_sparse, 1),
            (frobenius_identity_check, 2),
        ],
    )
    @pytest.mark.parametrize("below", [True, 2.0, "minimum - 1"])
    def test_every_decider_refuses_kappa_with_one_text(self, procedure, minimum, below):
        kappa = minimum - 1 if below == "minimum - 1" else below
        with pytest.raises(ValueError) as refused:
            procedure(gs(1, 2, 3, 7), kappa)
        assert str(refused.value) == f"kappa must be an integer >= {minimum}, got {kappa!r}"

    def test_member_spacing_at_and_past_its_last_window(self, level):
        """With span = conductor - genus, kappa = span + 1 leaves one window, 0 to the conductor.

        From span + 2 on there is no window of kappa members below the conductor, so the
        answer is vacuously True, as the gap-spacing form agrees.
        """
        for g in range(1, 7):
            for node in level(g):
                span = node.conductor - g
                for kappa in range(max(span - 1, 2), span + 4):
                    verdict = is_kappa_sparse_nongap(node, kappa)
                    assert verdict == is_kappa_sparse_gapdiff(node, kappa), (node.gaps, kappa)
                    assert verdict or kappa <= span
                assert is_kappa_sparse_nongap(node, 10**9)
        assert is_kappa_sparse_nongap(gs(), 2)  # span 0: no window at all

    @pytest.mark.parametrize(
        "semigroup, kappa",
        [
            # members 10^4 .. 19998: one run of 9999 ending just below c = 2 * 10^4
            (example_family(10**4, 10**4), 10**4 - 1),
            (example_family(10**4, 10**4), 10**4),
            (example_family(10**4, 10**4), 10**4 + 1),
            # runs of one member only: <2, 20001>
            (NumericalSemigroup(tuple(range(1, 2 * 10**4, 2))), 10**4),
            # a run of 2^13 - 1 members: kappa all ones in binary, then a power of two
            (example_family(10**4, 2**13), 2**13 - 1),
            (example_family(10**4, 2**13), 2**13),
        ],
    )
    def test_member_run_at_half_the_conductor(self, semigroup, kappa):
        expected = first_member_run(semigroup.gaps, kappa) is None
        assert is_kappa_sparse_run(semigroup, kappa) == expected

    def test_member_run_is_true_from_the_conductor_on(self, level):
        """No kappa members fit below the conductor c once kappa >= c, at genus 0 (c = 0) too."""
        for kappa in range(2, 6):
            assert is_kappa_sparse_run(gs(), kappa)
        for g in range(1, 7):
            for node in level(g):
                for kappa in range(node.conductor, node.conductor + 3):
                    assert is_kappa_sparse_run(node, kappa), (node.gaps, kappa)

    def test_member_run_with_a_huge_kappa_builds_no_pattern(self):
        """kappa = 10^12 exceeds the conductor 999998, so no pattern of kappa ones is built."""
        assert is_kappa_sparse_run(NumericalSemigroup.from_generators((2, 999_999)), 10**12)

    def test_member_run_at_conductor_one_million(self):
        """Members 500000 .. 500005 are the one run below c = 10^6: six members long."""
        semigroup = example_family(500_000, 7)
        assert semigroup.conductor == 10**6
        assert not is_kappa_sparse_run(semigroup, 6)
        assert is_kappa_sparse_run(semigroup, 7)

    def test_four_way_agreement_exhaustive(self, level):
        for g in range(9):
            for node in level(g):
                for kappa in range(2, g + 3):
                    results = {procedure(node, kappa) for procedure in ALL_FOUR}
                    assert len(results) == 1


class TestPure:
    def test_sparse_with_positive_genus_is_pure_two(self):
        assert is_pure_kappa_sparse(gs(1, 3, 5), 2)

    def test_two_block_example_is_pure_three(self):
        assert is_pure_kappa_sparse(gs(1, 2, 3, 4, 7, 8, 9), 3)

    def test_naturals_is_not_pure_two(self):
        assert not is_pure_kappa_sparse(gs(), 2)

    def test_kappa_one_convention(self):
        assert is_pure_kappa_sparse(gs(), 1)
        assert not is_pure_kappa_sparse(gs(1), 1)

    def test_pure_exactly_at_the_index(self, level):
        for g in range(8):
            for node in level(g):
                index = sparseness_index(node)
                for kappa in range(1, g + 3):
                    assert is_pure_kappa_sparse(node, kappa) == (kappa == index)


def test_class_and_purity_queries_match_their_definitions_to_genus_ten(level):
    """Both queries against the gap tuple: every consecutive-gap difference, from the sentinel -1.

    The class holds when the largest difference is at most kappa; the pure class when,
    in addition, some difference is exactly kappa, or at kappa = 1 when there is no gap.
    """
    for g in range(11):
        for node in level(g):
            gaps = node.gaps
            jumps = [hi - lo for lo, hi in zip((-1,) + gaps, gaps)]
            for kappa in range(1, g + 4):
                sparse = max(jumps, default=0) <= kappa
                pure = sparse and (kappa in jumps if gaps else kappa == 1)
                assert is_kappa_sparse(node, kappa) == sparse, (gaps, kappa)
                assert is_pure_kappa_sparse(node, kappa) == pure, (gaps, kappa)


class TestSparsenessIndex:
    def test_naturals(self):
        assert sparseness_index(gs()) == 1

    def test_big_jump(self):
        assert sparseness_index(gs(1, 2, 3, 7)) == 4

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_ordinary(self, g):
        assert sparseness_index(ordinary(g)) == 2

    def test_matches_upward_search(self, level):
        for g in range(8):
            for node in level(g):
                kappa = 1
                while not is_kappa_sparse(node, kappa):
                    kappa += 1
                assert sparseness_index(node) == kappa


class TestExampleFamily:
    def test_a5_kappa3(self):
        family = example_family(5, 3)
        assert family.gaps == (1, 2, 3, 4, 7, 8, 9)
        assert family.genus == 7

    @pytest.mark.parametrize("kappa", [3, 4, 5, 6])
    def test_minimal_parameter_case(self, kappa):
        family = example_family(kappa, kappa)
        assert family.genus == kappa
        assert family.gaps == tuple(range(1, kappa)) + (2 * kappa - 1,)

    @pytest.mark.parametrize("a, kappa", [(4, 5), (2, 3), (5, 2), (5, 1)])
    def test_bad_parameters(self, a, kappa):
        with pytest.raises(InvalidParameters):
            example_family(a, kappa)

    def test_conductor_cap(self, monkeypatch):
        """The formula is trusted, but its conductor 2a is capped like every constructor's."""
        assert example_family(500_000, 3).conductor == 1_000_000
        module = importlib.import_module("sparsegroup.kappa")
        monkeypatch.setattr(module, "range", None, raising=False)  # no tuple may be built
        with pytest.raises(LimitExceeded, match=r"^conductor 1000002 exceeds the cap 1000000$"):
            example_family(500_001, 3)

    @pytest.mark.parametrize("a, kappa", [(3, 3), (5, 3), (6, 4), (7, 5)])
    def test_stated_shape(self, a, kappa):
        family = example_family(a, kappa)
        assert family.genus == 2 * a - kappa
        assert family.multiplicity == a
        assert family.element(kappa) == 2 * a
        assert is_pure_kappa_sparse(family, kappa)
        NumericalSemigroup.from_gaps(family.gaps)  # closure sanity

    def test_unique_for_its_parameters(self, level):
        for a, kappa in [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4)]:
            family = example_family(a, kappa)
            for node in level(2 * a - kappa):
                if node.multiplicity == a and node.element(kappa) == 2 * a:
                    assert is_pure_kappa_sparse(node, kappa) == (node == family)


class TestFrobeniusIdentity:
    def test_hyperelliptic_genus_two(self):
        assert frobenius_identity_check(gs(1, 3), 2)

    def test_truncation_misses_the_big_jump(self):
        assert not frobenius_identity_check(gs(1, 2, 3, 7), 3)

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_ordinary(self, g):
        assert frobenius_identity_check(ordinary(g), 2)

    def test_positive_genus_required(self):
        with pytest.raises(ValueError):
            frobenius_identity_check(gs(), 2)

    def test_matches_class_membership(self, level):
        for g in range(1, 9):
            for node in level(g):
                for kappa in range(2, g + 3):
                    assert frobenius_identity_check(node, kappa) == is_kappa_sparse(node, kappa)


class TestChain:
    def test_monotone_in_kappa(self, level):
        for g in range(8):
            for node in level(g):
                for kappa in range(1, g + 3):
                    if is_kappa_sparse(node, kappa):
                        assert is_kappa_sparse(node, kappa + 1)

    def test_strictness_witnesses(self):
        assert is_kappa_sparse(gs(1), 2) and not is_kappa_sparse(gs(1), 1)
        for kappa in range(2, 7):
            witness = example_family(kappa + 1, kappa + 1)
            assert is_kappa_sparse(witness, kappa + 1)
            assert not is_kappa_sparse(witness, kappa)


class TestReport:
    def test_checks_agree_and_witness_matches(self, level):
        for g in range(6):
            for node in level(g):
                for kappa in (1, 2, 3, node.genus + 2):
                    checks = sparseness_report(node, kappa)
                    assert len({value for _, value in checks}) == 1
                result = classify(node)
                assert result.sparseness_index == sparseness_index(node)
                first = next(
                    (leap for leap in leap_set(node) if leap.jump == result.sparseness_index), None
                )
                assert result.pure_witness == first
                assert (first is None) == (node.genus == 0)
                assert result.checks == sparseness_report(node, result.sparseness_index)
                assert all(value for _, value in result.checks)

    @pytest.mark.parametrize(
        "gaps, witness",
        [
            ((), None),
            ((1,), Leap(-1, 1)),  # the leap from -1 has jump 2
            ((1, 3), Leap(-1, 1)),  # two leaps of jump 2: the first, from -1
            ((1, 2, 3, 7), Leap(3, 7)),
            ((1, 2, 3, 4, 5, 6, 9, 12), Leap(6, 9)),  # jumps 2, 1, 1, 1, 1, 1, 3, 3
            (tuple(range(1, 2000, 2)), Leap(-1, 1)),
        ],
    )
    def test_pure_witness_is_the_first_leap_of_largest_jump(self, gaps, witness):
        result = classify(NumericalSemigroup(gaps))
        assert result.pure_witness == witness
        if witness is not None:
            assert witness.jump == result.sparseness_index

    def test_kappa_one_reports_two_checks(self):
        checks = sparseness_report(gs(1), 1)
        assert [name for name, _ in checks] == ["profile_sum", "gap_spacing"]


class TestClassification:
    @pytest.mark.parametrize(
        "gaps, label",
        [
            ((), "trivial"),
            ((1, 2, 3), "ordinary"),
            ((1, 2, 4), "arf"),
            ((1, 3), "arf"),
            ((1, 2, 3, 4, 6, 8, 9), "sparse"),
            ((1, 2, 5), "pure-3-sparse"),
            ((1, 2, 3, 7), "pure-4-sparse"),
        ],
    )
    def test_figure_labels(self, gaps, label):
        assert classify(NumericalSemigroup(gaps)).figure_class == label

    def test_report_fields(self):
        result = classify(gs(1, 2, 3, 7))
        assert result.genus == 4
        assert result.conductor == 8
        assert result.frobenius == 7
        assert result.multiplicity == 4
        assert not result.hyperelliptic
        assert not result.arf
        assert not result.sparse
        assert result.sparseness_index == 4
        assert result.profile == leap_profile(gs(1, 2, 3, 7))

    def test_sparse_iff_index_at_most_two(self, level):
        for g in range(7):
            for node in level(g):
                result = classify(node)
                assert result.sparseness_index == sparseness_index(node)
                assert result.sparse == (result.sparseness_index <= 2)
                if result.hyperelliptic:
                    assert result.sparse
