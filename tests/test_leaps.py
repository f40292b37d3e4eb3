from __future__ import annotations

from collections import Counter

import pytest

import sparsegroup.leaps
from sparsegroup import (
    Leap,
    LeapProfile,
    NumericalSemigroup,
    frobenius_from_profile,
    is_arf_double,
    is_hyperelliptic,
    is_kappa_sparse_gapdiff,
    is_kappa_sparse_profile,
    is_kappa_sparse_run,
    is_sparse,
    leap_profile,
    leap_set,
    max_leap_jump,
    ordinary,
)

from oracle import leap_counts


def gs(*gaps: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_gaps(gaps)


def profile(counts: dict[int, int]) -> LeapProfile:
    return LeapProfile(leap_counts(counts))


class TestLeapSet:
    def test_naturals_has_no_leaps(self):
        assert leap_set(gs()) == ()

    def test_sentinel_starts_the_first_leap(self):
        assert leap_set(gs(1, 3)) == (Leap(-1, 1), Leap(1, 3))

    def test_four_gaps(self):
        assert leap_set(gs(1, 2, 3, 7)) == (
            Leap(-1, 1),
            Leap(1, 2),
            Leap(2, 3),
            Leap(3, 7),
        )

    def test_jump(self):
        assert Leap(3, 7).jump == 4


class TestLeapProfile:
    def test_ordinary_profile(self):
        assert dict(leap_profile(ordinary(5)).counts) == {1: 4, 2: 1}

    def test_hyperelliptic_profile_is_all_double(self):
        assert dict(leap_profile(gs(1, 3)).counts) == {2: 2}

    def test_mixed_profile(self):
        assert dict(leap_profile(gs(1, 2, 3, 7)).counts) == {1: 2, 2: 1, 4: 1}

    def test_zero_counts_dropped(self):
        assert profile({1: 0, 3: 2}).counts == ((3, 2),)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            profile({0: 1})
        with pytest.raises(ValueError):
            profile({2: -1})

    def test_accessors(self):
        p = profile({1: 2, 2: 1, 4: 1})
        assert p.v(2) == 1 and p.v(3) == 0
        assert p.total == 4
        assert p.max_jump == 4
        assert p.count_up_to(2) == 3
        assert p.weighted_total() == 8
        assert p.weighted_total(2) == 4


def _outcome(call):
    """The value of ``call()``, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001
        return type(exc)


class TestTruncatedSums:
    """The early-stopping loops against the generator sums they replaced."""

    @staticmethod
    def count_by_sum(counts, kappa):
        return sum(count for jump, count in counts if jump <= kappa)

    @staticmethod
    def weighted_by_sum(counts, kappa=None):
        return sum(jump * count for jump, count in counts if kappa is None or jump <= kappa)

    def test_match_the_sums_on_every_profile_to_genus_twelve(self, level):
        for g in range(13):
            for p in {leap_profile(node) for node in level(g)}:
                assert p.weighted_total() == self.weighted_by_sum(p.counts)
                for kappa in (*range(-1, g + 4), None):
                    assert _outcome(lambda: p.count_up_to(kappa)) == _outcome(
                        lambda: self.count_by_sum(p.counts, kappa)
                    ), (p, kappa)
                    assert p.weighted_total(kappa) == self.weighted_by_sum(p.counts, kappa), (p, kappa)

    def test_none_counts_nothing_only_on_the_empty_profile(self):
        assert profile({}).count_up_to(None) == 0
        with pytest.raises(TypeError):
            profile({2: 1}).count_up_to(None)


class TestFrobeniusFromProfile:
    def test_empty_profile_gives_minus_one(self):
        assert frobenius_from_profile(profile({})) == -1

    def test_mixed_profile(self):
        assert frobenius_from_profile(profile({1: 2, 2: 1, 4: 1})) == 7

    @pytest.mark.parametrize("g", [1, 2, 5, 9])
    def test_all_double_profile(self, g):
        assert frobenius_from_profile(profile({2: g})) == 2 * g - 1

    def test_total_on_unrealisable_profiles(self):
        assert frobenius_from_profile(profile({1: 3})) == 2

    def test_reproduces_frobenius_on_census(self, level):
        for g in range(9):
            for node in level(g):
                assert frobenius_from_profile(leap_profile(node)) == node.frobenius


class TestHyperelliptic:
    def test_naturals(self):
        assert is_hyperelliptic(gs())

    def test_two_is_member(self):
        assert is_hyperelliptic(gs(1, 3, 5))

    def test_two_is_gap(self):
        assert not is_hyperelliptic(ordinary(3))


class TestSparse:
    def test_naturals_counts_as_sparse(self):
        assert is_sparse(gs())

    def test_hyperelliptic_is_sparse(self):
        assert is_sparse(gs(1, 3))

    def test_big_jump_is_not_sparse(self):
        assert not is_sparse(gs(1, 2, 3, 7))

    def test_max_leap_jump(self):
        assert max_leap_jump(gs()) == 0
        assert max_leap_jump(gs(1)) == 2
        assert max_leap_jump(gs(1, 2, 3, 7)) == 4


class TestCensusInvariants:
    def test_leap_count_partitions_genus(self, level):
        for g in range(9):
            for node in level(g):
                assert len(leap_set(node)) == node.genus
                assert leap_profile(node).total == node.genus

    def test_hyperelliptic_iff_no_single_leaps(self, level):
        for g in range(1, 9):
            for node in level(g):
                p = leap_profile(node)
                assert is_hyperelliptic(node) == (p.v(1) == 0)
                if is_hyperelliptic(node):
                    assert dict(p.counts) == {2: node.genus}
                else:
                    assert p.max_jump <= node.genus

    def test_double_leap_markers(self, level):
        for g in range(9):
            for node in level(g):
                p = leap_profile(node)
                assert (p.v(2) == 0) == (node.genus == 0)
                assert (p.v(2) != 0) == (1 not in node)

    def test_ordinary_signature(self, level):
        for g in range(1, 9):
            for node in level(g):
                p = leap_profile(node)
                signature = (p.v(1), p.v(2)) == (g - 1, 1)
                assert signature == (node == ordinary(g))
                if signature:
                    assert p.count_up_to(2) == g

    def test_sparse_characterisations(self, level):
        for g in range(9):
            for node in level(g):
                p = leap_profile(node)
                sparse = is_sparse(node)
                assert sparse == (p.v(1) + p.v(2) == node.genus)
                if sparse:
                    assert node.frobenius == p.v(1) + 2 * p.v(2) - 1
                if g > 0:
                    K = 2 * g - node.frobenius
                    assert sparse == (p.v(1) == K - 1 and p.v(2) == g - K + 1)


def _memo_sources(level) -> list[tuple[str, NumericalSemigroup]]:
    """Semigroups of genus <= 10 from every constructor and closure operation."""
    nodes = [node for g in range(11) for node in level(g)]
    made = []
    for i, node in enumerate(nodes):
        neighbour = nodes[(i + 1) % len(nodes)]
        made.append(("from_gaps", NumericalSemigroup.from_gaps(node.gaps)))
        made.append(("from_generators", NumericalSemigroup.from_generators(node.minimal_generators)))
        made.append(("_unchecked", NumericalSemigroup._unchecked(node.gaps)))
        made.append(("intersect", node.intersect(neighbour)))
        if node.genus:
            made.append(("adjoin_frobenius", node.adjoin_frobenius()))
    return made


class TestPerObjectMemo:
    """``leap_profile`` and ``max_leap_jump`` scan each object once and keep the result."""

    def test_cached_values_match_a_fresh_recomputation(self, level):
        for how, semigroup in _memo_sources(level):
            warm_profile, warm_jump = leap_profile(semigroup), max_leap_jump(semigroup)
            assert leap_profile(semigroup) is warm_profile, how
            fresh = NumericalSemigroup(semigroup.gaps)
            assert leap_profile(semigroup) == leap_profile(fresh), how
            assert max_leap_jump(semigroup) == max_leap_jump(fresh) == warm_jump, how
            jumps = [leap.jump for leap in leap_set(semigroup)]
            assert dict(leap_profile(semigroup).counts) == dict(Counter(jumps)), how
            assert max_leap_jump(semigroup) == max(jumps, default=0), how

    def test_member_digits_spell_membership(self, level):
        """One digit per n in [0, c], "1" iff n is a member, whichever way the object was made."""
        for how, s in _memo_sources(level):
            expected = "".join("1" if n in s else "0" for n in range(s.conductor + 1))
            assert s._member_digits == expected, how
        assert NumericalSemigroup(())._member_digits == "1"

    def test_a_warm_memo_changes_no_value_semantics(self, level):
        for _, semigroup in _memo_sources(level)[::7]:
            cold = NumericalSemigroup(semigroup.gaps)
            leap_profile(semigroup), max_leap_jump(semigroup), is_kappa_sparse_run(semigroup, 2)
            semigroup.small_elements, is_arf_double(semigroup)
            assert semigroup == cold and hash(semigroup) == hash(cold)
            assert repr(semigroup) == repr(cold)
            assert semigroup.describe() == cold.describe()
            assert len({semigroup, cold}) == 1

    def test_gap_spacing_never_reads_the_profile(self, monkeypatch):
        def refuse(semigroup):
            raise RuntimeError("the profile was counted")

        monkeypatch.setattr(sparsegroup.leaps, "_count_jumps", refuse)
        with pytest.raises(RuntimeError):
            leap_profile(gs(1, 2, 3, 7))
        semigroup = gs(1, 2, 3, 7)
        assert max_leap_jump(semigroup) == 4
        assert is_kappa_sparse_gapdiff(semigroup, 4)
        assert not is_kappa_sparse_gapdiff(semigroup, 3)
        assert is_sparse(gs(1, 3)) and not is_sparse(semigroup)

    def test_profile_sum_never_reads_the_largest_jump(self, monkeypatch):
        def refuse(semigroup):
            raise RuntimeError("the largest jump was scanned")

        monkeypatch.setattr(sparsegroup.leaps, "_scan_largest_jump", refuse)
        semigroup = gs(1, 2, 3, 7)
        assert leap_profile(semigroup).max_jump == 4
        assert is_kappa_sparse_profile(semigroup, 4)
        assert not is_kappa_sparse_profile(semigroup, 3)
        with pytest.raises(RuntimeError):
            max_leap_jump(semigroup)


def test_leap_set_matches_the_gap_pairs_to_genus_ten(level):
    assert leap_set(gs()) == ()
    for g in range(11):
        for node in level(g):
            gaps = node.gaps
            pairs = tuple(zip((-1,) + gaps[:-1], gaps))
            leaps = leap_set(node)
            assert leaps == pairs
            assert all(type(leap) is Leap for leap in leaps)
            assert [leap.jump for leap in leaps] == [hi - lo for lo, hi in pairs]
