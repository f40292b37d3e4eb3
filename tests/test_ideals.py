from __future__ import annotations

import pytest

from sparsegroup import ideals
from sparsegroup import (
    NumericalSemigroup,
    RelativeIdeal,
    ideal_at,
    ideal_difference,
    is_arf_definition,
    is_arf_double,
    is_arf_stable,
    is_stable,
    ordinary,
    sparseness_index,
)
from sparsegroup.enumeration import _walk

from oracle import PUBLISHED_LEVEL_SIZES, is_arf, is_ideal_of
from oracle import ideal_difference as scan_difference


def gs(*gaps: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_gaps(gaps)


def members_below(ideal: RelativeIdeal, stop: int) -> list[int]:
    """The elements below ``stop``, all of them at or above the base."""
    return [n for n in range(ideal.base, stop) if n in ideal]


class TestRelativeIdeal:
    def test_canonical_form_minimises_threshold(self):
        ideal = RelativeIdeal.from_members([3, 5, 6, 7, 8, 9], threshold=10)
        assert ideal == RelativeIdeal.from_members([3], threshold=5)
        assert ideal.base == 3
        assert ideal.threshold == 5

    def test_membership(self):
        ideal = RelativeIdeal.from_members([3], threshold=5)
        assert 3 in ideal
        assert 4 not in ideal
        assert 2 not in ideal
        assert 999 in ideal

    def test_shift(self):
        ideal = RelativeIdeal.from_members([0, 2], threshold=4)
        shifted = ideal.shift(5)
        assert members_below(shifted, 12) == [5, 7, 9, 10, 11]

    def test_equality_is_set_equality(self):
        a = RelativeIdeal.from_members(range(4, 20), threshold=9)
        b = RelativeIdeal.from_members([], threshold=4)
        assert a == b


    @pytest.mark.parametrize("members, outside", [((1, 5), 1), ((5, 9), 9), ((9, 3, 12), 12)])
    def test_a_member_outside_base_and_threshold_is_refused(self, members, outside):
        """Below the base, at the threshold and past it: each is named, not silently shifted."""
        with pytest.raises(ValueError, match=rf"^member {outside} is outside \[3, 9\)$"):
            RelativeIdeal(3, 9, members)
        assert RelativeIdeal(3, 9, (8, 3)).members == (8, 3)  # the base is allowed, unsorted too

    def test_a_base_above_the_threshold_is_refused(self):
        """An empty ideal escapes the member check, so the base is compared with the threshold."""
        with pytest.raises(ValueError, match=r"^base 5 is above the threshold 3$"):
            RelativeIdeal(5, 3, ())
        assert RelativeIdeal(3, 3, ()) == RelativeIdeal.from_members([], threshold=3)


class TestIdealAt:
    def test_proper_ideal(self):
        tail = ideal_at(gs(1, 2, 4), 1)
        assert members_below(tail, 9) == [3, 5, 6, 7, 8]
        assert 4 not in tail

    def test_index_zero_is_the_semigroup(self):
        semigroup = gs(1, 2, 4)
        whole = ideal_at(semigroup, 0)
        for n in range(20):
            assert (n in whole) == (n in semigroup)

    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_ordinary_tail_is_a_ray(self, g):
        tail = ideal_at(ordinary(g), 1)
        assert tail.base == g + 1
        assert tail.threshold == g + 1
        assert tail.members == ()

    def test_index_beyond_conductor(self):
        tail = ideal_at(gs(1, 3), 5)
        assert tail.base == gs(1, 3).element(5)
        assert tail.members == ()

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError) as caught:
            ideal_at(gs(1, 2, 4), -1)
        assert str(caught.value) == "member index must be non-negative, got -1"

    def test_slices_small_elements_without_normalising(self, level, monkeypatch):
        """Every tail to genus 10, genus 0 and indices past the conductor too, equals the canonical
        ideal of the members from the k-th on, and none goes through ``from_members``."""
        expected = {}
        for g in range(11):
            for node in level(g):
                for k in range(len(node.small_elements) + 2):
                    start = node.element(k)
                    horizon = max(start, node.conductor) + 1
                    below = [n for n in range(start, horizon) if n in node]
                    expected[node.gaps, k] = RelativeIdeal.from_members(below, threshold=horizon)

        def refuse(members, threshold):
            raise AssertionError("ideal_at normalised through from_members")

        monkeypatch.setattr(RelativeIdeal, "from_members", refuse)
        for (gaps, k), tail in expected.items():
            assert ideal_at(NumericalSemigroup(gaps), k) == tail, (gaps, k)
        assert len(expected) == 4081

    def test_tail_ideals_absorb_the_semigroup(self, level):
        for g in range(5):
            for node in level(g):
                for k in range(len(node.small_elements)):
                    ideal = ideal_at(node, k)
                    assert is_ideal_of(ideal.members, ideal.threshold, node.gaps)
        # {0, 1} and everything from 5 is not an ideal of <3, 5, 7>: 0 + 3 falls outside
        assert not is_ideal_of((0, 1), 5, (1, 2, 4))


class TestIdealDifference:
    def test_worked_example(self):
        tail = ideal_at(gs(1, 2, 4), 1)
        difference = ideal_difference(tail, tail)
        # z = 1 fails because 3 + 1 = 4 is outside; z >= 2 always lands inside
        assert members_below(difference, 6) == [0, 2, 3, 4, 5]

    def test_semigroup_differenced_with_itself_is_itself(self):
        semigroup = gs(1, 2, 5)
        whole = ideal_at(semigroup, 0)
        assert ideal_difference(whole, whole) == whole

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_ordinary_tail_difference_is_every_natural(self, g):
        tail = ideal_at(ordinary(g), 1)
        difference = ideal_difference(tail, tail)
        assert difference == RelativeIdeal.from_members([], threshold=0)

    def test_self_difference_is_a_numerical_semigroup(self, level):
        for g in range(5):
            for node in level(g):
                for k in range(1, len(node.small_elements)):
                    tail = ideal_at(node, k)
                    difference = ideal_difference(tail, tail)
                    assert difference.base == 0
                    gaps = [n for n in range(difference.threshold) if n not in difference]
                    NumericalSemigroup.from_gaps(gaps)  # validates closure

    def test_monotonicity(self, level):
        for node in level(4):
            ideals = [ideal_at(node, k) for k in range(len(node.small_elements))]
            for small_k in range(len(ideals)):
                for big_k in range(small_k, len(ideals)):
                    # bigger index means smaller ideal
                    smaller, larger = ideals[big_k], ideals[small_k]
                    for f in ideals:
                        left = ideal_difference(smaller, f)
                        right = ideal_difference(larger, f)
                        horizon = max(left.threshold, right.threshold)
                        for z in range(-horizon - 1, horizon + 1):
                            if z in left:
                                assert z in right

    def test_difference_shifts_back_inside(self, level):
        for node in level(4):
            for k in range(1, len(node.small_elements)):
                tail = ideal_at(node, k)
                difference = ideal_difference(tail, tail)
                horizon = tail.threshold + 3
                for z in members_below(difference, horizon - tail.base):
                    for f in members_below(tail, horizon - z):
                        assert (z + f) in tail


def scanned_difference(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """The oracle's shift scan, every z with z + right inside left, as a canonical ideal.

    No z below base(left) - base(right) fits and every z from threshold(left) - base(right)
    on does; the scan runs three past each end to show both.
    """
    start, stop = left.base - right.base - 3, left.threshold - right.base + 3
    accepted = scan_difference(
        (left.threshold, left.members), (right.threshold, right.members), start, stop
    )
    assert accepted[-3:] == tuple(range(stop - 3, stop))
    return RelativeIdeal.from_members(accepted, threshold=stop)


def test_difference_matches_the_set_definition_for_every_pair_of_tails_to_genus_seven(level):
    pairs = 0
    for g in range(8):
        for node in level(g):
            tails = [ideal_at(node, k) for k in range(len(node.small_elements))]
            for left in tails:
                for right in tails:  # includes right is left, the window-sharing path
                    assert ideal_difference(left, right) == scanned_difference(left, right)
                    pairs += 1
    assert pairs > 1000


def test_unchecked_ideals_pass_validation_and_are_canonical_to_genus_nine(level):
    """Tails, self-differences and shifts skip the constructor's checks; each would pass them."""
    built = 0
    for g in range(10):
        for node in level(g):
            for k in range(len(node.small_elements) + 2):
                tail = ideal_at(node, k)
                difference = ideal_difference(tail, tail)
                for ideal in (tail, difference, difference.shift(tail.base), tail.shift(-k)):
                    base, threshold, members = ideal.base, ideal.threshold, ideal.members
                    assert RelativeIdeal(base, threshold, members) == ideal
                    assert RelativeIdeal.from_members(members, threshold) == ideal
                    built += 1
    assert built == 4 * 2185  # (node, k) pairs


def test_difference_does_not_rely_on_sorted_members():
    scrambled = RelativeIdeal(3, 12, (9, 3, 7, 10, 5))
    ordered = RelativeIdeal(3, 12, (3, 5, 7, 9, 10))
    tail = ideal_at(gs(1, 2, 4), 1)
    for left, right in [(scrambled, scrambled), (scrambled, tail), (tail, scrambled)]:
        assert ideal_difference(left, right) == scanned_difference(left, right)
    assert ideal_difference(scrambled, scrambled) == ideal_difference(ordered, ordered)


def test_difference_of_distinct_tails_matches_the_members_it_fits_to_genus_nine(level):
    """Each shift z tested on every element n of ``right`` that z could move outside ``left``.

    No z below base(left) - base(right) fits, and every z from threshold(left) - base(right)
    on does.  The scan starts two below, and z + n lands in left's tail once
    n >= threshold(left) - z, so it needs only the n below base(right) + width + 2.
    """
    pairs = 0
    for g in range(10):
        for node in level(g):
            tails = [ideal_at(node, k) for k in range(len(node.small_elements))]
            for left in tails:
                width = left.threshold - left.base
                for right in tails:
                    if right is left:
                        continue
                    elements = [n for n in range(right.base, right.base + width + 2) if n in right]
                    start, stop = left.base - right.base, left.threshold - right.base
                    fitting = [z for z in range(start - 2, stop) if all(n + z in left for n in elements)]
                    assert ideal_difference(left, right) == RelativeIdeal.from_members(fitting, stop)
                    pairs += 1
    assert pairs == 9236


class TestIsStable:
    def test_stable_tail(self):
        assert is_stable(gs(1, 2, 4), 1)

    def test_unstable_tail(self):
        semigroup = NumericalSemigroup.from_generators([4, 5, 6])
        k = semigroup.small_elements.index(5)
        assert not is_stable(semigroup, k)

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_ordinary_tails_are_stable(self, g):
        assert is_stable(ordinary(g), 1)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            is_stable(gs(1), 0)

    def test_windows_are_built_by_the_core_bitmask(self, monkeypatch):
        calls = []
        bitmask = ideals._bitmask
        monkeypatch.setattr(ideals, "_bitmask", lambda *args: calls.append(args) or bitmask(*args))
        assert is_arf_stable(gs(1, 2, 4))
        assert calls

    def test_matches_the_shifted_self_difference_to_genus_thirteen(self, level):
        """The mask comparison against T - T shifted by the tail's base, equal to T, at every k."""
        tails = 0
        for g in range(14):
            for node in level(g):
                for k in range(1, len(node.small_elements) + 2):
                    tail = ideal_at(node, k)
                    difference = ideal_difference(tail, tail)
                    assert is_stable(node, k) == (difference.shift(tail.base) == tail), (node.gaps, k)
                    tails += 1
        assert tails == 22027

    def test_matches_general_principality_search(self, level):
        # independent decider: a principal ideal's generator is forced to be
        # min(E) - min(E - E), so test that single translation
        for g in range(6):
            for node in level(g):
                for k in range(1, len(node.small_elements)):
                    tail = ideal_at(node, k)
                    difference = ideal_difference(tail, tail)
                    general = difference.shift(tail.base - difference.base) == tail
                    assert is_stable(node, k) == general


class TestArfDeciders:
    @pytest.mark.parametrize(
        "gaps, expected",
        [((1, 2, 4), True), ((1, 2, 3, 7), False), ((1, 2, 3), True)],
    )
    def test_worked_examples(self, gaps, expected):
        semigroup = NumericalSemigroup(gaps)
        assert is_arf_definition(semigroup) == expected
        assert is_arf_double(semigroup) == expected
        assert is_arf_stable(semigroup) == expected

    @pytest.mark.parametrize(
        "gaps, expected",
        [
            # members 0, 5, 8, 10 = c: 2 * 5 - 0 = 10 = c and 2 * 8 - 5 = 11 = c + 1
            ((1, 2, 3, 4, 6, 7, 9), True),
            # members 0, 7, 8, ..., 12, 14 = c: 2 * 7 - 0 = 14 = c, then 2 * 12 - 11 = 13 = c - 1
            ((1, 2, 3, 4, 5, 6, 13), False),
            ((), True),
            (tuple(range(1, 2000, 2)), True),
            (tuple(range(1, 1000)) + (1999,), False),  # 2 * 1998 - 1997 = 1999 = c - 1
        ],
    )
    def test_double_reads_members_at_and_past_the_conductor_without_a_membership_test(
        self, monkeypatch, gaps, expected
    ):
        def refuse(self, n):
            raise AssertionError("is_arf_double made a membership test")

        semigroup = NumericalSemigroup(gaps)
        assert is_arf(gaps) == expected
        monkeypatch.setattr(NumericalSemigroup, "__contains__", refuse)
        assert is_arf_double(semigroup) == expected

    def test_generated_4_5_6_is_not_arf(self):
        semigroup = NumericalSemigroup.from_generators([4, 5, 6])
        assert not is_arf_double(semigroup)  # 2 * 6 - 5 = 7 is a gap

    @pytest.mark.parametrize("g", [0, 1, 4, 8])
    def test_ordinary_is_arf(self, g):
        assert is_arf_definition(ordinary(g))

    def test_deciders_agree_exhaustively(self, level):
        for g in range(8):
            for node in level(g):
                assert is_arf_definition(node) == is_arf_double(node) == is_arf_stable(node)

    def test_double_matches_the_all_pairs_scan_to_genus_14(self):
        walked = arf = 0
        for _, gaps, _ in _walk(14):
            expected = is_arf(gaps)
            assert is_arf_double(NumericalSemigroup._unchecked(gaps)) == expected
            walked += 1
            arf += expected
        assert walked == sum(PUBLISHED_LEVEL_SIZES[:15])
        assert arf > 0

    def test_arf_implies_sparse(self, level):
        for g in range(8):
            for node in level(g):
                if is_arf_double(node):
                    assert sparseness_index(node) <= 2
