from __future__ import annotations

import pytest

from sparsegroup import (
    InvalidGap,
    InvalidGenerator,
    LimitExceeded,
    NotASemigroup,
    NotCofinite,
    NumericalSemigroup,
    TrivialSemigroup,
    format_gap_line,
    ordinary,
    parse_gap_line,
)
from sparsegroup import core
from sparsegroup.enumeration import _walk

from oracle import (
    PUBLISHED_LEVEL_SIZES,
    brute_force_from_generators,
    closure_violation,
    minimal_generators,
)


def gs(*gaps: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_gaps(gaps)


class TestFromGaps:
    def test_empty_gap_set_is_the_naturals(self):
        naturals = gs()
        assert naturals.genus == 0
        assert naturals.conductor == 0
        assert naturals.frobenius == -1

    def test_three_five_seven(self):
        semigroup = gs(1, 2, 4)
        assert semigroup.genus == 3
        assert semigroup.conductor == 5
        assert semigroup.minimal_generators == (3, 5, 7)

    def test_closure_violation_rejected(self):
        with pytest.raises(NotASemigroup):
            gs(1, 3, 4)  # 2 is a member and 2 + 2 = 4 is a gap

    def test_every_small_gap_set_matches_the_pair_scan(self):
        # all 2^14 subsets of 1..14, accepted or named by the same first pair
        for bits in range(1 << 14):
            gaps = tuple(n for n in range(1, 15) if bits >> (n - 1) & 1)
            violation = closure_violation(gaps)
            if violation is None:
                assert gs(*gaps).gaps == gaps
                continue
            x, y = violation
            with pytest.raises(NotASemigroup) as excinfo:
                gs(*gaps)
            assert str(excinfo.value) == f"{x} and {y} are non-gaps but their sum {x + y} is a gap"

    @pytest.mark.parametrize("bad", [0, -3, "5", 2.5])
    def test_bad_gap_values_rejected(self, bad):
        with pytest.raises(InvalidGap):
            NumericalSemigroup.from_gaps([bad])

    def test_conductor_cap(self, monkeypatch):
        with pytest.raises(LimitExceeded):
            NumericalSemigroup.from_gaps([10**6])
        monkeypatch.setattr(core, "DEFAULT_MAX_CONDUCTOR", 10)
        NumericalSemigroup.from_gaps([1, 2, 3])
        with pytest.raises(LimitExceeded):
            NumericalSemigroup.from_gaps(range(1, 15))

    def test_one_gap_mask_per_validated_semigroup(self, monkeypatch):
        """The closure check reads the mask that the semigroup keeps for its derived data."""
        masks = []
        bitmask = core._bitmask
        monkeypatch.setattr(core, "_bitmask", lambda *args: masks.append(args) or bitmask(*args))
        semigroup = NumericalSemigroup.from_gaps([4, 1, 2, 5, 8])
        assert semigroup.gap_mask == 0b100110110
        assert semigroup.multiplicity == 3
        assert semigroup.minimal_generators == (3, 7, 11)
        assert len(masks) == 1

    def test_the_cap_is_checked_before_any_mask_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mask was built for a gap above the cap")

        monkeypatch.setattr(core, "_bitmask", refuse)
        with pytest.raises(LimitExceeded, match="conductor 1000000001 exceeds the cap 1000000"):
            NumericalSemigroup.from_gaps([1, 10**9])

    def test_input_order_and_duplicates_are_normalised(self):
        assert NumericalSemigroup.from_gaps([4, 1, 2, 2]) == gs(1, 2, 4)

    def test_direct_constructor_rejects_malformed_tuples(self):
        with pytest.raises(TypeError):
            NumericalSemigroup([1, 2])
        with pytest.raises(InvalidGap):
            NumericalSemigroup((3, 1))
        with pytest.raises(InvalidGap):
            NumericalSemigroup((0, 1))


class TestFromGenerators:
    def test_one_generates_everything(self):
        assert NumericalSemigroup.from_generators([1]) == gs()

    def test_three_five_seven(self):
        assert NumericalSemigroup.from_generators([3, 5, 7]).gaps == (1, 2, 4)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCofinite):
            NumericalSemigroup.from_generators([2, 4])

    def test_empty_rejected(self):
        with pytest.raises(NotCofinite):
            NumericalSemigroup.from_generators([])

    @pytest.mark.parametrize("bad", [0, -2, "3"])
    def test_bad_generator_values_rejected(self, bad):
        with pytest.raises(InvalidGenerator):
            NumericalSemigroup.from_generators([3, bad])

    def test_against_reachability_oracle(self):
        generators = [6, 10, 15]
        semigroup = NumericalSemigroup.from_generators(generators)
        reachable = brute_force_from_generators(generators, bound=100)
        for n in range(100):
            assert (n in semigroup) == (n in reachable)

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_MAX_CONDUCTOR", 1000)
        with pytest.raises(LimitExceeded):
            NumericalSemigroup.from_generators([101, 103])

    def test_a_negative_cap_refuses_even_the_naturals(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_MAX_CONDUCTOR", 0)
        assert NumericalSemigroup.from_generators([1, 5]) == gs()
        monkeypatch.setattr(core, "DEFAULT_MAX_CONDUCTOR", -1)
        with pytest.raises(LimitExceeded, match=r"generated by \[1, 5\] has conductor above the cap -1"):
            NumericalSemigroup.from_generators([1, 5])

    def test_generators_far_above_the_conductor_are_redundant(self, monkeypatch):
        assert NumericalSemigroup.from_generators([2, 3, 10**9]) == gs(1)
        monkeypatch.setattr(core, "DEFAULT_MAX_CONDUCTOR", 1000)
        assert NumericalSemigroup.from_generators([3, 5, 7, 2001]) == gs(1, 2, 4)


class TestOrdinary:
    def test_genus_zero(self):
        assert ordinary(0) == gs()

    def test_genus_five(self):
        assert ordinary(5).gaps == (1, 2, 3, 4, 5)

    def test_genus_one(self):
        assert ordinary(1).gaps == (1,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ordinary(-1)


class TestMembership:
    def test_gap_is_not_member(self):
        assert 4 not in gs(1, 2, 4)

    def test_zero_always_member(self):
        assert 0 in gs(1, 2, 4)
        assert 0 in gs()

    def test_far_beyond_conductor(self):
        assert 10**6 in gs(1, 3)

    def test_negative_is_not_member(self):
        assert -1 not in gs()
        assert -5 not in gs(1, 3)


class TestDerivedData:
    def test_small_elements(self):
        assert gs().small_elements == (0,)
        assert gs(1, 2, 4).small_elements == (0, 3, 5)

    @pytest.mark.parametrize("g", [1, 3, 7])
    def test_small_elements_ordinary(self, g):
        assert ordinary(g).small_elements == (0, g + 1)

    def test_element_indexing(self):
        semigroup = gs(1, 2, 4)
        assert [semigroup.element(k) for k in range(5)] == [0, 3, 5, 6, 7]
        assert gs().element(4) == 4

    def test_multiplicity(self):
        assert gs().multiplicity == 1
        assert gs(1, 2, 4).multiplicity == 3

    def test_minimal_generators(self):
        assert gs().minimal_generators == (1,)
        assert gs(1, 2, 4).minimal_generators == (3, 5, 7)

    @pytest.mark.parametrize("g", [1, 2, 4, 6])
    def test_minimal_generators_ordinary(self, g):
        assert ordinary(g).minimal_generators == tuple(range(g + 1, 2 * g + 2))

    def test_minimal_generators_match_the_pair_scan_to_genus_14(self):
        walked = 0
        for _, gaps, _ in _walk(14):
            assert NumericalSemigroup._unchecked(gaps).minimal_generators == minimal_generators(gaps)
            walked += 1
        assert walked == sum(PUBLISHED_LEVEL_SIZES[:15])

    def test_multiplicity_matches_the_first_positive_element_to_genus_14(self):
        for _, gaps, _ in _walk(14):
            semigroup = NumericalSemigroup._unchecked(gaps)
            assert semigroup.multiplicity == semigroup.element(1)

    def test_describe_key_order(self):
        record = gs(1, 2, 4).describe()
        assert list(record) == ["gaps", "generators", "genus", "conductor", "frobenius"]
        assert record["frobenius"] == 4


class TestIntersect:
    def test_naturals_is_identity(self):
        semigroup = gs(1, 2, 5)
        assert semigroup.intersect(gs()) == semigroup

    def test_union_of_gap_sets(self):
        assert gs(1, 3).intersect(gs(1, 2, 4)) == ordinary(4)

    def test_idempotent(self):
        semigroup = gs(1, 3, 5)
        assert semigroup.intersect(semigroup) == semigroup

    def test_commutative_associative_on_census(self, level):
        pool = [s for g in range(5) for s in level(g)]
        for a in pool:
            for b in pool:
                assert a.intersect(b) == b.intersect(a)
                assert a.intersect(b).genus >= max(a.genus, b.genus)
                # the union of two gap sets is itself closed, so it revalidates
                assert NumericalSemigroup.from_gaps(a.intersect(b).gaps) == a.intersect(b)
        for a in pool[:6]:
            for b in pool[:6]:
                for c in pool[:6]:
                    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    def test_operator_form(self):
        assert (gs(1, 3) & gs(1, 2, 4)) == ordinary(4)


class TestAdjoinFrobenius:
    def test_fills_largest_gap(self):
        assert gs(1, 3).adjoin_frobenius() == gs(1)

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_ordinary_steps_down(self, g):
        assert ordinary(g).adjoin_frobenius() == ordinary(g - 1)

    def test_naturals_has_nothing_to_fill(self):
        with pytest.raises(TrivialSemigroup):
            gs().adjoin_frobenius()

    def test_chain_reaches_naturals_in_genus_steps(self, level):
        for g in range(7):
            for node in level(g):
                current = node
                for _ in range(node.genus):
                    current = current.adjoin_frobenius()
                assert current == gs()


class TestCensusInvariants:
    def test_roundtrips_and_counting_identities(self, level):
        for g in range(7):
            for node in level(g):
                assert NumericalSemigroup.from_gaps(node.gaps) == node
                if node.gaps:
                    filled = node.adjoin_frobenius()
                    assert NumericalSemigroup.from_gaps(filled.gaps) == filled
                assert NumericalSemigroup.from_generators(node.minimal_generators) == node
                assert len(node.gaps) == node.genus
                assert node.frobenius <= 2 * node.genus - 1
                # the conductor is the (conductor - genus)-th member
                assert node.small_elements[-1] == node.conductor
                assert node.element(node.conductor - node.genus) == node.conductor


class TestGapLineFormat:
    def test_round_trip(self):
        for text in ["", "1,2,4", "1,3,5,7"]:
            assert format_gap_line(parse_gap_line(text)) == text

    def test_empty_line_is_naturals(self):
        assert parse_gap_line("   ") == gs()

    def test_whitespace_tolerated(self):
        assert parse_gap_line(" 1, 2, 4 ") == gs(1, 2, 4)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidGap):
            parse_gap_line("1,x,4")

    def test_invalid_gap_set_rejected(self):
        with pytest.raises(NotASemigroup):
            parse_gap_line("1,3,4")


class TestValueSemantics:
    def test_equality_and_hashing_are_structural(self):
        assert gs(1, 2, 4) == NumericalSemigroup((1, 2, 4))
        assert len({gs(1, 3), NumericalSemigroup((1, 3)), gs(1, 2)}) == 2

    def test_unchecked_construction_is_the_same_value(self):
        trusted = NumericalSemigroup._unchecked((1, 2, 4))
        assert trusted == gs(1, 2, 4) and hash(trusted) == hash(gs(1, 2, 4))
        assert trusted.minimal_generators == gs(1, 2, 4).minimal_generators
        assert NumericalSemigroup._unchecked(()) == gs()
