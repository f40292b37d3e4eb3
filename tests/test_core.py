from __future__ import annotations

import threading
from collections import Counter
from functools import cached_property

import pytest

from sparsegroup import (
    InvalidGap,
    InvalidGenerator,
    LimitExceeded,
    NotASemigroup,
    NotCofinite,
    NumericalSemigroup,
    SemigroupError,
    TrivialSemigroup,
    format_gap_line,
    is_kappa_sparse,
    is_pure_kappa_sparse,
    enumerate_genus,
    ordinary,
    parse_gap_line,
)
from sparsegroup import core
from sparsegroup.enumeration import EnumerationRequest, _walk
from sparsegroup.leaps import LeapProfile
from sparsegroup.verify import run_checks

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
        assert semigroup.small_elements == (0, 3, 6, 7, 9)
        assert len(masks) == 1

    def test_the_cap_is_checked_before_any_mask_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mask was built for a gap above the cap")

        monkeypatch.setattr(core, "_bitmask", refuse)
        for build in (NumericalSemigroup.from_gaps, NumericalSemigroup):
            with pytest.raises(LimitExceeded, match="conductor 1000000001 exceeds the cap 1000000"):
                build((1, 10**9))

    def test_input_order_and_duplicates_are_normalised(self):
        assert NumericalSemigroup.from_gaps([4, 1, 2, 2]) == gs(1, 2, 4)

    def test_direct_constructor_rejects_malformed_tuples(self):
        with pytest.raises(TypeError):
            NumericalSemigroup([1, 2])
        with pytest.raises(InvalidGap):
            NumericalSemigroup((3, 1))
        with pytest.raises(InvalidGap):
            NumericalSemigroup((0, 1))

    def test_direct_constructor_checks_as_from_gaps_does(self):
        """Every strictly increasing tuple over [1, 10]: the same value, or the same error."""
        with pytest.raises(NotASemigroup, match="^1 and 1 are non-gaps but their sum 2 is a gap$"):
            NumericalSemigroup((2,))
        for bits in range(1 << 10):
            gaps = tuple(n for n in range(1, 11) if bits >> (n - 1) & 1)
            outcomes = []
            for build in (NumericalSemigroup, NumericalSemigroup.from_gaps):
                try:
                    outcomes.append(build(gaps))
                except SemigroupError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], gaps


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

    def test_nothing_is_built_twice(self, monkeypatch):
        """The result keeps the last pass's gap mask and minimal generators: no mask or span follows."""
        calls = Counter()
        for name in ("_spanning", "_bitmask"):
            function = getattr(core, name)
            monkeypatch.setattr(
                core, name, lambda *args, _f=function, _n=name: calls.update([_n]) or _f(*args)
            )
        semigroup = NumericalSemigroup.from_generators([9, 3, 5, 7])
        built = dict(calls)
        assert semigroup.gap_mask == 0b10110
        assert semigroup.multiplicity == 3
        assert semigroup.minimal_generators == (3, 5, 7)
        assert semigroup.describe()["generators"] == [3, 5, 7]
        assert calls == built


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

    def test_conductor_cap(self, monkeypatch):
        """The formula is trusted, but its conductor is capped like every constructor's."""
        assert ordinary(999_999).conductor == 1_000_000
        monkeypatch.setattr(core, "range", None, raising=False)  # no tuple may be built
        with pytest.raises(LimitExceeded, match=r"^conductor 1000001 exceeds the cap 1000000$"):
            ordinary(10**6)


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

    @pytest.mark.parametrize("n", [2.5, 0.5, 3.0, 0.0, 10.0**6, True, False, "3", None])
    def test_only_an_int_is_a_member(self, n):
        """As for the constructors, ``type(n) is int``: no float, and no ``bool``."""
        assert n not in NumericalSemigroup.from_generators([3, 5, 7])

    def test_search_matches_the_small_elements_to_genus_12(self):
        """Membership searches the gaps, and no semigroup keeps a set of them."""
        for _, gaps, _ in _walk(12):
            semigroup = NumericalSemigroup._unchecked(gaps)
            for n in range(-2, semigroup.conductor + 3):
                expected = n > semigroup.conductor or n in semigroup.small_elements
                assert (n in semigroup) == expected
            both = semigroup.intersect(ordinary(1))
            assert semigroup.multiplicity == semigroup.element(1)
            for value in (*vars(semigroup).values(), *vars(both).values()):
                assert not isinstance(value, (set, frozenset))


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


# Every value a semigroup memoizes on itself, each a ``core._memo``; the last
# two are installed by ``leaps``, which this module imports.
MEMOIZED = (
    "genus",
    "conductor",
    "frobenius",
    "gap_mask",
    "_member_digits",
    "small_elements",
    "multiplicity",
    "minimal_generators",
    "_leap_profile",
    "_max_leap_jump",
)


class TestMemo:
    """``core._memo`` stores its value in the instance ``__dict__`` without taking a lock."""

    def test_every_memoized_name_is_a_cached_property(self):
        members = vars(NumericalSemigroup)
        memoized = {name for name, value in members.items() if isinstance(value, core._memo)}
        assert memoized == set(MEMOIZED)
        assert all(isinstance(members[name], cached_property) for name in MEMOIZED)
        assert isinstance(vars(LeapProfile)["_by_jump"], core._memo)

    def test_computes_once_per_instance_and_stores_in_vars(self, monkeypatch):
        original = vars(NumericalSemigroup)["small_elements"]
        calls = []

        def counted(semigroup):
            calls.append(semigroup)
            return original.func(semigroup)

        memo = core._memo(counted)
        memo.__set_name__(NumericalSemigroup, "small_elements")
        monkeypatch.setattr(NumericalSemigroup, "small_elements", memo)
        a, b = gs(1, 2, 4), gs(1, 2, 4)
        assert [a.small_elements, a.small_elements, b.small_elements] == [(0, 3, 5)] * 3
        assert [a.element(1), b.element(2)] == [3, 5]
        assert len(calls) == 2 and calls[0] is a and calls[1] is b
        assert vars(a)["small_elements"] == vars(b)["small_elements"] == (0, 3, 5)
        assert NumericalSemigroup.small_elements is memo  # read on the class: the descriptor

    def test_values_survive_a_tracer_style_rewrap(self, monkeypatch):
        """A plain ``cached_property`` around a wrapped ``func`` memoizes the same values."""
        walked = [gaps for _, gaps, _ in _walk(7)]
        expected = [
            [getattr(NumericalSemigroup._unchecked(gaps), name) for name in MEMOIZED] for gaps in walked
        ]
        read = Counter()
        for name in MEMOIZED:
            attr = vars(NumericalSemigroup)[name]

            def wrap(func, name=name):
                def traced(semigroup):
                    read[name] += 1
                    return func(semigroup)

                return traced

            rewrapped = cached_property(wrap(attr.func))
            rewrapped.__set_name__(NumericalSemigroup, name)
            monkeypatch.setattr(NumericalSemigroup, name, rewrapped)
        fresh = [NumericalSemigroup._unchecked(gaps) for gaps in walked]
        assert [[getattr(node, name) for name in MEMOIZED] for node in fresh] == expected
        assert read == {name: len(walked) for name in MEMOIZED}

    def test_concurrent_first_reads_store_equal_values(self):
        gaps = NumericalSemigroup.from_generators([31, 37, 41]).gaps
        reference = NumericalSemigroup.from_gaps(gaps)
        expected = (reference.small_elements, reference.minimal_generators)
        for _ in range(20):
            fresh = NumericalSemigroup._unchecked(gaps)
            barrier = threading.Barrier(4)
            seen = []

            def read(fresh=fresh, barrier=barrier, seen=seen):
                barrier.wait()
                seen.append((fresh.small_elements, fresh.minimal_generators))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert seen == [expected] * 4
            assert (vars(fresh)["small_elements"], vars(fresh)["minimal_generators"]) == expected


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

    def test_union_of_two_gap_sets(self):
        assert gs(1, 3).intersect(gs(1, 2, 4)) == ordinary(4)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: NumericalSemigroup.from_gaps([True]),
            InvalidGap,
            "gap values must be positive integers, got True",
        ),
        (
            lambda: NumericalSemigroup((True, 2)),
            InvalidGap,
            "gaps must be strictly increasing positive integers, got (True, 2)",
        ),
        (
            lambda: NumericalSemigroup.from_generators([True]),
            InvalidGenerator,
            "generators must be positive integers, got True",
        ),
        (lambda: is_kappa_sparse(gs(1), True), ValueError, "kappa must be an integer >= 1, got True"),
        (
            lambda: is_pure_kappa_sparse(gs(), True),
            ValueError,
            "kappa must be an integer >= 1, got True",
        ),
        (
            lambda: EnumerationRequest(3, kappa_filter=True, mode="kappa_sparse"),
            ValueError,
            "kappa must be an integer >= 1, got True",
        ),
        (
            lambda: NumericalSemigroup.from_gaps([1, True]),
            InvalidGap,
            "gap values must be positive integers, got True",
        ),
        (
            lambda: NumericalSemigroup.from_generators([1, True]),
            InvalidGenerator,
            "generators must be positive integers, got True",
        ),
        (
            lambda: NumericalSemigroup.from_gaps([1, -1, -2]),
            InvalidGap,
            "gap values must be positive integers, got -2",
        ),
        (
            lambda: NumericalSemigroup.from_generators([-4, 0, 3]),
            InvalidGenerator,
            "generators must be positive integers, got -4",
        ),
        (lambda: next(enumerate_genus(True)), ValueError, "max_genus must be an integer, got True"),
        (lambda: next(enumerate_genus(2.0)), ValueError, "max_genus must be an integer, got 2.0"),
        (lambda: run_checks(True), ValueError, "max_genus must be an integer, got True"),
        (lambda: ordinary(True), ValueError, "genus must be an integer, got True"),
        (lambda: ordinary(2.0), ValueError, "genus must be an integer, got 2.0"),
    ],
    ids=[
        "gap",
        "direct-gap",
        "generator",
        "kappa",
        "pure-kappa",
        "kappa-filter",
        "gap-after-its-equal",
        "generator-after-its-equal",
        "smallest-gap",
        "smallest-generator",
        "genus",
        "float-genus",
        "verify-genus",
        "ordinary",
        "float-ordinary",
    ],
)
def test_bool_is_not_an_integer(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
