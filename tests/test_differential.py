"""Differential tests at classify-sized conductors, far beyond the exhaustive levels.

Semigroups come from random coprime generators with conductors up to a few
thousand.  The validated constructors, the minimal generators, the
member-run decider and the Arf test are checked against the brute-force
referees in ``oracle``.  Random generators almost never span an Arf
semigroup, so the Arf test also runs on Arf semigroups built backwards from
the naturals and on their one-number near misses.  ``ideal_difference`` is
checked against the shift scan on random cofinite sets and on shifted tail
ideals, and the bit-mask kernels against plain sums of powers of two.  The
examples are derandomized, so every run sees the same ones.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsegroup import (
    LimitExceeded,
    NotASemigroup,
    NumericalSemigroup,
    RelativeIdeal,
    ideal_at,
    ideal_difference,
    is_arf_double,
    is_kappa_sparse_run,
    sparseness_index,
)
from sparsegroup import core

import oracle
from oracle import (
    brute_force_from_generators,
    closure_violation,
    first_member_run,
    is_arf,
    minimal_generators,
)

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def semigroups(draw) -> NumericalSemigroup:
    """A semigroup spanned by its multiplicity m and one to three numbers in (m, 3m)."""
    m = draw(st.integers(min_value=3, max_value=40))
    others = draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=1, max_size=3, unique=True))
    assume(math.gcd(m, *others) == 1)
    return NumericalSemigroup.from_generators([m, *others])


@st.composite
def arf_semigroups(draw) -> NumericalSemigroup:
    """An Arf semigroup built backwards from the naturals, with conductor up to about 10^4.

    Starting from T = N, each step replaces T with {0} u (m + T) for m the
    least member of T at or above a drawn n >= 2.  Each step keeps T Arf, and
    the steps' m are the differences of consecutive members up to the
    conductor (Garcia-Sanchez, Heredia, Karakas and Rosales, 2017).
    """
    gaps: list[int] = []
    for n in draw(st.lists(st.integers(2, 400), min_size=1, max_size=25)):
        gapset = set(gaps)
        m = next(k for k in itertools.count(n) if k not in gapset)
        gaps = [*range(1, m), *(m + g for g in gaps)]
    return NumericalSemigroup.from_gaps(gaps)


@st.composite
def generator_sets(draw) -> list[int]:
    """Two to six numbers in [2, 80] with gcd 1, in any order, redundant ones allowed."""
    values = draw(st.lists(st.integers(2, 80), min_size=2, max_size=6))
    assume(math.gcd(*values) == 1)
    return values


@EXAMPLES
@given(semigroups(), st.data())
def test_from_gaps_matches_the_pair_scan_after_one_toggle(semigroup, data):
    gaps = semigroup.gaps
    assert closure_violation(gaps) is None
    assert NumericalSemigroup.from_gaps(gaps) == semigroup
    toggled = data.draw(st.integers(1, semigroup.conductor + semigroup.multiplicity))
    perturbed = tuple(sorted(set(gaps) ^ {toggled}))
    violation = closure_violation(perturbed)
    if violation is None:
        assert NumericalSemigroup.from_gaps(perturbed).gaps == perturbed
    else:
        x, y = violation
        with pytest.raises(NotASemigroup) as excinfo:
            NumericalSemigroup.from_gaps(perturbed)
        assert str(excinfo.value) == f"{x} and {y} are non-gaps but their sum {x + y} is a gap"


@EXAMPLES
@given(semigroups())
def test_member_run_matches_the_run_scan(semigroup):
    index = sparseness_index(semigroup)
    for kappa in range(2, index + 2):
        expected = first_member_run(semigroup.gaps, kappa) is None
        assert is_kappa_sparse_run(semigroup, kappa) == expected


def assert_handed_over_data_is_recomputed(semigroup: NumericalSemigroup) -> None:
    """``from_generators`` hands over its gap mask and minimal generators; the properties rebuild them."""
    recomputed = NumericalSemigroup._unchecked(semigroup.gaps)
    assert recomputed.minimal_generators == minimal_generators(semigroup.gaps)
    assert semigroup.minimal_generators == recomputed.minimal_generators
    assert semigroup.gap_mask == recomputed.gap_mask


@EXAMPLES
@given(semigroups())
def test_minimal_generators_match_the_pair_scan(semigroup):
    """``semigroups()`` builds through ``from_generators``, so the property runs on a fresh copy."""
    assert_handed_over_data_is_recomputed(semigroup)


@EXAMPLES
@given(generator_sets())
@example([1])
@example([2, 3])
@example([3, 6, 5, 7])  # 6 = 3 + 3 is redundant
@example([3, 5, 7, 100])  # 100 is above the conductor 5
@example([11, 13])  # conductor 120: the window doubles from 26 up to 144
def test_from_generators_hands_over_what_the_properties_recompute(generators):
    assert_handed_over_data_is_recomputed(NumericalSemigroup.from_generators(generators))


@EXAMPLES
@given(generator_sets())
def test_from_generators_matches_the_saturated_sums(generators):
    semigroup = NumericalSemigroup.from_generators(generators)
    bound = semigroup.conductor + max(generators)
    reachable = brute_force_from_generators(generators, bound)
    assert semigroup.gaps == tuple(n for n in range(bound) if n not in reachable)
    assert all(g in semigroup for g in generators)
    assert set(semigroup.minimal_generators) <= set(generators)
    assert NumericalSemigroup.from_gaps(semigroup.gaps) == semigroup
    assert NumericalSemigroup.from_generators(semigroup.minimal_generators) == semigroup


@EXAMPLES
@given(generator_sets())
def test_from_generators_accepts_the_conductor_as_cap_and_rejects_one_less(generators):
    """Refused with one text at one less, and where the window stops before it closes.

    With the cap c - m - 1 the window stops at c, so its top m numbers hold the gap c - 1.
    """
    semigroup = NumericalSemigroup.from_generators(generators)
    values = sorted(set(generators))
    conductor = semigroup.conductor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "DEFAULT_MAX_CONDUCTOR", conductor)
        assert NumericalSemigroup.from_generators(generators) == semigroup
        for cap in (conductor - 1, conductor - semigroup.multiplicity - 1):
            patch.setattr(core, "DEFAULT_MAX_CONDUCTOR", cap)
            with pytest.raises(LimitExceeded) as excinfo:
                NumericalSemigroup.from_generators(generators)
            assert str(excinfo.value) == (
                f"semigroup generated by {values} has conductor above the cap {cap}"
            )


@EXAMPLES
@given(semigroups())
def test_arf_double_matches_the_all_pairs_scan(semigroup):
    assert is_arf_double(semigroup) == is_arf(semigroup.gaps)


@EXAMPLES
@given(arf_semigroups(), st.data())
def test_arf_double_matches_the_all_pairs_scan_near_arf_semigroups(semigroup, data):
    """Each built semigroup is Arf; toggling one number below the conductor may break that.

    The toggle removes a member below the conductor, which keeps a semigroup
    when the member is a minimal generator, or fills a gap g with g + m past
    the Frobenius number, which keeps one when 2g is past it too.  Other
    toggles almost never keep one.
    """
    assert is_arf(semigroup.gaps)
    assert is_arf_double(semigroup)
    members = semigroup.small_elements[1:-1]
    top_gaps = [g for g in semigroup.gaps if g + semigroup.multiplicity > semigroup.frobenius]
    toggled = data.draw(st.sampled_from(members + tuple(top_gaps)))
    try:
        near = NumericalSemigroup.from_gaps(set(semigroup.gaps) ^ {toggled})
    except NotASemigroup:
        return
    assert is_arf_double(near) == is_arf(near.gaps)


@EXAMPLES
@given(semigroups())
def test_multiplicity_is_the_first_positive_element(semigroup):
    assert semigroup.multiplicity == semigroup.element(1)


@EXAMPLES
@given(st.sets(st.integers(0, 200)), st.integers(0, 3))
@example(set(), 0)  # width 0
@example(set(), 5)  # mask 0
@example({63}, 0)  # the top bit of the width
@example({0, 64}, 0)
def test_bits_inverts_bitmask(values, spare):
    width = max(values, default=-1) + 1 + spare
    mask = core._bitmask(values, width)
    assert mask == sum(1 << n for n in values)
    assert core._bits(mask) == tuple(sorted(values))


@st.composite
def relative_ideals(draw) -> RelativeIdeal:
    """Any cofinite set of integers in canonical form, with a base from -15 to 15."""
    threshold = draw(st.integers(-15, 15))
    below = draw(st.sets(st.integers(threshold - 12, threshold - 1), max_size=12))
    return RelativeIdeal.from_members(below, threshold)


def assert_difference_matches_the_shift_scan(left: RelativeIdeal, right: RelativeIdeal) -> None:
    """Every z from three below base(left) - base(right) to three past the top, and the canonical form."""
    difference = ideal_difference(left, right)
    start, stop = left.base - right.base - 3, left.threshold - right.base + 3
    accepted = oracle.ideal_difference(
        (left.threshold, left.members), (right.threshold, right.members), start, stop
    )
    assert accepted[-3:] == tuple(range(stop - 3, stop))
    threshold = stop
    while threshold - 1 in accepted:
        threshold -= 1
    members = tuple(z for z in accepted if z < threshold)
    base = members[0] if members else threshold
    assert (difference.base, difference.threshold, difference.members) == (base, threshold, members)


@EXAMPLES
@given(relative_ideals(), relative_ideals())
@example(RelativeIdeal.from_members([], 0), RelativeIdeal.from_members([], 0))
@example(RelativeIdeal.from_members([-9, -5], -2), RelativeIdeal.from_members([4], 7))
def test_ideal_difference_matches_the_shift_scan(left, right):
    assert_difference_matches_the_shift_scan(left, right)


@EXAMPLES
@given(semigroups(), st.data())
def test_ideal_difference_of_shifted_tail_ideals_matches_the_shift_scan(semigroup, data):
    """Tail ideals of a semigroup, each shifted by -40 to 10, so bases are often negative."""
    count = len(semigroup.small_elements)
    left, right = (
        ideal_at(semigroup, data.draw(st.integers(0, count))).shift(data.draw(st.integers(-40, 10)))
        for _ in range(2)
    )
    assert_difference_matches_the_shift_scan(left, right)
