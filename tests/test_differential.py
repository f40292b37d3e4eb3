"""Differential tests at classify-sized conductors, far beyond the exhaustive levels.

Semigroups come from random coprime generators with conductors up to a few
thousand.  The validated constructor and the member-run decider are checked
against the brute-force referees in ``oracle``.  The examples are derandomized,
so every run sees the same ones.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsegroup import NotASemigroup, NumericalSemigroup, is_kappa_sparse_run, sparseness_index

from oracle import closure_violation, first_member_run

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def semigroups(draw) -> NumericalSemigroup:
    """A semigroup spanned by its multiplicity m and one to three numbers in (m, 3m)."""
    m = draw(st.integers(min_value=3, max_value=40))
    others = draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=1, max_size=3, unique=True))
    assume(math.gcd(m, *others) == 1)
    return NumericalSemigroup.from_generators([m, *others])


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
