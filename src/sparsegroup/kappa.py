"""Kappa-sparse and pure kappa-sparse decision procedures and classification."""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from .core import NumericalSemigroup, SemigroupError, _check_conductor, _require_kappa
from .leaps import Leap, is_hyperelliptic


class InvalidParameters(SemigroupError):
    """Parameters outside the defining range of the two-block family."""


# Each decider tests its kappa inline and calls ``_require_kappa``, the one
# holder of the error text, only to raise: verify calls them per (node, kappa).
# For the same reason they read the leap statistics as the ``_leap_profile``
# and ``_max_leap_jump`` attributes that importing ``leaps`` installs, not
# through ``leap_profile`` and ``max_leap_jump``.


def is_kappa_sparse_profile(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via the profile: leaps with jump <= kappa account for the genus."""
    if type(kappa) is not int or kappa < 1:
        _require_kappa(kappa, 1)
    return semigroup._leap_profile.count_up_to(kappa) == semigroup.genus


def is_kappa_sparse_gapdiff(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via gap spacing: consecutive gaps differ by at most kappa."""
    if type(kappa) is not int or kappa < 1:
        _require_kappa(kappa, 1)
    return semigroup._max_leap_jump <= kappa


def is_kappa_sparse(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Production decision procedure: the gap-spacing form, O(genus) once per object.

    It repeats the gap-spacing test rather than forwarding to it, and reads
    the largest jump as the attribute ``leaps`` memoizes it under, so that a
    warm class query, asked per (node, kappa), runs this one frame and no other.
    """
    if type(kappa) is not int or kappa < 1:
        _require_kappa(kappa, 1)
    return semigroup._max_leap_jump <= kappa


def is_kappa_sparse_nongap(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via member spacing: kappa - 1 member steps span at least kappa.

    Only defined for kappa >= 2; the quantifier range degenerates at kappa = 1.
    """
    if type(kappa) is not int or kappa < 2:
        _require_kappa(kappa, 2)
    small = semigroup.small_elements
    # small[j + kappa - 1] - small[j] for each window of kappa members; with fewer members there
    # is no window and the test holds vacuously (written out: a keyword to ``min`` costs per call)
    return len(small) < kappa or min(map(sub, small[kappa - 1 :], small)) >= kappa


def is_kappa_sparse_run(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via runs: no kappa consecutive members start below the conductor.

    The test is one substring search of the semigroup's member digits over
    [0, c].  For positive genus digit 1 is a gap, and so is digit c - 1, so
    for kappa >= 2 no run of kappa ones touches digit 0 or c: every such run
    lies among the positive members below c.  Every kappa >= c answers True
    before any pattern is built, also for the full naturals (c = 0).  Only
    defined for kappa >= 2.
    """
    if type(kappa) is not int or kappa < 2:
        _require_kappa(kappa, 2)
    return kappa >= semigroup.conductor or "1" * kappa not in semigroup._member_digits


def is_pure_kappa_sparse(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Membership in the pure class: kappa-sparse with a leap of jump exactly kappa.

    kappa = 1 denotes the unit class containing only the full naturals.
    """
    if type(kappa) is not int or kappa < 1:
        _require_kappa(kappa, 1)
    if kappa == 1:
        return semigroup.genus == 0
    # a profile omits zero counts, so a jump it holds is a key of ``_by_jump``
    return semigroup._max_leap_jump <= kappa and kappa in semigroup._leap_profile._by_jump


def sparseness_index(semigroup: NumericalSemigroup) -> int:
    """The unique kappa whose pure class contains the semigroup.

    Computed directly as the largest leap jump (1 for the full naturals)
    rather than by searching kappa upward.
    """
    return semigroup._max_leap_jump if semigroup.genus else 1


def example_family(a: int, kappa: int) -> NumericalSemigroup:
    """The two-block semigroup {a, ..., a + kappa - 2} plus everything from 2a.

    Needs kappa >= 3 and a >= kappa; the result has genus 2a - kappa,
    multiplicity a, and is pure kappa-sparse.
    """
    if type(kappa) is not int or type(a) is not int or kappa < 3 or a < kappa:
        raise InvalidParameters(f"need kappa >= 3 and a >= kappa, got a={a!r}, kappa={kappa!r}")
    _check_conductor(2 * a)
    gaps = tuple(range(1, a)) + tuple(range(a + kappa - 1, 2 * a))
    return NumericalSemigroup._unchecked(gaps)


def frobenius_identity_check(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Both truncated leap-sum identities for K = 2 * genus - frobenius.

    Equivalent to the kappa-sparse property for positive genus.
    """
    if type(kappa) is not int or kappa < 2:
        _require_kappa(kappa, 2)
    g = semigroup.genus
    if g == 0:
        raise ValueError("positive genus required")
    K = 2 * g - semigroup.frobenius
    profile = semigroup._leap_profile
    weighted = profile.weighted_total(kappa)
    return (
        weighted == 2 * g - K + 1
        and weighted - profile.count_up_to(kappa) == g - K + 1
    )


def sparseness_report(semigroup: NumericalSemigroup, kappa: int) -> tuple[tuple[str, bool], ...]:
    """The (name, verdict) pairs of every kappa-sparse decider that applies at ``kappa``."""
    checks = [
        ("profile_sum", is_kappa_sparse_profile(semigroup, kappa)),
        ("gap_spacing", is_kappa_sparse_gapdiff(semigroup, kappa)),
    ]
    if kappa >= 2:
        checks.append(("member_spacing", is_kappa_sparse_nongap(semigroup, kappa)))
        checks.append(("member_run", is_kappa_sparse_run(semigroup, kappa)))
    return tuple(checks)


class Classification(
    namedtuple(
        "Classification",
        "genus conductor frobenius multiplicity hyperelliptic arf sparse sparseness_index"
        " figure_class profile pure_witness checks",
    )
):
    """Per-semigroup report of derived quantities and class memberships.

    ``profile`` is the :class:`LeapProfile`, ``pure_witness`` the first
    :class:`Leap` whose jump is the sparseness index (None for the full
    naturals), and ``checks`` holds the deciders' (name, verdict) pairs at
    that index.  Fields run in the order ``classify`` prints them.
    """

    __slots__ = ()


def classify(semigroup: NumericalSemigroup) -> Classification:
    """Full classification, labelled by the most specific class in the chain.

    The chain runs trivial < ordinary < arf < sparse < pure-kappa-sparse, and
    every semigroup is pure for exactly one kappa, its sparseness index,
    read here off the leap profile as its largest jump.
    """
    from .ideals import is_arf_double  # only classify runs an Arf test

    profile = semigroup._leap_profile
    index = profile.max_jump or 1  # the full naturals have no leap and index 1
    sparse = index <= 2
    arf = is_arf_double(semigroup)
    genus = semigroup.genus
    if genus == 0:
        label = "trivial"
    elif semigroup.conductor == genus + 1:  # genus gaps below genus + 1: exactly 1..genus
        label = "ordinary"
    elif arf:
        label = "arf"
    elif sparse:
        label = "sparse"
    else:
        label = f"pure-{index}-sparse"
    # The first leap with the largest jump, read off the member digits.  For positive genus
    # 1 is a gap, so the first leap is (-1, 1), of jump 2; a larger jump is a gap, index - 1
    # members and a gap.  The full naturals (index 1) have no leap.
    witness = None
    if index == 2:
        witness = Leap(-1, 1)
    elif index > 2:
        lo = semigroup._member_digits.find("0" + "1" * (index - 1) + "0")
        witness = Leap(lo, lo + index)
    return Classification(
        genus=genus,
        conductor=semigroup.conductor,
        frobenius=semigroup.frobenius,
        multiplicity=semigroup.multiplicity,
        hyperelliptic=is_hyperelliptic(semigroup),
        arf=arf,
        sparse=sparse,
        sparseness_index=index,
        figure_class=label,
        profile=profile,
        pure_witness=witness,
        checks=sparseness_report(semigroup, index),
    )
