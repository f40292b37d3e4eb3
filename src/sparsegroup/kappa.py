"""Kappa-sparse and pure kappa-sparse decision procedures and classification."""

from __future__ import annotations

from collections import namedtuple

from .core import NumericalSemigroup, SemigroupError, _check_conductor
from .ideals import is_arf_double
from .leaps import Leap, is_hyperelliptic, leap_profile, max_leap_jump


class InvalidParameters(SemigroupError):
    """Parameters outside the defining range of the two-block family."""


def _require_kappa(kappa: int, minimum: int) -> None:
    if type(kappa) is not int or kappa < minimum:
        raise ValueError(f"kappa must be an integer >= {minimum}, got {kappa!r}")


def is_kappa_sparse_profile(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via the profile: leaps with jump <= kappa account for the genus."""
    _require_kappa(kappa, 1)
    return leap_profile(semigroup).count_up_to(kappa) == semigroup.genus


def is_kappa_sparse_gapdiff(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via gap spacing: consecutive gaps differ by at most kappa."""
    _require_kappa(kappa, 1)
    return max_leap_jump(semigroup) <= kappa


def is_kappa_sparse(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Production decision procedure: the gap-spacing form, O(genus)."""
    return is_kappa_sparse_gapdiff(semigroup, kappa)


def is_kappa_sparse_nongap(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via member spacing: kappa - 1 member steps span at least kappa.

    Only defined for kappa >= 2; the quantifier range degenerates at kappa = 1.
    """
    _require_kappa(kappa, 2)
    small = semigroup.small_elements
    span = len(small) - 1  # == conductor - genus
    return all(
        small[i + kappa - 2] - small[i - 1] >= kappa
        for i in range(1, span - kappa + 3)
    )


def is_kappa_sparse_run(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Class test via runs: no kappa consecutive members start below the conductor.

    The run's starting point must be a positive member below the conductor
    c.  Such a run also ends below c, because c - 1 is a gap, so every mask
    covers [0, c).  Only defined for kappa >= 2.
    Bit x of ``starts`` is set when x, ..., x + kappa - 1 are all members.

    Runs are built by doubling, O(log kappa) big-int operations: if ``run``
    marks the starts of k consecutive members, ``run & (run >> k)`` marks
    those of 2k, and ``starts`` collects one such block per binary digit of
    kappa, each shifted past the blocks before it.
    """
    _require_kappa(kappa, 2)
    run = ((1 << semigroup.conductor) - 1) & ~semigroup.gap_mask  # runs of length 1
    length = 1
    starts = run & ~1  # candidate starts: the positive members below c
    covered = 0  # run length that ``starts`` already checks
    remaining = kappa
    while True:
        if remaining & 1:
            starts &= run >> covered
            covered += length
        remaining >>= 1
        if not remaining:
            return not starts
        run &= run >> length
        length *= 2


def is_pure_kappa_sparse(semigroup: NumericalSemigroup, kappa: int) -> bool:
    """Membership in the pure class: kappa-sparse with a leap of jump exactly kappa.

    kappa = 1 denotes the unit class containing only the full naturals.
    """
    _require_kappa(kappa, 1)
    if kappa == 1:
        return semigroup.genus == 0
    return is_kappa_sparse(semigroup, kappa) and leap_profile(semigroup).v(kappa) != 0


def sparseness_index(semigroup: NumericalSemigroup) -> int:
    """The unique kappa whose pure class contains the semigroup.

    Computed directly as the largest leap jump (1 for the full naturals)
    rather than by searching kappa upward.
    """
    return max_leap_jump(semigroup) if semigroup.genus else 1


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
    _require_kappa(kappa, 2)
    g = semigroup.genus
    if g == 0:
        raise ValueError("positive genus required")
    K = 2 * g - semigroup.frobenius
    profile = leap_profile(semigroup)
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
    profile = leap_profile(semigroup)
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
    gaps = semigroup.gaps
    witness = next(
        (Leap(lo, hi) for lo, hi in zip((-1,) + gaps, gaps) if hi - lo == index), None
    )
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
