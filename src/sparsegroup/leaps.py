"""Leap statistics: consecutive-gap pairs, their jump sizes, and counts."""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import sub

from .core import NumericalSemigroup, _memo, _Value


class Leap(namedtuple("Leap", "lo hi")):
    """Pair of consecutive gaps; the first leap starts at the sentinel -1."""

    __slots__ = ()

    @property
    def jump(self) -> int:
        return self.hi - self.lo


class LeapProfile(_Value):
    """Counts of leaps keyed by jump size, with zero counts omitted.

    Stored as an ascending tuple of (jump, count) pairs so profiles are
    immutable, hashable and can key histograms.
    """

    _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]) -> None:
        self.__dict__["counts"] = counts

    @_memo
    def _by_jump(self) -> dict[int, int]:
        return dict(self.counts)

    def v(self, jump: int) -> int:
        """Count of leaps with the given jump (0 when absent)."""
        return self._by_jump.get(jump, 0)

    @property
    def total(self) -> int:
        """Total leap count, which equals the genus for a semigroup profile."""
        return sum(count for _, count in self.counts)

    @property
    def max_jump(self) -> int:
        """Largest jump present; 0 for the empty profile."""
        return self.counts[-1][0] if self.counts else 0

    # The truncated sums are plain loops that stop at the first jump above kappa,
    # as the ascending order allows: the deciders call them per (semigroup, kappa).

    def count_up_to(self, kappa: int) -> int:
        """Number of leaps with jump at most ``kappa``."""
        total = 0
        for jump, count in self.counts:
            if jump > kappa:
                break
            total += count
        return total

    def weighted_total(self, kappa: int | None = None) -> int:
        """Sum of jump * count over jumps at most ``kappa`` (all jumps if None)."""
        if kappa is None:
            kappa = self.max_jump
        total = 0
        for jump, count in self.counts:
            if jump > kappa:
                break
            total += jump * count
        return total


def leap_set(semigroup: NumericalSemigroup) -> tuple[Leap, ...]:
    """All leaps in gap order; empty for the full naturals.

    Each ``Leap`` is made by ``tuple.__new__`` straight from its pair, so no Python frame runs per leap.
    """
    gaps = semigroup.gaps
    return tuple(map(tuple.__new__, repeat(Leap), zip((-1,) + gaps[:-1], gaps)))


def _count_jumps(semigroup: NumericalSemigroup) -> LeapProfile:
    """The counting pass behind :func:`leap_profile`: one pass over the gaps."""
    gaps = semigroup.gaps
    counts = Counter(map(sub, gaps, (-1,) + gaps))
    return LeapProfile(tuple(sorted(counts.items())))


def _scan_largest_jump(semigroup: NumericalSemigroup) -> int:
    """The scan behind :func:`max_leap_jump`: one pass over the gaps."""
    gaps = semigroup.gaps
    return max(map(sub, gaps, (-1,) + gaps), default=0)


# Each statistic is memoized in the instance ``__dict__``, as ``core._memo`` does
# for ``small_elements``, and like it without a lock: a race on a first read
# scans twice and stores equal values.  Each key is filled only by its own pass,
# so the gap-spacing decider never reads the profile and the profile-sum decider
# never reads the jump.  A hit is one lookup in a ``try``, since the deciders
# read them once per (semigroup, kappa).


def leap_profile(semigroup: NumericalSemigroup) -> LeapProfile:
    """Histogram of leap jumps, counted in one pass over the gaps once per object.

    The profile is kept on the instance; later calls on the same object
    return it without rescanning.
    """
    memo = semigroup.__dict__
    try:
        return memo["_leap_profile"]
    except KeyError:
        profile = memo["_leap_profile"] = _count_jumps(semigroup)
        return profile


def max_leap_jump(semigroup: NumericalSemigroup) -> int:
    """Largest difference between consecutive gaps (0 when there are no gaps).

    Scanned once per object and kept on the instance, apart from the leap
    profile's memo: it is never read off the profile.
    """
    memo = semigroup.__dict__
    try:
        return memo["_max_leap_jump"]
    except KeyError:
        best = memo["_max_leap_jump"] = _scan_largest_jump(semigroup)
        return best


def frobenius_from_profile(profile: LeapProfile) -> int:
    """Weighted leap total minus one; the empty profile gives -1.

    Total on arbitrary profiles, but only meaningful when the profile comes
    from an actual semigroup, where it reproduces the Frobenius number.
    """
    return profile.weighted_total() - 1


def is_hyperelliptic(semigroup: NumericalSemigroup) -> bool:
    """Whether 2 is a member."""
    return 2 in semigroup


def is_sparse(semigroup: NumericalSemigroup) -> bool:
    """Whether every leap jump is at most 2 (true for the full naturals)."""
    return max_leap_jump(semigroup) <= 2
