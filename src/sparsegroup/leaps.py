"""Leap statistics: consecutive-gap pairs, their jump sizes, and counts."""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property

from .core import NumericalSemigroup, _read_only


class Leap(namedtuple("Leap", "lo hi")):
    """Pair of consecutive gaps; the first leap starts at the sentinel -1."""

    __slots__ = ()

    @property
    def jump(self) -> int:
        return self.hi - self.lo


class LeapProfile:
    """Counts of leaps keyed by jump size, with zero counts omitted.

    Stored as an ascending tuple of (jump, count) pairs so profiles are
    immutable, hashable and can key histograms.
    """

    def __init__(self, counts: tuple[tuple[int, int], ...]) -> None:
        self.__dict__["counts"] = counts

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        return self.counts == other.counts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.counts,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(counts={self.counts!r})"

    @cached_property
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

    def count_up_to(self, kappa: int) -> int:
        """Number of leaps with jump at most ``kappa``."""
        return sum(count for jump, count in self.counts if jump <= kappa)

    def weighted_total(self, kappa: int | None = None) -> int:
        """Sum of jump * count over jumps at most ``kappa`` (all jumps if None)."""
        return sum(
            jump * count
            for jump, count in self.counts
            if kappa is None or jump <= kappa
        )

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def leap_set(semigroup: NumericalSemigroup) -> tuple[Leap, ...]:
    """All leaps in gap order; empty for the full naturals."""
    gaps = semigroup.gaps
    return tuple(Leap(lo, hi) for lo, hi in zip((-1,) + gaps[:-1], gaps))


def _count_jumps(semigroup: NumericalSemigroup) -> LeapProfile:
    """The counting pass behind :func:`leap_profile`: one pass over the gaps."""
    gaps = semigroup.gaps
    counts = Counter(hi - lo for lo, hi in zip((-1,) + gaps, gaps))
    return LeapProfile(tuple(sorted(counts.items())))


def _scan_largest_jump(semigroup: NumericalSemigroup) -> int:
    """The scan behind :func:`max_leap_jump`: one pass over the gaps."""
    best = 0
    previous = -1
    for gap in semigroup.gaps:
        if gap - previous > best:
            best = gap - previous
        previous = gap
    return best


# Each statistic is memoized in the instance ``__dict__``, as ``cached_property``
# does for ``small_elements``.  Each key is filled only by its own pass, so the
# gap-spacing decider never reads the profile and the profile-sum decider never
# reads the jump.


def leap_profile(semigroup: NumericalSemigroup) -> LeapProfile:
    """Histogram of leap jumps, counted in one pass over the gaps once per object.

    The profile is kept on the instance; later calls on the same object
    return it without rescanning.
    """
    memo = semigroup.__dict__
    profile = memo.get("_leap_profile")
    if profile is None:
        profile = memo["_leap_profile"] = _count_jumps(semigroup)
    return profile


def max_leap_jump(semigroup: NumericalSemigroup) -> int:
    """Largest difference between consecutive gaps (0 when there are no gaps).

    Scanned once per object and kept on the instance, apart from the leap
    profile's memo: it is never read off the profile.
    """
    memo = semigroup.__dict__
    best = memo.get("_max_leap_jump")
    if best is None:
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
