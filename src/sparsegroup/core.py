"""Canonical representation of numerical semigroups and gap-set arithmetic."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

# Constructors refuse semigroups whose conductor exceeds this.  The cap bounds
# size, not time: the closure check in ``from_gaps`` is O((c - g)^2), and for
# the odd-gap semigroup <2, c + 1> it took 0.21 s at c = 8000 and 0.81 s at
# c = 16000 (Python 3.11, 2 cores), so near the cap it would run for about an
# hour.  ROADMAP direction 4 tracks a bounded-cost check.
DEFAULT_MAX_CONDUCTOR = 1_000_000


class SemigroupError(ValueError):
    """Base class for rejected constructions and invalid inputs."""


class InvalidGap(SemigroupError):
    """A gap value is not a positive integer."""


class InvalidGenerator(SemigroupError):
    """A generator value is not a positive integer."""


class NotASemigroup(SemigroupError):
    """The complement of the proposed gap set is not closed under addition."""


class NotCofinite(SemigroupError):
    """The generators have gcd > 1, so the complement would be infinite."""


class TrivialSemigroup(SemigroupError):
    """The operation needs at least one gap but got the full set of naturals."""


class LimitExceeded(SemigroupError):
    """A size limit (conductor cap or genus cap) would be exceeded."""


def _closure_violation(gapset: set[int], top: int) -> tuple[int, int] | None:
    """Return non-gaps (x, y) with x + y a gap, or None if the complement is closed.

    Only sums landing at or below the largest gap can violate closure, so the
    scan is O((top - genus)^2).
    """
    members = [n for n in range(1, top) if n not in gapset]
    for i, x in enumerate(members):
        for y in members[i:]:
            total = x + y
            if total > top:
                break
            if total in gapset:
                return x, y
    return None


@dataclass(frozen=True)
class NumericalSemigroup:
    """A cofinite, additively closed subset of the naturals containing 0.

    The strictly increasing gap tuple is the canonical form: equality and
    hashing are structural.  Membership and generator data are derived caches.
    The direct constructor trusts its input apart from cheap shape checks;
    ``from_gaps`` and ``from_generators`` are the validating entry points.
    """

    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gaps, tuple):
            raise TypeError("gaps must be a tuple; use from_gaps() for other iterables")
        previous = 0
        for gap in self.gaps:
            if not isinstance(gap, int) or gap <= previous:
                raise InvalidGap(
                    f"gaps must be strictly increasing positive integers, got {self.gaps!r}"
                )
            previous = gap

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_gaps(
        cls,
        gaps: Iterable[int],
        *,
        max_conductor: int = DEFAULT_MAX_CONDUCTOR,
    ) -> NumericalSemigroup:
        """Validated construction from an arbitrary collection of gap values.

        Raises :class:`InvalidGap` for non-positive entries, :class:`NotASemigroup`
        when the complement is not additively closed, and :class:`LimitExceeded`
        when the conductor would pass ``max_conductor``.
        """
        collected = set(gaps)
        for value in collected:
            if not isinstance(value, int) or value < 1:
                raise InvalidGap(f"gap values must be positive integers, got {value!r}")
        values = sorted(collected)
        if values and values[-1] >= max_conductor:
            raise LimitExceeded(
                f"conductor {values[-1] + 1} exceeds the cap {max_conductor}"
            )
        if values:
            violation = _closure_violation(set(values), values[-1])
            if violation is not None:
                x, y = violation
                raise NotASemigroup(
                    f"{x} and {y} are non-gaps but their sum {x + y} is a gap"
                )
        return cls(tuple(values))

    @classmethod
    def from_generators(
        cls,
        generators: Iterable[int],
        *,
        max_conductor: int = DEFAULT_MAX_CONDUCTOR,
    ) -> NumericalSemigroup:
        """Smallest numerical semigroup containing ``generators``.

        Defined exactly when the generators are coprime as a set; otherwise the
        complement is infinite and :class:`NotCofinite` is raised.
        """
        collected = set(generators)
        if not collected:
            raise NotCofinite("an empty generating set spans only {0}")
        for value in collected:
            if not isinstance(value, int) or value < 1:
                raise InvalidGenerator(
                    f"generators must be positive integers, got {value!r}"
                )
        values = sorted(collected)
        if math.gcd(*values) != 1:
            raise NotCofinite(
                f"generators {values} have gcd {math.gcd(*values)}; complement is infinite"
            )
        if values[0] == 1:
            return cls(())

        # Reachability sweep.  The conductor provably sits below
        # min * max, and the first run of `min` consecutive reachable
        # numbers marks the point past which everything is reachable.
        lowest = values[0]
        limit = min(lowest * values[-1], max_conductor + lowest) + 1
        reachable = bytearray(limit)
        reachable[0] = 1
        run = 0
        conductor = -1
        for n in range(1, limit):
            hit = 0
            for a in values:
                if a > n:
                    break
                if reachable[n - a]:
                    hit = 1
                    break
            reachable[n] = hit
            if hit:
                run += 1
                if run == lowest:
                    conductor = n - lowest + 1
                    break
            else:
                run = 0
        if conductor < 0 or conductor > max_conductor:
            raise LimitExceeded(
                f"semigroup generated by {values} has conductor above the cap {max_conductor}"
            )
        return cls(tuple(n for n in range(1, conductor) if not reachable[n]))

    # ------------------------------------------------------------------
    # derived quantities

    @property
    def genus(self) -> int:
        """Number of gaps."""
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        """Smallest c with every integer >= c a member (0 for the full naturals)."""
        return self.gaps[-1] + 1 if self.gaps else 0

    @property
    def frobenius(self) -> int:
        """Largest non-member, with the conventional value -1 for the full naturals."""
        return self.conductor - 1

    @cached_property
    def _gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @cached_property
    def small_elements(self) -> tuple[int, ...]:
        """Members from 0 up to and including the conductor."""
        gapset = self._gap_set
        return tuple(n for n in range(self.conductor + 1) if n not in gapset)

    @cached_property
    def multiplicity(self) -> int:
        """Smallest positive member."""
        return self.element(1)

    def element(self, k: int) -> int:
        """The k-th member in increasing order, 0-indexed from the member 0."""
        if k < 0:
            raise ValueError(f"member index must be non-negative, got {k}")
        small = self.small_elements
        if k < len(small):
            return small[k]
        return self.conductor + (k - len(small) + 1)

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= self.conductor or n not in self._gap_set

    def contains(self, n: int) -> bool:
        """Membership test; negative integers are never members."""
        return n in self

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set.

        A nonzero member is a minimal generator exactly when it is not a sum
        of two nonzero members; candidates live in [multiplicity,
        conductor + multiplicity - 1].
        """
        lowest = self.multiplicity
        out = []
        for h in range(lowest, max(self.conductor + lowest, lowest + 1)):
            if h not in self:
                continue
            if any(x in self and (h - x) in self for x in range(lowest, h - lowest + 1)):
                continue
            out.append(h)
        return tuple(out)

    # ------------------------------------------------------------------
    # closure operations

    def intersect(self, other: NumericalSemigroup) -> NumericalSemigroup:
        """Intersection of two semigroups; the gap sets simply union."""
        return NumericalSemigroup(tuple(sorted(self._gap_set | other._gap_set)))

    __and__ = intersect

    def adjoin_frobenius(self) -> NumericalSemigroup:
        """Fill the largest gap, dropping the genus by exactly one."""
        if not self.gaps:
            raise TrivialSemigroup("the full set of naturals has no gap to fill")
        return NumericalSemigroup(self.gaps[:-1])

    # ------------------------------------------------------------------
    # interchange formats

    def describe(self) -> dict:
        """JSON-ready summary in the interchange key order."""
        return {
            "gaps": list(self.gaps),
            "generators": list(self.minimal_generators),
            "genus": self.genus,
            "conductor": self.conductor,
            "frobenius": self.frobenius,
        }


def ordinary(genus: int) -> NumericalSemigroup:
    """The semigroup {0} together with every integer above ``genus``."""
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    return NumericalSemigroup(tuple(range(1, genus + 1)))


def parse_gap_line(line: str) -> NumericalSemigroup:
    """Parse one line of the gap-list text format; an empty line is the full naturals."""
    text = line.strip()
    if not text:
        return NumericalSemigroup(())
    try:
        values = [int(token) for token in text.split(",")]
    except ValueError as exc:
        raise InvalidGap(f"cannot parse gap list {text!r}: {exc}") from None
    return NumericalSemigroup.from_gaps(values)


def format_gap_line(semigroup: NumericalSemigroup) -> str:
    """Inverse of :func:`parse_gap_line`."""
    return ",".join(str(gap) for gap in semigroup.gaps)
