"""Canonical representation of numerical semigroups and gap-set arithmetic."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

# Constructors refuse semigroups whose conductor exceeds this.  The cap bounds
# size, not time.  ``from_gaps`` is linear in c apart from its closure check,
# which costs a few operations on c-bit integers per minimal generator below
# c / 2 (see ``_closure_violation``).  On <2, c + 1> it took 1 ms at c = 8000, 2 ms at
# c = 16000, 26 ms at c = 2 * 10^5 and 0.14 s at c = 10^6 (Python 3.11,
# 2 cores), where the old pair scan took 0.31 s and 1.1 s at the first two.
# Many small generators keep it quadratic: with the odd numbers in [m, 2m) as
# generators it took 0.84 s at c = 2 * 10^5 and 23 s at c = 10^6.  ROADMAP
# direction 2 tracks a bound.
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


def _bitmask(values: Iterable[int], width: int) -> int:
    """The integer with bit n set for each n in ``values``, all in [0, width)."""
    if not width:
        return 0
    digits = bytearray(b"0" * width)
    for n in values:
        digits[width - 1 - n] = 49  # ord("1"); the most significant digit comes first
    return int(digits, 2)


def _closure_violation(gaps: Sequence[int]) -> tuple[int, int] | None:
    """Return the lexicographically first non-gaps x <= y with x + y a gap, or None.

    ``gaps`` is strictly increasing and non-empty.  Only sums at or below the
    largest gap ``top`` can violate closure.  With the gaps and the members
    below ``top`` as bit masks, one shift-and per x yields every y >= x whose
    sum with x is a gap, and the lowest set bit is the least such y.

    Only the x that are not sums of two smaller members need that test: when
    every smaller member x' satisfies x' + S in S, a sum x = a + b of two of
    them satisfies x + S = a + (b + S) in a + S in S.  ``spanned`` holds the
    semigroup generated by the members tested so far, so the first x that
    fails is still found, with the same least y.

    Each tested x costs O(log top) big-int operations on top-bit numbers, and
    only the minimal generators below top / 2 are tested, at most the
    multiplicity many, so the check is not linear in the worst case.  On
    <2, c + 1> it took 0.4 ms at c = 8000, 0.7 ms at c = 16000 and 10 ms at
    c = 2 * 10^5.  With the odd numbers in [m, 2m) as generators, about
    top / 12 of them are tested: 1.3 s at c = 2 * 10^5 (Python 3.11, 2 cores).
    """
    top = gaps[-1]
    gapmask = _bitmask(gaps, top + 1)
    members = ((1 << top) - 2) & ~gapmask  # the members in [1, top)
    below_top = (1 << (top + 1)) - 1
    spanned = 1
    x = 0
    while True:
        untested = (members & ~spanned) >> (x + 1)
        if not untested:
            return None
        x += (untested & -untested).bit_length()
        if 2 * x > top:
            return None
        hits = (members >> x) & (gapmask >> 2 * x)
        if hits:
            return x, x + (hits & -hits).bit_length() - 1
        step = x  # add the multiples of x: after k passes, up to 2^k - 1 copies
        while step <= top:
            spanned |= (spanned << step) & below_top
            step *= 2


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
    def _unchecked(cls, gaps: tuple[int, ...]) -> NumericalSemigroup:
        """Construction without the ``__post_init__`` scan, for gaps valid by construction.

        For gap tuples already known to be strictly increasing positive
        integers: the tree walk's, and ``from_gaps``'s own after it has
        validated, sorted and deduplicated them.  The tests check the walk
        against ``children()``, and ``verify`` revalidates every node it builds
        this way with ``from_gaps``.
        """
        semigroup = object.__new__(cls)
        object.__setattr__(semigroup, "gaps", gaps)
        return semigroup

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
            violation = _closure_violation(values)
            if violation is not None:
                x, y = violation
                raise NotASemigroup(
                    f"{x} and {y} are non-gaps but their sum {x + y} is a gap"
                )
        return cls._unchecked(tuple(values))

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
    def gap_mask(self) -> int:
        """The integer whose bit n is set exactly when n is a gap."""
        return _bitmask(self.gaps, self.conductor)

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
