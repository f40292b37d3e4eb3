"""Canonical representation of numerical semigroups and gap-set arithmetic."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import compress, count
from operator import attrgetter, lt

# Constructors refuse semigroups whose conductor exceeds this.  The cap bounds
# size; ``MAX_SPANNING_WORK`` bounds time.  ``from_gaps``, ``from_generators`` and
# ``minimal_generators`` spend a few shift-ors on c-bit integers per minimal
# generator they span (``_spanning``): 0.13-0.31 s each at c = 10^6 on <2, c + 1>,
# <1000, c + 1, ..., c + 999> and <9889, ..., 9988>.  A whole ``classify --file``
# run took about 0.2 s at c = 10^5 and 0.75-0.9 s at 10^6 on <2, c + 1> and
# example_family(c/2, c/2) (Python 3.11, shared 2-core host).
DEFAULT_MAX_CONDUCTOR = 1_000_000

# The deepest genus the command line walks unless ``enumerate --cap`` says
# otherwise; library walks are not capped.  It is defined here, beside the
# conductor cap, so that the command-line parser loads no walk to read it.
DEFAULT_GENUS_CAP = 18

# One ``_spanning`` pass refuses to span more numbers than this divided by the
# bits of its window, since each costs a few shift-ors over the whole window.
# Many small generators, the odd numbers in [m, 2m) with c = 3m, took 111 s in
# ``from_generators`` at c = 10^6 with 2 * 10^11 of this work, and 2.6 s for
# ``info`` at c = 10^5 with 4.4 * 10^9.  Every input the tests and the README
# expect to be accepted needs at most 2 * 10^8; the slowest accepted ``info``
# found takes about 1.3 s (same host).
MAX_SPANNING_WORK = 2_000_000_000


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
    """A limit (conductor cap, spanning work cap or genus cap) would be exceeded."""


def _bitmask(values: Iterable[int], width: int) -> int:
    """The integer with bit n set for each n in ``values``, all in [0, width)."""
    if not width:
        return 0
    digits = bytearray(b"0" * width)
    for n in values:
        digits[n] = 49  # ord("1"); reversed below, so the most significant digit comes first
    return int(digits[::-1], 2)


def _distinct_positive(
    values: Iterable[int], error: type[SemigroupError], what: str
) -> tuple[int, ...]:
    """The distinct ``values`` in increasing order, all positive ``int``, or ``error`` naming one.

    The types are checked first, before the set can merge ``True`` into 1, and
    the first value that is not an ``int`` is named; then the smallest value,
    if it is not positive.
    """
    given = list(values)
    if not set(map(type, given)) <= {int}:
        offender = next(value for value in given if type(value) is not int)
        raise error(f"{what} must be positive integers, got {offender!r}")
    ordered = sorted(set(given))
    if ordered and ordered[0] < 1:
        raise error(f"{what} must be positive integers, got {ordered[0]!r}")
    return tuple(ordered)


def _require_kappa(kappa: int, minimum: int) -> None:
    """Refuse a kappa that is not an ``int`` of at least ``minimum``: one text for every caller."""
    if type(kappa) is not int or kappa < minimum:
        raise ValueError(f"kappa must be an integer >= {minimum}, got {kappa!r}")


def _require_genus(genus: int, name: str) -> None:
    """Refuse a genus that is not a non-negative ``int``, the type first: one text for every caller."""
    if type(genus) is not int:
        raise ValueError(f"{name} must be an integer, got {genus!r}")
    if genus < 0:
        raise ValueError(f"{name} must be non-negative, got {genus}")


def _check_conductor(conductor: int) -> None:
    """Refuse a conductor above ``DEFAULT_MAX_CONDUCTOR``, before anything of its size is built."""
    if conductor > DEFAULT_MAX_CONDUCTOR:
        raise LimitExceeded(f"conductor {conductor} exceeds the cap {DEFAULT_MAX_CONDUCTOR}")


def _check_genus(genus: int, cap: int = DEFAULT_GENUS_CAP) -> None:
    """Refuse a walk deeper than ``cap``; a negative genus is left for ``_require_genus``."""
    if 0 <= genus and cap < genus:
        raise LimitExceeded(f"max_genus {genus} exceeds the cap {cap}")


_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")  # so that ``compress`` keeps the "1" digits


def _ones(digits: str) -> tuple[int, ...]:
    """The positions of the "1" digits of a string of binary digits, in ascending order."""
    return tuple(compress(count(), digits.encode().translate(_DIGIT_VALUE)))


def _bits(mask: int) -> tuple[int, ...]:
    """Inverse of ``_bitmask``: the set bits of ``mask`` in ascending order."""
    return _ones(bin(mask)[:1:-1])  # the least significant digit first, without "0b"


def _spanning(members: int, stop: int) -> Iterator[tuple[int, int]]:
    """Walk the set bits x <= stop of ``members`` upward, yielding each one not yet spanned.

    Yields ``(x, spanned)`` for each x that is not a sum of the x yielded
    before it, where ``spanned`` is the semigroup the yielded x generate, as a
    mask cut to [0, stop].  Adding x costs O(log(stop / x)) shift-ors on
    stop-bit integers: after k passes, up to 2^k - 1 copies of x are added.
    Raises :class:`LimitExceeded` rather than yield more than
    ``MAX_SPANNING_WORK // (stop + 1)`` of them.
    """
    window = (1 << (stop + 1)) - 1
    members &= window
    spanned = 1
    x = 0
    budget = MAX_SPANNING_WORK // (stop + 1)  # how many x this window may yield
    while True:
        untested = (members & ~spanned) >> (x + 1)
        if not untested:
            return
        if not budget:
            raise LimitExceeded(
                f"spanning more than {MAX_SPANNING_WORK // (stop + 1)} generators in a "
                f"{stop + 1}-bit window exceeds the work cap {MAX_SPANNING_WORK}"
            )
        budget -= 1
        x += (untested & -untested).bit_length()
        step = x
        while step <= stop:
            spanned |= (spanned << step) & window
            step *= 2
        yield x, spanned


def _closure_violation(gapmask: int) -> tuple[int, int] | None:
    """Return the lexicographically first non-gaps x <= y with x + y a gap, or None.

    ``gapmask`` has bit n set for each gap n and is non-zero.  Only sums at or
    below the largest gap ``top`` can violate closure.  With the members below
    ``top`` as a bit mask too, one shift-and per x yields every y >= x whose
    sum with x is a gap, and the lowest set bit is the least such y.

    Only the x <= top / 2 that ``_spanning`` yields need that test: when every
    smaller member x' satisfies x' + S in S, a sum x = a + b of two of them
    satisfies x + S = a + (b + S) in a + S in S.  So the first x that fails is
    still found, with the same least y.
    """
    top = gapmask.bit_length() - 1
    members = ((1 << top) - 2) & ~gapmask  # the members in [1, top)
    for x, _ in _spanning(members, top // 2):
        hits = (members >> x) & (gapmask >> 2 * x)
        if hits:
            return x, x + (hits & -hits).bit_length() - 1
    return None


class _memo(cached_property):
    """A ``cached_property`` whose first read stores ``func(instance)`` without taking a lock.

    Python 3.10 and 3.11 take one class-wide lock on every first read of a
    ``cached_property``, which makes it about three times as slow.  The values
    memoized here are pure functions of immutable fields, so two threads racing
    on a first read compute the value twice and store equal values.  Later
    reads find it in the instance ``__dict__``, ahead of this non-data descriptor.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Value:
    """Base of the plain value classes: immutable, with structural equality, hash and repr.

    A subclass names its fields in ``_fields`` and stores them in the instance
    ``__dict__``, which also holds its memoized (``_memo``) values.  The key the
    fields make is a property built once per class, so each ``__eq__`` or
    ``__hash__`` reads one attribute; an instance equals only its own class.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class NumericalSemigroup(_Value):
    """A cofinite, additively closed subset of the naturals containing 0.

    The strictly increasing gap tuple is the canonical form and the one
    field of the value.  Membership searches it; derived data are cached
    in the instance ``__dict__``.  The direct constructor and ``from_gaps``
    run the same ``_check_closed``; ``_unchecked`` is the one construction
    that validates nothing.
    """

    _fields = ("gaps",)

    def __init__(self, gaps: tuple[int, ...]) -> None:
        if not isinstance(gaps, tuple):
            raise TypeError("gaps must be a tuple; use from_gaps() for other iterables")
        if not (set(map(type, gaps)) <= {int} and all(map(lt, (0,) + gaps, gaps))):
            raise InvalidGap(f"gaps must be strictly increasing positive integers, got {gaps!r}")
        self.__dict__["gaps"] = gaps
        self._check_closed()

    def _check_closed(self) -> None:
        """Refuse a conductor above the cap, before any mask is built, or a non-closed complement.

        Raises :class:`LimitExceeded`, or :class:`NotASemigroup` as read off ``gap_mask``.
        """
        _check_conductor(self.conductor)
        violation = _closure_violation(self.gap_mask) if self.gaps else None
        if violation is not None:
            x, y = violation
            raise NotASemigroup(f"{x} and {y} are non-gaps but their sum {x + y} is a gap")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _unchecked(cls, gaps: tuple[int, ...]) -> NumericalSemigroup:
        """Construction without validation, for gaps from a semigroup or formula already trusted.

        ``verify`` revalidates every tree-walk node built this way with ``from_gaps``.
        """
        semigroup = object.__new__(cls)
        semigroup.__dict__["gaps"] = gaps
        return semigroup

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> NumericalSemigroup:
        """Validated construction from an arbitrary collection of gap values.

        Raises :class:`InvalidGap` for an entry that is not a positive ``int``,
        then sorts and deduplicates, then runs ``_check_closed``.
        """
        semigroup = cls._unchecked(_distinct_positive(gaps, InvalidGap, "gap values"))
        semigroup._check_closed()
        return semigroup

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> NumericalSemigroup:
        """Smallest numerical semigroup containing ``generators``.

        Defined exactly when the generators are coprime as a set; otherwise the
        complement is infinite and :class:`NotCofinite` is raised.  The span is
        built in a window that starts at twice the largest generator and
        doubles, up to min * max or the cap plus min, until its top min
        numbers, and so all above, are members.  The gaps are its zero bits.
        Its last pass yields exactly the minimal generators (all below c + min),
        kept with its gap mask as the result's ``minimal_generators`` and ``gap_mask``.
        """
        values = _distinct_positive(generators, InvalidGenerator, "generators")
        if not values:
            raise NotCofinite("an empty generating set spans only {0}")
        if math.gcd(*values) != 1:
            raise NotCofinite(
                f"generators {list(values)} have gcd {math.gcd(*values)}; complement is infinite"
            )
        lowest = values[0]
        limit = min(lowest * values[-1], DEFAULT_MAX_CONDUCTOR + lowest) + 1
        width = min(2 * values[-1], limit)
        while True:
            members = _bitmask((g for g in values if g < width), width)
            spanned, minimal = 1, []  # {0} if no generator fits, as for a negative cap
            for x, spanned in _spanning(members, width - 1):
                minimal.append(x)
            gapmask = ((1 << width) - 1) & ~spanned
            if gapmask.bit_length() <= width - lowest or width == limit:
                break
            width = min(2 * width, limit)
        conductor = gapmask.bit_length()  # above the cap also when the window stopped there unclosed
        if conductor > DEFAULT_MAX_CONDUCTOR:
            raise LimitExceeded(
                f"semigroup generated by {list(values)} has conductor above the cap {DEFAULT_MAX_CONDUCTOR}"
            )
        semigroup = cls._unchecked(_bits(gapmask))
        vars(semigroup).update(gap_mask=gapmask, minimal_generators=tuple(minimal))
        return semigroup

    # ------------------------------------------------------------------
    # derived quantities

    @_memo
    def genus(self) -> int:
        """Number of gaps."""
        return len(self.gaps)

    @_memo
    def conductor(self) -> int:
        """Smallest c with every integer >= c a member (0 for the full naturals)."""
        return self.gaps[-1] + 1 if self.gaps else 0

    @_memo
    def frobenius(self) -> int:
        """Largest non-member, with the conventional value -1 for the full naturals."""
        return self.conductor - 1

    @_memo
    def gap_mask(self) -> int:
        """The integer whose bit n is set exactly when n is a gap."""
        return _bitmask(self.gaps, self.conductor)

    @_memo
    def _member_digits(self) -> str:
        """Digit n is "1" iff n is a member, for n in [0, c], least significant first ("1" for N).

        The one member format, read by ``small_elements``, the member-run decider and the Arf tests.
        """
        return bin(((2 << self.conductor) - 1) & ~self.gap_mask)[:1:-1]

    @_memo
    def small_elements(self) -> tuple[int, ...]:
        """Members from 0 up to and including the conductor: the "1" positions of ``_member_digits``."""
        return _ones(self._member_digits)

    @_memo
    def multiplicity(self) -> int:
        """Smallest positive member: the lowest clear bit of ``gap_mask`` above bit 0."""
        members = ~self.gap_mask & -2
        return (members & -members).bit_length() - 1

    def element(self, k: int) -> int:
        """The k-th member in increasing order, 0-indexed from the member 0."""
        if k < 0:
            raise ValueError(f"member index must be non-negative, got {k}")
        small = self.small_elements
        if k < len(small):
            return small[k]
        return self.conductor + (k - len(small) + 1)

    def __contains__(self, n: int) -> bool:
        """Binary search of the gaps, O(log genus); only an ``int``, not a ``bool``, is a member."""
        if type(n) is not int or n < 0:
            return False
        return n >= self.conductor or self.gaps[bisect_left(self.gaps, n)] != n

    @_memo
    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set, in increasing order.

        A member is a minimal generator exactly when it is not in the span of
        the smaller members, and every one lies in [multiplicity, top] with
        top = conductor + multiplicity - 1.  ``_spanning`` walks those up to
        top / 2.  A member h above that is a sum exactly when h = g + s for a
        generator g <= h / 2 and a member s > 0, so one shift-or per low
        generator marks every sum up to top (s = 0 gives h = g <= top / 2).
        """
        top = max(self.conductor, 1) + self.multiplicity - 1
        members = ((1 << (top + 1)) - 1) & ~self.gap_mask
        low = tuple(x for x, _ in _spanning(members, top // 2))
        sums = (1 << (top // 2 + 1)) - 1  # [0, top / 2] is done
        for g in low:
            sums |= members << g
        return low + _bits(members & ~sums)

    # ------------------------------------------------------------------
    # closure operations

    def intersect(self, other: NumericalSemigroup) -> NumericalSemigroup:
        """Intersection of two semigroups; the gap sets simply union."""
        return NumericalSemigroup._unchecked(tuple(sorted({*self.gaps, *other.gaps})))

    def adjoin_frobenius(self) -> NumericalSemigroup:
        """Fill the largest gap, dropping the genus by exactly one."""
        if not self.gaps:
            raise TrivialSemigroup("the full set of naturals has no gap to fill")
        return NumericalSemigroup._unchecked(self.gaps[:-1])

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
    _require_genus(genus, "genus")
    _check_conductor(genus + 1)
    return NumericalSemigroup._unchecked(tuple(range(1, genus + 1)))


def _parse_int_list(text: str, error: type[SemigroupError], what: str) -> list[int]:
    """The comma-separated integers of ``text``, none if it is blank, or ``error`` naming it."""
    text = text.strip()
    try:
        return list(map(int, text.split(","))) if text else []
    except ValueError as exc:
        raise error(f"cannot parse {what} {text!r}: {exc}") from None


def parse_gap_line(line: str) -> NumericalSemigroup:
    """Parse one line of the gap-list text format; an empty line is the full naturals."""
    return NumericalSemigroup.from_gaps(_parse_int_list(line, InvalidGap, "gap list"))


def format_gap_line(semigroup: NumericalSemigroup) -> str:
    """Inverse of :func:`parse_gap_line`."""
    return ",".join(str(gap) for gap in semigroup.gaps)
