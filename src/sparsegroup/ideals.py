"""Relative ideals over a numerical semigroup and stable-ideal Arf tests."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import pairwise

from .core import NumericalSemigroup, _bitmask, _bits, _Value


class RelativeIdeal(_Value):
    """Cofinite set of integers closed under adding members of the ambient semigroup.

    Canonical form, as ``from_members`` and this module's operations build it: ``members``
    lists the elements in [base, threshold) in increasing order, every integer at or above
    ``threshold`` belongs, and ``threshold`` is minimal (so structural equality is set
    equality).  A direct construction is checked for range, not for order: a member outside
    [base, threshold), or a base above the threshold, is refused.  ``_unchecked`` checks
    nothing, for the ideals this module builds canonical.  The instance is immutable.
    """

    _fields = ("base", "threshold", "members")

    def __init__(self, base: int, threshold: int, members: tuple[int, ...]) -> None:
        if members:
            low, high = min(members), max(members)
            if low < base or high >= threshold:
                raise ValueError(f"member {low if low < base else high} is outside [{base}, {threshold})")
        elif base > threshold:
            raise ValueError(f"base {base} is above the threshold {threshold}")
        self.__dict__.update(base=base, threshold=threshold, members=members)

    @classmethod
    def _unchecked(cls, base: int, threshold: int, members: tuple[int, ...]) -> RelativeIdeal:
        """Construction without validation, for an ideal that is canonical by construction."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(base=base, threshold=threshold, members=members)
        return ideal

    @classmethod
    def from_members(cls, members: Iterable[int], threshold: int) -> RelativeIdeal:
        """Build from the explicit members below ``threshold`` and normalise."""
        return _normalised(sorted({m for m in members if m < threshold}), threshold)

    def __contains__(self, n: int) -> bool:
        return n >= self.threshold or n in self.members

    def shift(self, z: int) -> RelativeIdeal:
        """Translate every element by ``z``."""
        return RelativeIdeal._unchecked(
            self.base + z, self.threshold + z, tuple(m + z for m in self.members)
        )


def _normalised(below: list[int], threshold: int) -> RelativeIdeal:
    """The canonical ideal of the members ``below`` and every integer from ``threshold`` on.

    ``below`` must be ascending, distinct and under ``threshold``; it is consumed.  The members
    that run up to the threshold join the tail, so the threshold is least.
    """
    cut = threshold
    while below and below[-1] == cut - 1:
        below.pop()
        cut -= 1
    return RelativeIdeal._unchecked(below[0] if below else cut, cut, tuple(below))


def ideal_at(semigroup: NumericalSemigroup, k: int) -> RelativeIdeal:
    """Members of the semigroup from its k-th element upward, as a relative ideal.

    k = 0 gives the semigroup itself; k >= 1 gives a proper ideal.  Below the conductor c, the
    slice of ``small_elements`` from k to c is canonical as it stands: it is in order, and c - 1
    is a gap, so c is the least threshold.  From c on, the slice is empty and the threshold is start.
    """
    start = semigroup.element(k)  # refuses k < 0
    return RelativeIdeal._unchecked(start, max(start, semigroup.conductor), semigroup.small_elements[k:-1])


def _window(ideal: RelativeIdeal, width: int) -> int:
    """Bit n set for each element base + n of ``ideal``, for n in [0, width).

    The constructor keeps each member m in [base, threshold), so every index m - base
    kept lies in [0, width), and ``_bitmask`` takes them in any order.
    """
    base = ideal.base
    low = _bitmask((m - base for m in ideal.members if m < base + width), width)
    return low | (((1 << width) - 1) & (-1 << (ideal.threshold - base)))


def _fits(inside: int, window: int, width: int) -> int:
    """Bit s set for each shift s in [0, width) that moves every bit of ``inside`` into ``window``.

    Both masks lie in [0, width), and a bit moved to width or past it lands in the tail, so s
    fits when ``inside`` meets none of the window's clear bits shifted down by s.  The accepted
    shifts go to ``_bitmask`` in one pass; a sum of powers of two would copy the growing mask
    once per shift.
    """
    outside = ((1 << width) - 1) & ~window
    return _bitmask((s for s in range(width) if not inside & (outside >> s)), width)


def ideal_difference(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """All shifts z such that ``right`` translated by z sits inside ``left``.

    Any z >= threshold(left) - base(right) lands in left's tail, and no z below
    base(left) - base(right) fits.  Between, z = base(left) - base(right) + s fits exactly when
    right's window of the same width as left's, each bit n taken to base(left) + n + s, lands
    inside left: bit s of ``_fits``, the one shift test, which ``is_stable`` reads as a mask.
    A self-difference builds the window once.
    """
    width = left.threshold - left.base
    window = _window(left, width)
    inside = window if right is left else _window(right, width)
    offset = left.base - right.base
    accepted = [offset + s for s in _bits(_fits(inside, window, width))]  # ascending, distinct
    return _normalised(accepted, offset + width)


def is_stable(semigroup: NumericalSemigroup, k: int) -> bool:
    """Whether the k-th tail ideal T is principal over its own difference semigroup T - T.

    The generator of a principal tail ideal is forced to be the k-th member, the tail's
    base b, so T is stable iff T - T = T - b.  No z < 0 lies in either side and every
    z >= threshold - b lies in both, so the test is whether the shifts in [0, threshold - b)
    that keep T inside itself, ``_fits`` of T's window, are exactly T's window relative to b.
    """
    if k < 1:
        raise ValueError(f"tail index must be positive, got {k}")
    tail = ideal_at(semigroup, k)
    width = tail.threshold - tail.base
    window = _window(tail, width)
    return _fits(window, window, width) == window


def is_arf_definition(semigroup: NumericalSemigroup) -> bool:
    """Arf test by the triple condition n_i + n_j - n_k a member, k <= j <= i.

    Indices run over the members up to the conductor; larger ones add nothing.
    Each difference is at least 0, so it is a member when it reaches the
    conductor c or its member digit is "1".
    """
    small = semigroup.small_elements
    c, digits = semigroup.conductor, semigroup._member_digits
    for i in range(len(small)):
        for j in range(i + 1):
            pair_sum = small[i] + small[j]
            for k in range(j + 1):
                n = pair_sum - small[k]
                if n < c and digits[n] != "1":
                    return False
    return True


def is_arf_double(semigroup: NumericalSemigroup) -> bool:
    """Arf test: 2 s_(i+1) - s_i in S for consecutive members s_i < s_(i+1) up to the conductor.

    S is Arf iff each T_i = {s - s_i : s in S, s >= s_i} = {0} u (m_i + T_(i+1)) is a semigroup,
    iff m_i = s_(i+1) - s_i is in T_(i+1) (Garcia-Sanchez, Heredia, Karakas and Rosales, 2017).
    With a = s_i and b = s_(i+1), each test is O(1): 2b - a exceeds the conductor c, or its
    digit is "1" in the semigroup's member digits over [0, c].
    """
    c, digits = semigroup.conductor, semigroup._member_digits
    pairs = pairwise(semigroup.small_elements)
    return all(2 * b - a > c or digits[2 * b - a] == "1" for a, b in pairs)


def is_arf_stable(semigroup: NumericalSemigroup) -> bool:
    """Arf test by stability of every proper tail ideal up to the conductor."""
    return all(is_stable(semigroup, k) for k in range(1, len(semigroup.small_elements)))
