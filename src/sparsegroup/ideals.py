"""Relative ideals over a numerical semigroup and stable-ideal Arf tests."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import pairwise

from .core import NumericalSemigroup, _read_only


class RelativeIdeal:
    """Cofinite set of integers closed under adding members of the ambient semigroup.

    Canonical form: ``members`` lists the elements in [base, threshold) in
    increasing order, every integer at or above ``threshold`` belongs, and
    ``threshold`` is minimal (so structural equality is set equality).
    The instance is immutable.
    """

    def __init__(self, base: int, threshold: int, members: tuple[int, ...]) -> None:
        self.__dict__.update(base=base, threshold=threshold, members=members)

    __setattr__ = __delattr__ = _read_only

    def _key(self) -> tuple[int, int, tuple[int, ...]]:
        return self.base, self.threshold, self.members

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "{}(base={!r}, threshold={!r}, members={!r})".format(type(self).__name__, *self._key())

    @classmethod
    def from_members(cls, members: Iterable[int], threshold: int) -> RelativeIdeal:
        """Build from the explicit members below ``threshold`` and normalise."""
        below = sorted({m for m in members if m < threshold})
        cut = threshold
        while below and below[-1] == cut - 1:
            below.pop()
            cut -= 1
        base = below[0] if below else cut
        return cls(base, cut, tuple(below))

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, n: int) -> bool:
        return n >= self.threshold or n in self._member_set

    def shift(self, z: int) -> RelativeIdeal:
        """Translate every element by ``z``."""
        return RelativeIdeal(
            self.base + z, self.threshold + z, tuple(m + z for m in self.members)
        )

    def elements_below(self, stop: int) -> Iterator[int]:
        """All elements strictly below ``stop``, in increasing order."""
        for m in self.members:
            if m >= stop:
                return
            yield m
        yield from range(self.threshold, stop)


def ideal_at(semigroup: NumericalSemigroup, k: int) -> RelativeIdeal:
    """Members of the semigroup from its k-th element upward, as a relative ideal.

    k = 0 gives the semigroup itself; k >= 1 gives a proper ideal.
    """
    if k < 0:
        raise ValueError(f"member index must be non-negative, got {k}")
    start = semigroup.element(k)
    if start >= semigroup.conductor:
        return RelativeIdeal.from_members((), threshold=start)
    return RelativeIdeal.from_members(
        (n for n in semigroup.small_elements if n >= start),
        threshold=semigroup.conductor,
    )


def ideal_difference(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """All shifts z such that ``right`` translated by z sits inside ``left``.

    Any z >= threshold(left) - base(right) lands entirely in left's tail, which
    bounds the candidates; each candidate only needs right's elements below
    threshold(left) - z checked, a finite scan.
    """
    top = left.threshold - right.base
    accepted = []
    for z in range(left.base - right.base, top):
        if all((z + f) in left for f in right.elements_below(left.threshold - z)):
            accepted.append(z)
    return RelativeIdeal.from_members(accepted, threshold=top)


def is_stable(semigroup: NumericalSemigroup, k: int) -> bool:
    """Whether the k-th tail ideal is principal over its own difference semigroup.

    The generator of a principal tail ideal is forced to be the k-th member,
    so a single translation equality decides it.
    """
    if k < 1:
        raise ValueError(f"tail index must be positive, got {k}")
    tail = ideal_at(semigroup, k)
    difference = ideal_difference(tail, tail)
    return difference.shift(semigroup.element(k)) == tail


def is_arf_definition(semigroup: NumericalSemigroup) -> bool:
    """Arf test by the triple condition n_i + n_j - n_k a member, k <= j <= i.

    Indices run over the members up to the conductor; larger ones add nothing.
    """
    small = semigroup.small_elements
    for i in range(len(small)):
        for j in range(i + 1):
            pair_sum = small[i] + small[j]
            for k in range(j + 1):
                if (pair_sum - small[k]) not in semigroup:
                    return False
    return True


def is_arf_double(semigroup: NumericalSemigroup) -> bool:
    """Arf test: 2 s_(i+1) - s_i in S for consecutive members s_i < s_(i+1) up to the conductor.

    S is Arf iff each T_i = {s - s_i : s in S, s >= s_i} = {0} u (m_i + T_(i+1)) is a semigroup,
    iff m_i = s_(i+1) - s_i is in T_(i+1) (Garcia-Sanchez, Heredia, Karakas and Rosales, 2017).
    """
    return all(2 * b - a in semigroup for a, b in pairwise(semigroup.small_elements))


def is_arf_stable(semigroup: NumericalSemigroup) -> bool:
    """Arf test by stability of every proper tail ideal up to the conductor."""
    return all(is_stable(semigroup, k) for k in range(1, len(semigroup.small_elements)))
