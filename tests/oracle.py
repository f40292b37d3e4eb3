"""Brute-force referees, written independently of the library under test.

Everything here works on raw tuples of integers so a bug in the package
cannot leak into the expected values.
"""

from itertools import combinations

# Genus-level sizes reproduced by brute_force_gap_sets below; frozen so a
# regression in either the oracle or the tree enumerator is caught.
KNOWN_LEVEL_SIZES = (1, 1, 2, 4, 7, 12, 23, 39)

# Published numbers of numerical semigroups of genus 0..24: OEIS A007323, and
# Bras-Amoros, "Fibonacci-like behavior of the number of numerical semigroups
# of a given genus", Semigroup Forum 2008.  Independent of any code here.
# The full tree walk and the count from two levels up both
# reproduce every value, 23 and 24 included.
PUBLISHED_LEVEL_SIZES = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467,
    22464, 37396, 62194, 103246, 170963, 282828,
)

# Numbers of Arf numerical semigroups of genus 0..30.  In
# tests/test_enumeration.py the Arf recursion below, the sparse tree walk
# filtered by the triple condition and the library's Arf walk and count
# reproduce them; frozen so a regression in any is caught.
ARF_LEVEL_SIZES = (
    1, 1, 2, 3, 4, 6, 8, 10, 13, 17, 21, 26, 31, 36, 47, 55, 62, 74, 87, 101, 116, 133, 152,
    174, 196, 222, 251, 284, 317, 355, 393,
)

# Numbers of kappa-sparse numerical semigroups of genus 0..len - 1, for kappa
# 2..5: every gap exceeds the one before it, or -1 for the first, by at most
# kappa.  Reproduced by kappa_sparse_walk below and by the library's count;
# frozen so a regression in either is caught.  The pure counts (largest jump
# exactly kappa) are the differences of consecutive rows, with kappa 1 holding
# only the root.
KAPPA_LEVEL_SIZES = {
    2: (
        1, 1, 2, 3, 4, 6, 8, 11, 16, 21, 28, 39, 52, 71, 96, 129, 173, 231, 310, 414, 555, 742,
        991, 1324, 1761, 2345, 3126, 4165, 5544, 7385, 9822, 13055, 17356, 23070, 30657, 40723,
        54076,
    ),
    3: (
        1, 1, 2, 4, 6, 9, 15, 23, 34, 52, 79, 117, 177, 266, 393, 586, 878, 1305, 1931, 2862,
        4243, 6283, 9293, 13714, 20247, 29906, 44133, 65036, 95803,
    ),
    4: (
        1, 1, 2, 4, 7, 11, 20, 31, 51, 80, 128, 204, 324, 503, 792, 1240, 1939, 3022, 4708, 7326,
        11382, 17633, 27343, 42373, 65607,
    ),
    5: (
        1, 1, 2, 4, 7, 12, 22, 36, 59, 98, 162, 261, 424, 680, 1101, 1770, 2841, 4535, 7243,
        11558, 18409, 29272, 46571,
    ),
}


def closure_violation(gaps: tuple[int, ...]) -> tuple[int, int] | None:
    """The lexicographically first non-gaps x <= y whose sum is a gap, by scanning pairs.

    Only sums at or below the largest gap can be gaps, so each x stops there.
    """
    if not gaps:
        return None
    top = max(gaps)
    gapset = set(gaps)
    members = [n for n in range(1, top) if n not in gapset]
    for i, x in enumerate(members):
        for y in members[i:]:
            if x + y > top:
                break
            if x + y in gapset:
                return x, y
    return None


def complement_is_closed(gaps: tuple[int, ...]) -> bool:
    """Whether the complement of the gap set is closed under addition."""
    return closure_violation(gaps) is None


def minimal_generators(gaps: tuple[int, ...]) -> tuple[int, ...]:
    """The nonzero members that are not sums of two nonzero members, by scanning pairs.

    Every minimal generator lies in [m, c + m - 1] for the multiplicity m and
    the conductor c, and in [1, 1] for the full naturals.
    """
    gapset = set(gaps)
    conductor = max(gaps) + 1 if gaps else 0
    lowest = next(n for n in range(1, conductor + 2) if n not in gapset)
    out = []
    for h in range(lowest, max(conductor, 1) + lowest):
        if h in gapset:
            continue
        if any(x not in gapset and h - x not in gapset for x in range(lowest, h - lowest + 1)):
            continue
        out.append(h)
    return tuple(out)


def is_arf(gaps: tuple[int, ...]) -> bool:
    """Whether 2x - y is a member for every pair of members y <= x up to the conductor.

    The all-pairs doubling condition, one of the classical equivalent forms
    of the Arf property; members above the conductor add nothing.
    """
    gapset = set(gaps)
    conductor = max(gaps) + 1 if gaps else 0
    small = [n for n in range(conductor + 1) if n not in gapset]
    for i, x in enumerate(small):
        for y in small[: i + 1]:
            if 2 * x - y in gapset:
                return False
    return True


def arf_walk(max_genus: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Every Arf gap tuple of genus <= ``max_genus`` as ``(depth, gaps, index)``, in tree preorder.

    S is Arf iff S = N or S = {0} + (m + T) with T Arf, m in T and m >= 2 (Rosales,
    Garcia-Sanchez, Garcia-Garcia and Branco, J. Algebra 2004): gaps 1, ..., m - 1, then m
    plus each gap of T.  Arf semigroups are sparse and 1 is a gap of each nontrivial one,
    so the index is 2, or 1 at the root.  Preorder is lexicographic: ancestors are prefixes.
    """
    found = [()]
    for gaps in found:  # extended as it is read, so each T is expanded once
        for m in range(2, max_genus - len(gaps) + 2):
            if m not in gaps:
                found.append(tuple(range(1, m)) + tuple(m + x for x in gaps))
    return [(len(gaps), gaps, 2 if gaps else 1) for gaps in sorted(found)]


def first_member_run(gaps: tuple[int, ...], kappa: int) -> int | None:
    """The least positive member below the conductor that starts kappa consecutive members.

    One scan upward from 1, counting the members since the last gap: the first
    time the count reaches kappa, the run started kappa - 1 numbers back.
    Every number from the conductor up is a member, so the scan ends by
    conductor + kappa - 1.
    """
    gapset = set(gaps)
    conductor = max(gaps) + 1 if gaps else 0
    run = 0
    for n in range(1, conductor + kappa):
        run = 0 if n in gapset else run + 1
        if run == kappa:
            start = n - kappa + 1
            return start if start < conductor else None
    return None


def kappa_sparse_walk(kappa: int, max_genus: int):
    """Every kappa-sparse gap tuple of genus <= ``max_genus``, each exactly once, as raw tuples.

    Kappa-sparse: each gap exceeds the one before it, or -1 for the first, by
    at most kappa.  Filling the largest gap keeps a tuple kappa-sparse and its
    complement closed, so every member grows from the one without its largest
    gap: add a new largest gap x in (F, F + kappa], x >= 1, for F the largest
    gap (-1 if none), and keep the tuple if ``complement_is_closed`` accepts it.
    """
    stack = [()]
    while stack:
        gaps = stack.pop()
        yield gaps
        if len(gaps) < max_genus:
            top = gaps[-1] if gaps else -1
            for x in range(max(top + 1, 1), top + kappa + 1):
                if complement_is_closed(gaps + (x,)):
                    stack.append(gaps + (x,))


def brute_force_gap_sets(genus: int) -> list[tuple[int, ...]]:
    """Every valid gap set of the given genus, by exhausting subsets of [1, 2g-1].

    The largest gap never exceeds 2g - 1, so the subset sweep is complete.
    """
    if genus == 0:
        return [()]
    return [
        combo
        for combo in combinations(range(1, 2 * genus), genus)
        if complement_is_closed(combo)
    ]


def leap_counts(counts: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Ascending (jump, count) pairs with the zero counts dropped, as a leap profile stores them."""
    items = []
    for jump in sorted(counts):
        count = counts[jump]
        if count == 0:
            continue
        if not isinstance(jump, int) or jump < 1 or count < 0:
            raise ValueError(f"bad profile entry {jump!r}: {count!r}")
        items.append((jump, count))
    return tuple(items)


def is_ideal_of(members: tuple[int, ...], threshold: int, gaps: tuple[int, ...]) -> bool:
    """Whether ``members`` and every integer from ``threshold`` on absorb the semigroup's members.

    A sum at or above the threshold is always inside, so each element below it
    is tried with every member that keeps the sum below it.
    """
    inside = set(members)
    gapset = set(gaps)
    return all(e + h in inside for e in members for h in range(threshold - e) if h not in gapset)


def ideal_difference(left, right, start: int, stop: int) -> tuple[int, ...]:
    """Each z in [start, stop) with z + right inside left, by trying every element of right.

    An ideal is a pair (threshold, members): its members below the threshold,
    then every integer from the threshold on.  Only elements f of right with
    z + f below threshold(left) can fall outside left.
    """
    left_top, left_members = left
    right_top, right_members = right
    inside = set(left_members)
    return tuple(
        z
        for z in range(start, stop)
        if all(
            z + f >= left_top or z + f in inside
            for f in (*right_members, *range(right_top, left_top - z))
        )
    )


def brute_force_from_generators(generators: list[int], bound: int) -> set[int]:
    """All sums of the generators up to ``bound``, by saturating a reachable set."""
    reachable = {0}
    changed = True
    while changed:
        changed = False
        for value in sorted(reachable):
            for g in generators:
                total = value + g
                if total <= bound and total not in reachable:
                    reachable.add(total)
                    changed = True
    return reachable
