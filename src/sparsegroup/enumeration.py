"""Exhaustive enumeration over the semigroup tree, with class pruning and census tables."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .core import NumericalSemigroup, _require_kappa

MODES = ("all", "kappa_sparse", "pure_kappa_sparse", "arf")
EMITS = ("full", "count_only")


def children(semigroup: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
    """Tree children: remove one minimal generator above the Frobenius number.

    Each child has genus one higher and maps back to its parent by filling the
    largest gap; children come ordered by the removed generator.  This is the
    reference that the incremental step of ``_walk`` is checked against, by
    ``verify`` and the tests: it recomputes the minimal generators from scratch.
    """
    frobenius = semigroup.frobenius
    return tuple(
        NumericalSemigroup._unchecked(semigroup.gaps + (x,))
        for x in semigroup.minimal_generators
        if x > frobenius
    )


def _walk(
    max_genus: int,
    keep: Callable[[int], bool] | None = None,
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Depth-first preorder over the tree, truncated below ``max_genus``.

    Yields ``(depth, gaps, index)`` per node, with ``index`` its sparseness
    index: the largest leap jump, 1 at the root.  No ``NumericalSemigroup``
    is built.  ``keep`` prunes on the index: a node whose index fails it is
    skipped along with its whole subtree.  It is called on the root and on
    every candidate child, in descending order of the removed generator.
    The loop is ``_tree``'s.
    """
    return _tree(max_genus, keep, False)


def _tree(
    max_genus: int,
    keep: Callable[[int], bool] | None,
    count: bool,
    counted: Callable[[int], bool] | None = None,
    arf: bool = False,
    bits: int | None = None,
) -> Iterator:
    """The walk behind ``_walk``, or with ``count`` one that reads its last two levels off two levels up.

    Without ``count`` it yields what ``_walk`` yields.  With ``count`` it stacks nothing below depth
    ``max_genus - 2``, whose nodes read their children and grandchildren off their children's
    generators.  It yields per such node how many grandchildren ``counted`` accepts (all if ``None``)
    through the children ``keep`` accepts (``max_genus`` >= 2); or with ``bits``, once, a tally per
    depth: each key's number of nodes that ``keep`` accepts.  The key is the node's leap counts in
    ``bits``-wide fields, field j holding the leaps of jump j, or its index if ``bits`` is 0.  With
    ``arf`` it walks the Arf subtree alone: ``_stays_arf`` tests each child and grandchild.

    A child that removes x from a node with Frobenius number F adds exactly one leap, (F, x), so its
    index is the larger of the node's and x - F, and its key is the node's plus that jump.  ``keep``
    tests the index alone, so a grandchild of its child's index is not tested again.

    A node carries F, its multiplicity m, index, member mask over [0, W], the reversed mask
    (bit W - n set iff n is a member), minimal generators above F, and key: its gaps if walking,
    else its tally key (or index).  Its child without x > F has Frobenius number x, keeps the
    generators above x and gains at most y = x + m: a new one is x + s, s a nonzero member, and
    none exceeds x + m.  It gains y unless some a in (m, x) has a and y - a as members.  On (m, x)
    the child and the node agree, so that is one AND of the node's mask with its reversed mask
    shifted by W - y.  The child without m of an ordinary node is ordinary, with generators m + 1,
    ..., 2m + 1.  So a child's generators are known before it is stacked, and each x' of them is a
    grandchild, of index max(the child's index, x' - x).  A child at depth ``max_genus`` is
    stacked without them, as nothing below it is read.

    The AND runs on the children of nodes at depth d <= ``max_genus - 2``.  Such a child's x is at
    most 2d + 1 and m is at most d + 1, so y <= 3d + 2 and W = 3 * ``max_genus`` suffices.
    """
    width = 3 * max_genus
    everything = (1 << width + 1) - 1
    last = max_genus - 2 if count else -1
    if keep is not None and not keep(1):
        return
    tallies = [{} for _ in range(max_genus + 1)]
    stack = [(0, -1, 1, 1, everything, everything, (1,), 0 if bits else 1 if count else ())]
    while stack:
        depth, frobenius, multiplicity, index, members, reversed_members, generators, key = stack.pop()
        if not count:
            yield depth, key, index
        elif bits is not None:
            tallies[depth][key] = tallies[depth].get(key, 0) + 1
        if depth == max_genus:
            continue
        leaves = depth + 1 == max_genus
        total = 0
        for i in reversed(range(min(len(generators), 2) if arf else len(generators))):  # Arf: x <= F + 2
            x = generators[i]
            if arf and not _stays_arf(members, frobenius, x):
                continue
            jump = x - frobenius
            child_index = index if index > jump else jump
            if keep is not None and not keep(child_index):
                continue
            if not leaves:  # a child at depth max_genus is yielded or tallied and dropped
                if x == multiplicity:
                    child_multiplicity = x + 1
                    child_generators = tuple(range(x + 1, 2 * x + 2))
                else:
                    child_multiplicity = multiplicity
                    child_generators = generators[i + 1 :]
                    y = x + multiplicity
                    sums = (members & reversed_members >> width - y) >> multiplicity + 1
                    if not sums & (1 << x - multiplicity - 1) - 1:
                        child_generators += (y,)
                if depth == last:
                    if arf:
                        child_members = members ^ 1 << x
                        child_generators = [
                            g for g in child_generators[:2] if _stays_arf(child_members, x, g)
                        ]
                    if bits is None:
                        total += len(child_generators) if counted is None else sum(
                            counted(child_index if child_index > g - x else g - x) for g in child_generators
                        )
                        continue
            child_key = key + (x,) if not count else key + (1 << bits * jump) if bits else child_index
            if leaves:
                stack.append((depth + 1, x, 0, child_index, 0, 0, None, child_key))
                continue
            if depth == last:
                tallies[depth + 1][child_key] = tallies[depth + 1].get(child_key, 0) + 1
                tally = tallies[depth + 2]
                for g in child_generators:
                    jump = g - x
                    if jump > child_index and keep is not None and not keep(jump):
                        continue
                    g_key = (  # a grandchild's leap counts, or its index
                        child_key + (1 << bits * jump) if bits else jump if jump > child_key else child_key
                    )
                    tally[g_key] = tally.get(g_key, 0) + 1
                continue
            stack.append((
                depth + 1, x, child_multiplicity, child_index,
                members ^ 1 << x, reversed_members ^ 1 << width - x, child_generators, child_key,
            ))
        if depth == last and bits is None:
            yield total
    if bits is not None:
        yield tallies


def _stays_arf(members: int, frobenius: int, x: int) -> bool:
    """Whether the Arf semigroup with member mask ``members`` stays Arf without its generator x > F.

    Arf asks 2b - a in S for members a <= b, so only 2b - a = x with a < b < x can fail: a = x - 2
    and b = x - 1 if x >= F + 3, else a = 2k + p and b = k + j + p, x = 2j + p and 0 <= k < j.
    """
    if x > frobenius + 2:
        return False
    digits, j, p = bin(members)[:1:-1], x >> 1, x & 1  # digit n is "1" iff n is a member
    return not int("0" + digits[p:x:2], 2) & int("0" + digits[j + p : x], 2)


class EnumerationRequest(namedtuple("EnumerationRequest", "max_genus kappa_filter mode emit")):
    """A walk over genus levels 0..max_genus: the class it counts and how.

    Every walk is checked here, once: the mode, the emit, the genus and kappa.
    The genus is not capped; the command line caps it before it asks.
    """

    __slots__ = ()

    def __new__(
        cls, max_genus: int, kappa_filter: int | None = None, mode: str = "all", emit: str = "full"
    ) -> EnumerationRequest:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if emit not in EMITS:
            raise ValueError(f"emit must be one of {EMITS}, got {emit!r}")
        if type(max_genus) is not int:
            raise ValueError(f"max_genus must be an integer, got {max_genus!r}")
        if max_genus < 0:
            raise ValueError(f"max_genus must be non-negative, got {max_genus}")
        if kappa_filter is not None:
            _require_kappa(kappa_filter, 1)
        if mode in ("kappa_sparse", "pure_kappa_sparse") and kappa_filter is None:
            raise ValueError(f"mode {mode!r} requires kappa_filter")
        return super().__new__(cls, max_genus, kappa_filter, mode, emit)

    @classmethod
    def _make(cls, iterable: Iterable) -> EnumerationRequest:
        """The namedtuple's copy path, behind ``_replace`` too: checked like any other."""
        return cls(*iterable)

    @property
    def kappa(self) -> int:
        """Kappa used for the class columns; defaults to 2 (the sparse class)."""
        return self.kappa_filter if self.kappa_filter is not None else 2


def _universe(
    request: EnumerationRequest, count: bool = False, bits: int | None = None
) -> tuple[Iterator, Callable[[int], bool] | None]:
    """The walk over the request's universe, or with ``count`` ``_tree``'s counts (tallies if ``bits``).

    Also returns ``counted``, the member test.  This is where the mode becomes the walk's
    pruning test ``keep`` on a node's index, ``counted`` and the Arf flag (``None`` passes
    everything).  Filling the largest gap keeps a semigroup kappa-sparse, so the kappa modes
    prune at the first non-member, and the pure mode counts index == kappa.
    """
    keep = counted = None
    if request.mode in ("kappa_sparse", "pure_kappa_sparse"):
        kappa = request.kappa
        keep = lambda index: index <= kappa
        counted = (lambda index: index == kappa) if request.mode == "pure_kappa_sparse" else keep
    arf = request.mode == "arf"
    if count or arf:
        return _tree(request.max_genus, keep, count, counted, arf, bits), counted
    return _walk(request.max_genus, keep), counted


def _level(request: EnumerationRequest) -> Iterator[tuple[int, ...]]:
    """The gaps of the request's members of genus ``max_genus``, in walk order."""
    walk, counted = _universe(request)
    for depth, gaps, index in walk:
        if depth == request.max_genus and (counted is None or counted(index)):
            yield gaps


def members(request: EnumerationRequest) -> Iterator[NumericalSemigroup]:
    """The request's class members of genus ``max_genus``, in depth-first tree order.

    The class test runs only at that genus, never on the nodes above it, and
    only the members handed out are built as objects.
    """
    yield from map(NumericalSemigroup._unchecked, _level(request))


def level_size(request: EnumerationRequest) -> int:
    """How many members ``members(request)`` yields, counted without building any.

    The walk stops two levels early: ``_tree`` counts each depth-``max_genus - 2``
    node's grandchildren from the generators of its children, which it never
    stacks.  Genus 0 and 1, with no such level, count ``_level``.
    """
    if request.max_genus < 2:
        return sum(1 for _ in _level(request))
    return sum(_universe(request, True)[0])


def enumerate_genus(genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with exactly ``genus`` gaps, each exactly once.

    Results stream in depth-first tree order, so the output is deterministic.
    """
    yield from members(EnumerationRequest(genus))


def enumerate_kappa_sparse(genus: int, kappa: int) -> Iterator[NumericalSemigroup]:
    """Genus-level slice of the kappa-sparse class, via sound subtree pruning."""
    yield from members(EnumerationRequest(genus, kappa, "kappa_sparse"))


class CensusRow(namedtuple("CensusRow", "genus total per_class profile_histogram")):
    """Counts for a single genus level: ``per_class`` by column, ``profile_histogram`` by profile."""

    __slots__ = ()


def census(request: EnumerationRequest) -> list[CensusRow]:
    """One row per genus with totals, class counts, and the profile histogram.

    The mode selects the universe being counted (everything, a kappa-sparse
    class, its pure part, or the Arf members); class columns are evaluated
    inside that universe.  Output is deterministic across runs.

    The rows come from ``_tree``'s tallies, one per genus, read off for the
    last two levels from the nodes two levels up.  A node's key is its index,
    or if profiles are emitted its leap counts, packed into one int with a
    field per jump one bit wider than a count of ``max_genus`` needs; so the
    highest nonzero field, the index, is the key's bit length floor-divided by
    the field width (1 at the root).  Every column depends on the key alone, so the
    member test from ``_universe``, the class tests and the unpacking run once
    per distinct key, as each row is built.  The ``arf`` column counts the
    members in the tallies of the Arf subtree, walked once; in ``arf`` mode,
    where that subtree is the universe, it is the row's total.
    """
    bits = request.max_genus.bit_length() + 1 if request.emit == "full" else 0
    if bits:  # only a census with profiles builds them, so no count loads leaps
        from .leaps import LeapProfile
    (tallies,), counted = _universe(request, True, bits)
    (arf_tallies,) = (  # in arf mode, with no member test, the column is each total
        [tallies] if request.mode == "arf" else _tree(request.max_genus, None, True, arf=True, bits=0)
    )
    index_of = (lambda key: key.bit_length() // bits or 1) if bits else int  # an index key is the index
    rows = []
    for genus, tally in enumerate(tallies):
        kept = {key: n for key, n in tally.items() if counted is None or counted(index_of(key))}
        total = sum(kept.values())
        # kappa-sparse iff the index (largest leap jump) is at most kappa; pure iff equal
        per_class = {
            "arf": sum(n for index, n in arf_tallies[genus].items() if counted is None or counted(index)),
            "sparse": sum(n for key, n in kept.items() if index_of(key) <= 2),
            "kappa_sparse": sum(n for key, n in kept.items() if index_of(key) <= request.kappa),
            "pure_kappa_sparse": sum(n for key, n in kept.items() if index_of(key) == request.kappa),
        }
        histogram = {}
        for key, n in kept.items() if bits else ():
            fields = ((jump, key >> bits * jump & (1 << bits) - 1) for jump in range(index_of(key) + 1))
            histogram[LeapProfile(tuple((jump, c) for jump, c in fields if c))] = n
        rows.append(CensusRow(genus, total, per_class, histogram))
    return rows
