"""Exhaustive enumeration over the semigroup tree, with class pruning and census tables."""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator

from .core import NumericalSemigroup
from .leaps import LeapProfile

# The deepest genus the command line walks unless ``enumerate --cap`` says
# otherwise; library walks are not capped.
DEFAULT_GENUS_CAP = 18

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
    parents: bool,
) -> Iterator[tuple]:
    """The walk behind ``_walk``, or with ``parents`` the nodes one level above its deepest.

    Without ``parents`` it yields what ``_walk`` yields.  With ``parents`` it
    yields only at depth ``max_genus - 1`` and stacks nothing deeper: each
    node there yields ``(index, frobenius, generators)``, its minimal
    generators above F once updated.  Its children, one level down, are the
    removals of those generators, so they can be counted unbuilt.

    A child that removes x from a node with Frobenius number F adds exactly
    one leap, (F, x), so its index is the larger of the node's and x - F.

    A node carries its multiplicity m, its member mask over [0, W], the
    reversed mask (bit W - n set iff n is a member) and its minimal
    generators above F.  Its child without x > F keeps the generators above
    x and gains at most y = x + m: a new one is x + s, s a nonzero member,
    and none exceeds x + m.  It gains y unless some a in (m, x) has a and
    y - a in the child: one AND of the mask with the reversed mask shifted by
    W - y.  An ordinary node's child without m is ordinary, with generators
    m + 1, ..., 2m + 1.  A stacked child holds its parent's masks and the
    generators after x, or ``None`` if ordinary.  It is built only if popped
    at a depth d < ``max_genus``, where x, its Frobenius number, is at most
    2d - 1 and m is at most d + 1, so y <= 3d and W = 3 * ``max_genus`` suffices.
    """
    if keep is not None and not keep(1):
        return
    width = 3 * max_genus
    everything = (1 << width + 1) - 1
    last_parents = max_genus - 1 if parents else -1
    # depth, gaps, multiplicity, index, members, reversed members, generators above F
    stack = [(0, (), 1, 1, everything, everything, (1,))]
    while stack:
        depth, gaps, multiplicity, index, members, reversed_members, generators = stack.pop()
        if not parents:
            yield depth, gaps, index
        if depth < max_genus:
            frobenius = gaps[-1] if gaps else -1
            if gaps:
                members ^= 1 << frobenius
                reversed_members ^= 1 << width - frobenius
                if generators is None:
                    multiplicity = frobenius + 1
                    generators = tuple(range(multiplicity, 2 * multiplicity))
                else:
                    y = frobenius + multiplicity
                    sums = (members & reversed_members >> width - y) >> multiplicity + 1
                    if not sums & (1 << frobenius - multiplicity - 1) - 1:
                        generators += (y,)
            if depth == last_parents:
                yield index, frobenius, generators
                continue
            for i in reversed(range(len(generators))):
                x = generators[i]
                child_index = index if index > x - frobenius else x - frobenius
                if keep is None or keep(child_index):
                    tail = None if x == multiplicity else generators[i + 1 :]
                    stack.append(
                        (depth + 1, gaps + (x,), multiplicity, child_index, members, reversed_members, tail)
                    )


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
        if kappa_filter is not None and (type(kappa_filter) is not int or kappa_filter < 1):
            raise ValueError(f"kappa_filter must be a positive integer, got {kappa_filter!r}")
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


def _arf_walk(max_genus: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Every Arf semigroup of genus <= ``max_genus``, as ``_walk`` yields nodes and in its order.

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


def _keep(request: EnumerationRequest) -> Callable[[int], bool] | None:
    """The request's pruning test on the index, for ``_walk``: none outside the kappa modes.

    Filling the largest gap keeps a semigroup kappa-sparse, so every ancestor
    of a member is a member and the kappa modes prune at the first non-member.
    """
    if request.mode in ("all", "arf"):
        return None
    bound = request.kappa
    return lambda index: index <= bound


def _counted(request: EnumerationRequest) -> Callable[[int], bool] | None:
    """The request's member test on a walked node's index: ``== kappa`` if pure, else ``_keep``."""
    kappa = request.kappa
    return (lambda index: index == kappa) if request.mode == "pure_kappa_sparse" else _keep(request)


def _universe(request: EnumerationRequest) -> Iterable[tuple[int, tuple[int, ...], int]]:
    """The walk over the request's universe.

    Arf mode walks the Arf semigroups' own tree.  Pure members are picked from the walk.
    """
    if request.mode == "arf":
        return _arf_walk(request.max_genus)
    return _walk(request.max_genus, _keep(request))


def members(request: EnumerationRequest) -> Iterator[NumericalSemigroup]:
    """The request's class members of genus ``max_genus``, in depth-first tree order.

    The class test runs only at that genus, never on the nodes above it, and
    only the members handed out are built as objects.
    """
    counted = _counted(request)
    for depth, gaps, index in _universe(request):
        if depth == request.max_genus and (counted is None or counted(index)):
            yield NumericalSemigroup._unchecked(gaps)


def level_size(request: EnumerationRequest) -> int:
    """How many members ``members(request)`` yields, counted without building any.

    The walk stops one level early: a node at depth ``max_genus - 1`` has a
    child per minimal generator x > F, of index max(index, x - F), so it
    counts the children that the walk would keep and ``members`` would pick.
    Arf mode counts the deepest entries of ``_arf_walk``.
    """
    genus = request.max_genus
    if request.mode == "arf":
        return sum(depth == genus for depth, _, _ in _arf_walk(genus))
    counted = _counted(request)
    if genus == 0:
        return int(counted is None or counted(1))
    parents = _tree(genus, _keep(request), True)
    if counted is None:
        return sum(len(generators) for _, _, generators in parents)
    return sum(
        counted(index if index > x - frobenius else x - frobenius)
        for index, frobenius, generators in parents
        for x in generators
    )


def enumerate_genus(genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with exactly ``genus`` gaps, each exactly once.

    Results stream in depth-first tree order, so the output is deterministic.
    """
    yield from members(EnumerationRequest(genus))


def enumerate_kappa_sparse(genus: int, kappa: int) -> Iterator[NumericalSemigroup]:
    """Genus-level slice of the kappa-sparse class, via sound subtree pruning."""
    yield from members(EnumerationRequest(genus, kappa_filter=kappa, mode="kappa_sparse"))


class CensusRow(namedtuple("CensusRow", "genus total per_class profile_histogram")):
    """Counts for a single genus level: ``per_class`` by column, ``profile_histogram`` by profile."""

    __slots__ = ()


def _add_leap(counts: tuple[int, ...], jump: int) -> tuple[int, ...]:
    """Leap counts indexed by jump, with one more leap of ``jump``."""
    if jump < len(counts):
        return counts[:jump] + (counts[jump] + 1,) + counts[jump + 1 :]
    return counts + (0,) * (jump - len(counts)) + (1,)


def census(request: EnumerationRequest) -> list[CensusRow]:
    """One row per genus with totals, class counts, and the profile histogram.

    The mode selects the universe being counted (everything, a kappa-sparse
    class, its pure part, or the Arf members); class columns are evaluated
    inside that universe.  Output is deterministic across runs.

    Each walked node adds one to its depth's tally, keyed by its leap counts
    if profiles are emitted, else by its index.  A child's counts are its
    parent's with one jump added; their last position is the largest jump,
    the index (1 at the root, whose counts are empty).  Every column depends
    on the key alone, so the member test ``_counted`` and the class tests run
    once per distinct key, as each row is built after the walk.  The ``arf``
    column counts the ``_arf_walk`` entries that pass the member test.
    """
    counted = _counted(request)
    with_profiles = request.emit == "full"
    arf_nodes = _arf_walk(request.max_genus)
    arf = Counter(depth for depth, _, index in arf_nodes if counted is None or counted(index))
    # The walk is preorder, so a node's parent is the last node yielded one
    # level up.  Slot d + 1 holds what the last node at depth d passes to its
    # children; slot 0 stands in for the root's parent.
    leap_slots: list[tuple[int, ...]] = [()] * (request.max_genus + 2)
    tallies: list[dict] = [{} for _ in range(request.max_genus + 1)]
    for depth, gaps, key in arf_nodes if request.mode == "arf" else _universe(request):
        if with_profiles:
            key = leap_slots[depth]
            if depth:
                key = _add_leap(key, gaps[-1] - (gaps[-2] if depth > 1 else -1))
            leap_slots[depth + 1] = key
        tally = tallies[depth]
        tally[key] = tally.get(key, 0) + 1
    index_of = (lambda counts: max(len(counts) - 1, 1)) if with_profiles else (lambda index: index)
    rows = []
    for genus, tally in enumerate(tallies):
        kept = {key: n for key, n in tally.items() if counted is None or counted(index_of(key))}
        # kappa-sparse iff the index (largest leap jump) is at most kappa; pure iff equal
        per_class = {
            "arf": arf[genus],
            "sparse": sum(n for key, n in kept.items() if index_of(key) <= 2),
            "kappa_sparse": sum(n for key, n in kept.items() if index_of(key) <= request.kappa),
            "pure_kappa_sparse": sum(n for key, n in kept.items() if index_of(key) == request.kappa),
        }
        histogram = {
            LeapProfile(tuple((jump, c) for jump, c in enumerate(counts) if c)): n
            for counts, n in (kept.items() if with_profiles else ())
        }
        rows.append(CensusRow(genus, sum(kept.values()), per_class, histogram))
    return rows
