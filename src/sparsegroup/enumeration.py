"""Exhaustive enumeration over the semigroup tree, with class pruning and census tables."""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .core import NumericalSemigroup, _require_genus, _require_kappa

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
    This is ``_tree``'s stream, the walk that also counts and tallies.
    """
    return _tree(max_genus, keep, stream=True)


def _tree(
    max_genus: int,
    keep: Callable[[int], bool] | None = None,
    span: int | None = None,
    arf: bool = False,
    pure: bool = False,
    bits: int | None = None,
    stream: bool = False,
) -> Iterator:
    """The one walk over the tree: with ``stream`` each node, else once the class's count or tallies.

    A child that removes x from a node with Frobenius number F adds one leap, (F, x), of jump
    x - F.  So with ``span`` kappa only the children with x <= F + kappa are kappa-sparse, and only
    those are walked; with ``arf`` (``span`` 2) a child is walked if ``_stays_arf`` also passes it.
    ``keep`` prunes on the child's key: it is called on the root and then on every candidate
    child, by descending x, and a refused node is skipped along with its whole subtree.

    The key is the node's leap counts in ``bits``-wide fields, field j holding the leaps of jump j,
    or else its index, the largest jump (1 at the root), so a child's key is its parent's plus the
    jump x - F, or the larger of the two.  With ``stream`` it yields ``(depth, gaps, index)`` in
    depth-first preorder to depth ``max_genus``; a child at that depth is stacked without masks
    or generators, as nothing below it is read.  Without it, it yields once: with ``bits`` a tally
    per depth 0..``max_genus`` of each key's number of walked nodes, else how many members of
    genus ``max_genus`` the class has, where ``pure`` counts only those of index ``span``.

    A node carries F, its multiplicity m, key, member mask over [0, W], the reversed mask (bit
    W - n set iff n is a member), minimal generators above F and, in a stream, gaps.  Its child
    without x > F has Frobenius number x, keeps the generators above x and gains at most
    y = x + m: a new one is x + s, s a nonzero member, and none exceeds x + m.  It gains y unless
    some a in (m, x) has a and y - a as members.  On (m, x) the child and the node agree, so that
    is one AND of the node's mask with its reversed mask shifted by W - y.  The child without m of
    an ordinary node is ordinary, with generators m + 1, ..., 2m + 1.  The AND runs on children of
    nodes at depth d <= ``max_genus - 2``, whose x is at most 2d + 1 and m at most d + 1, so
    W = 3 * ``max_genus`` suffices for y <= 3d + 2.

    A count stacks nothing below depth ``max_genus - 2``: such a node tallies or counts its
    children and grandchildren, each child's generators up to x + ``span``.  A count without
    ``span`` or ``bits`` lists no child's generators: the child without the i-th of n generators
    keeps the n - 1 - i above it, n(n - 1)/2 over all i, and gains y = x + m when the AND finds y
    new; the ordinary child without m has x + 1 instead of n - 1.  Below genus 2 a count reads
    its index-keyed tally of a walk to genus 2: it sums the one at ``max_genus`` over the
    members' keys.
    """
    if max_genus < 2 and not stream:
        tallies = next(_tree(2, None, span, arf, bits=bits or 0))[: max_genus + 1]
        yield tallies if bits is not None else sum(
            n for key, n in tallies[max_genus].items() if not pure or key == span
        )
        return
    if keep is not None and not keep(1):
        return
    width = 3 * max_genus
    everything = (1 << width + 1) - 1
    last = max_genus - 1 if stream else max_genus - 2
    closed = span is None and bits is None and not stream
    tallies = None if bits is None else [{} for _ in range(max_genus + 1)]
    total = 0
    stack = [(0, -1, 1, 0 if bits else 1, everything, everything, (1,), ())]
    while stack:
        depth, frobenius, multiplicity, key, members, reversed_members, generators, gaps = stack.pop()
        if stream:
            yield depth, gaps, key
            if depth == max_genus:
                continue
        elif tallies is not None:
            tallies[depth][key] = tallies[depth].get(key, 0) + 1
        n = len(generators) if span is None else bisect_right(generators, frobenius + span)
        if depth == last and closed:
            total += n * (n - 1) // 2
            for x in generators:
                if x == multiplicity:
                    total += x + 2 - n
                    continue
                sums = (members & reversed_members >> width - x - multiplicity) >> multiplicity + 1
                total += not sums & (1 << x - multiplicity - 1) - 1
            continue
        leaves = stream and depth == last
        for i in range(n - 1, -1, -1):  # stacked last to first, so walked in tree order
            x = generators[i]
            if arf and not _stays_arf(members, frobenius, x):
                continue
            jump = x - frobenius
            child_key = key + (1 << bits * jump) if bits else key if key > jump else jump
            if keep is not None and not keep(child_key):
                continue
            if leaves:  # yielded and dropped
                stack.append((depth + 1, x, 0, child_key, 0, 0, None, gaps + (x,)))
                continue
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
            if depth < last:
                stack.append((
                    depth + 1, x, child_multiplicity, child_key,
                    members ^ 1 << x, reversed_members ^ 1 << width - x, child_generators,
                    gaps + (x,) if stream else None,
                ))
                continue
            grandchildren = child_generators
            if span is not None:
                grandchildren = child_generators[: bisect_right(child_generators, x + span)]
            if arf:
                child_members = members ^ 1 << x
                grandchildren = [g for g in grandchildren if _stays_arf(child_members, x, g)]
            if tallies is None:
                if not pure or child_key == span:
                    total += len(grandchildren)
                elif grandchildren:  # of index kappa only through a last jump of kappa
                    total += grandchildren[-1] == x + span
                continue
            tallies[depth + 1][child_key] = tallies[depth + 1].get(child_key, 0) + 1
            tally = tallies[depth + 2]
            for g in grandchildren:
                jump = g - x
                g_key = child_key + (1 << bits * jump) if bits else jump if jump > child_key else child_key
                tally[g_key] = tally.get(g_key, 0) + 1
    if not stream:
        yield total if tallies is None else tallies


def _stays_arf(members: int, frobenius: int, x: int) -> bool:
    """Whether the Arf semigroup with member mask ``members`` stays Arf without its generator x > F.

    Arf asks 2b - a in S for members a <= b, so only 2b - a = x with a < b < x can fail: a = x - 2
    and b = x - 1 if x >= F + 3, else a = 2k + p and b = k + j + p, x = 2j + p and 0 <= k < j.
    So only the members below x are rendered, after a sentinel digit for x: every second digit from
    x - 2 down to p, read in binary, has bit k set iff a is a member, and S >> j + p has it iff b is.
    """
    if x > frobenius + 2:
        return False
    return not int("0" + bin(members & (1 << x) - 1 | 1 << x)[4::2], 2) & members >> (x + 1 >> 1)


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
        _require_genus(max_genus, "max_genus")
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


def _class(mode: str, kappa: int | None = None) -> tuple[int | None, bool, Callable[[int], bool] | None]:
    """The mode as the walks take it: ``span``, the Arf flag and ``counted``.

    ``span`` is the largest leap jump a child may add and stay in the class (``None``: any), and
    ``counted`` the member test on a walked node's index (``None``: every node); filling the
    largest gap keeps a semigroup kappa-sparse, so a kappa mode prunes at the first non-member.
    """
    if mode == "arf":
        return 2, True, None
    if mode == "all":
        return None, False, None
    if mode == "pure_kappa_sparse":
        return kappa, False, lambda index: index == kappa
    return kappa, False, lambda index: index <= kappa


def _universe(request: EnumerationRequest) -> tuple[Iterator, Callable[[int], bool] | None]:
    """The stream over the request's universe, pruned by index <= kappa in a kappa mode, and ``counted``."""
    span, arf, counted = _class(request.mode, request.kappa)
    if arf:
        return _tree(request.max_genus, None, span, arf, stream=True), counted
    return _walk(request.max_genus, None if span is None else lambda index: index <= span), counted


def members(request: EnumerationRequest) -> Iterator[NumericalSemigroup]:
    """The request's class members of genus ``max_genus``, in depth-first tree order.

    ``_universe``'s stream yields them: the class test runs only at that genus,
    and only the members handed out are built as objects.
    """
    walk, counted = _universe(request)
    for depth, gaps, index in walk:
        if depth == request.max_genus and (counted is None or counted(index)):
            yield NumericalSemigroup._unchecked(gaps)


def level_size(request: EnumerationRequest) -> int:
    """How many members ``members(request)`` yields, counted without building any.

    ``_tree`` counts them in the walk that streams them, without the stream:
    it walks the class alone, so a child of index above kappa, or one that is
    not Arf, is never reached, and it stacks nothing below genus
    ``max_genus - 2``.
    """
    span, arf, _ = _class(request.mode, request.kappa)
    return next(_tree(request.max_genus, None, span, arf, request.mode == "pure_kappa_sparse"))


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

    The rows come from ``_tree``'s tallies, one per genus: the walk that
    streams and counts walks the mode's class alone and reads the last two levels off the nodes
    two levels up.  A node's key is its index, or if profiles are emitted its
    leap counts, packed into one int with a field per jump one bit wider than
    a count of ``max_genus`` needs; so the highest nonzero field, the index, is
    the key's bit length floor-divided by the field width (1 at the root).
    Every column depends on the key alone, so the member test from ``_class``,
    the class tests and the unpacking run once per distinct key, as each row
    is built.  The ``arf`` column counts the
    members in the tallies of the Arf subtree, walked once; in ``arf`` mode,
    where that subtree is the universe, it is the row's total.
    """
    bits = request.max_genus.bit_length() + 1 if request.emit == "full" else 0
    if bits:  # only a census with profiles builds them, so no count loads leaps
        from .leaps import LeapProfile
    span, arf, counted = _class(request.mode, request.kappa)
    tallies = next(_tree(request.max_genus, None, span, arf, bits=bits))
    # in arf mode, with no member test, the column is each total
    arf_tallies = tallies if arf else next(_tree(request.max_genus, None, *_class("arf")[:2], bits=0))
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
