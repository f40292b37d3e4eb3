"""Level sizes by a depth-first count that builds nothing, imported only when a count runs."""

from __future__ import annotations

from bisect import bisect_right

from .enumeration import _stays_arf


def _count(max_genus: int, span: int | None, pure: bool, arf: bool) -> int:
    """How many members of genus ``max_genus`` >= 2 the class has.

    A child that removes x from a node with Frobenius number F adds one leap, (F, x).  So with
    ``span`` kappa only the children with x <= F + kappa are kappa-sparse, and only those are
    walked; ``pure`` counts the nodes of index kappa among them.  With ``arf`` (``span`` 2) a
    child is walked if ``_stays_arf`` also passes it.  Without ``span`` every node is counted.

    A node carries what ``_tree``'s carries, without a key, and its children's generators are
    found as there.  Nothing is stacked below depth ``max_genus - 2``: such a node counts its
    grandchildren, each child's generators up to x + ``span``.  Without ``span`` no child's
    generators are listed.  The child without the i-th of n generators keeps the n - 1 - i above
    it, n(n - 1)/2 over all i, and gains y = x + m when the AND finds y new; the ordinary child
    without m has x + 1 instead of n - 1.
    """
    width = 3 * max_genus
    everything = (1 << width + 1) - 1
    last = max_genus - 2
    total = 0
    stack = [(0, -1, 1, 1, everything, everything, (1,))]
    while stack:
        depth, frobenius, multiplicity, index, members, reversed_members, generators = stack.pop()
        n = len(generators) if span is None else bisect_right(generators, frobenius + span)
        if depth == last and span is None:
            total += n * (n - 1) // 2
            for x in generators:
                if x == multiplicity:
                    total += x + 2 - n
                    continue
                sums = (members & reversed_members >> width - x - multiplicity) >> multiplicity + 1
                total += not sums & (1 << x - multiplicity - 1) - 1
            continue
        for i in range(n):
            x = generators[i]
            if arf and not _stays_arf(members, frobenius, x):
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
            child_index = index if index > x - frobenius else x - frobenius
            if depth < last:
                stack.append((
                    depth + 1, x, child_multiplicity, child_index,
                    members ^ 1 << x, reversed_members ^ 1 << width - x, child_generators,
                ))
                continue
            grandchildren = child_generators[: bisect_right(child_generators, x + span)]
            if arf:
                child_members = members ^ 1 << x
                total += sum(_stays_arf(child_members, x, g) for g in grandchildren)
            elif not pure or child_index == span:
                total += len(grandchildren)
            elif grandchildren:  # of index kappa only through a last jump of kappa
                total += grandchildren[-1] == x + span
    return total
