"""Level sizes and census tallies by a depth-first walk that builds nothing, loaded only when one runs."""

from __future__ import annotations

from bisect import bisect_right

from .enumeration import _stays_arf


def _count(
    max_genus: int, span: int | None, arf: bool, pure: bool = False, bits: int | None = None
) -> int | list[dict[int, int]]:
    """How many members of genus ``max_genus`` the class has, or with ``bits`` its tallies.

    A child that removes x from a node with Frobenius number F adds one leap, (F, x), of jump
    x - F.  So with ``span`` kappa only the children with x <= F + kappa are kappa-sparse, and only
    those are walked; ``pure`` counts the nodes of index kappa among them, and tallies ignore it.
    With ``arf`` (``span`` 2) a child is walked if ``_stays_arf`` also passes it.  Without ``span``
    every node is walked.

    With ``bits`` it returns a tally per depth 0..``max_genus``: each key's number of walked nodes.
    The key is the node's leap counts in ``bits``-wide fields, field j holding the leaps of jump j,
    or its index if ``bits`` is 0, so a child's key is its parent's plus the jump x - F.  A count
    keys a node by its index too, and tallies nothing.  Below genus 2 both are read off a walk to
    genus 2: a count sums its index-keyed tally at ``max_genus`` over the members' keys.

    A node carries F, its multiplicity m, key, member mask over [0, W], the reversed mask (bit
    W - n set iff n is a member) and minimal generators above F.  Its child without x > F has
    Frobenius number x, keeps the generators above x and gains at most y = x + m: a new one is
    x + s, s a nonzero member, and none exceeds x + m.  It gains y unless some a in (m, x) has a
    and y - a as members.  On (m, x) the child and the node agree, so that is one AND of the
    node's mask with its reversed mask shifted by W - y.  The child without m of an ordinary node
    is ordinary, with generators m + 1, ..., 2m + 1.  The AND runs on children of nodes at depth
    d <= ``max_genus - 2``, whose x is at most 2d + 1 and m at most d + 1, so W = 3 * ``max_genus``
    suffices for y <= 3d + 2.

    Nothing is stacked below depth ``max_genus - 2``: such a node tallies or counts its children
    and grandchildren, each child's generators up to x + ``span``.  A count without ``span``
    lists no child's generators: the child without the i-th of n generators keeps the n - 1 - i
    above it, n(n - 1)/2 over all i, and gains y = x + m when the AND finds y new; the ordinary
    child without m has x + 1 instead of n - 1.
    """
    if max_genus < 2:
        tallies = _count(2, span, arf, bits=bits or 0)[: max_genus + 1]
        if bits is not None:
            return tallies
        return sum(n for key, n in tallies[max_genus].items() if not pure or key == span)
    width = 3 * max_genus
    everything = (1 << width + 1) - 1
    last = max_genus - 2
    tallies = None if bits is None else [{} for _ in range(max_genus + 1)]
    total = 0
    stack = [(0, -1, 1, 0 if bits else 1, everything, everything, (1,))]
    while stack:
        depth, frobenius, multiplicity, key, members, reversed_members, generators = stack.pop()
        if tallies is not None:
            tallies[depth][key] = tallies[depth].get(key, 0) + 1
        n = len(generators) if span is None else bisect_right(generators, frobenius + span)
        if depth == last and span is None and tallies is None:
            total += n * (n - 1) // 2
            for x in generators:
                if x == multiplicity:
                    total += x + 2 - n
                    continue
                sums = (members & reversed_members >> width - x - multiplicity) >> multiplicity + 1
                total += not sums & (1 << x - multiplicity - 1) - 1
            continue
        for i in range(n - 1, -1, -1):  # stacked last to first, so walked in tree order
            x = generators[i]
            if arf and not _stays_arf(members, frobenius, x):
                continue
            jump = x - frobenius
            child_key = key + (1 << bits * jump) if bits else key if key > jump else jump
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
    return total if tallies is None else tallies
