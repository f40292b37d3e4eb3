from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from collections import Counter
from math import comb

import pytest

from sparsegroup import (
    CensusRow,
    EnumerationRequest,
    NumericalSemigroup,
    census,
    children,
    enumerate_genus,
    enumerate_kappa_sparse,
    is_arf_definition,
    is_arf_double,
    is_arf_stable,
    is_kappa_sparse,
    is_pure_kappa_sparse,
    is_sparse,
    leap_profile,
    level_size,
    max_leap_jump,
    ordinary,
    sparseness_index,
)
from sparsegroup import enumeration
from sparsegroup.enumeration import EMITS, MODES, _stays_arf, _walk, members

from oracle import (
    ARF_LEVEL_SIZES,
    KAPPA_LEVEL_SIZES,
    KNOWN_LEVEL_SIZES,
    PUBLISHED_LEVEL_SIZES,
    arf_walk,
    brute_force_gap_sets,
    is_arf,
    kappa_sparse_walk,
    leap_counts,
)


def gs(*gaps: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_gaps(gaps)


class TestChildren:
    def test_root(self):
        assert children(gs()) == (gs(1),)

    def test_genus_one(self):
        assert children(gs(1)) == (gs(1, 2), gs(1, 3))

    def test_only_generators_above_frobenius_are_removable(self):
        # generators of gaps {1,3} are 2 and 5; only 5 exceeds the Frobenius number 3
        assert children(gs(1, 3)) == (gs(1, 3, 5),)

    def test_children_invert_through_the_parent_map(self, level):
        for g in range(7):
            for node in level(g):
                for child in children(node):
                    assert child.genus == node.genus + 1
                    assert child.adjoin_frobenius() == node


def reference_walk(max_genus, keep=None):
    """Depth-first preorder built from the reference ``children``, pruned by ``keep``."""

    def visit(depth, node):
        yield depth, node
        if depth < max_genus:
            for child in children(node):
                if keep is None or keep(child):
                    yield from visit(depth + 1, child)

    if keep is None or keep(gs()):
        yield from visit(0, gs())


class TestWalk:
    @pytest.mark.parametrize("kappa", [None, 1, 2, 3, 4])
    def test_matches_the_reference_walk_in_order(self, kappa):
        """Node for node, with each carried index equal to the one recomputed from the gaps.

        The walk to genus 16 has 11770 nodes unpruned and 2643 at kappa 3.
        """
        keep_index = None if kappa is None else (lambda index: index <= kappa)
        keep_node = None if kappa is None else (lambda s: is_kappa_sparse(s, kappa))
        for max_genus in (*range(13), 16):
            walked = list(_walk(max_genus, keep_index))
            expected = [
                (depth, node.gaps, sparseness_index(node))
                for depth, node in reference_walk(max_genus, keep_node)
            ]
            assert walked == expected

    def test_keep_calls_on_the_kappa_3_walk_to_genus_20(self):
        """The stream of ``enumerate --kappa 3`` to genus 20: keep runs 32793 times and 12984 nodes remain."""
        calls = []
        walked = sum(1 for _ in _walk(20, lambda index: calls.append(index) or index <= 3))
        assert (len(calls), walked) == (32793, 12984)

    @pytest.mark.parametrize("arf", [False, True], ids=["stream", "arf-stream"])
    def test_a_keep_that_refuses_the_root_walks_nothing(self, arf):
        calls = []

        def refuse(index):
            calls.append(index)
            return False

        assert list(enumeration._tree(5, refuse, 2 if arf else None, arf, stream=True)) == []
        assert calls == [1]

    def test_keep_sees_the_root_and_every_candidate_child(self):
        """The root, then per expanded node in preorder each child's index, by descending x."""
        for kappa in (2, 3):
            seen = []
            list(_walk(10, lambda index: seen.append(index) or index <= kappa))
            expected = [1] + [
                sparseness_index(child)
                for depth, node in reference_walk(10, lambda s: is_kappa_sparse(s, kappa))
                if depth < 10
                for child in reversed(children(node))
            ]
            assert seen == expected

    def test_published_level_sizes(self):
        """The walk to genus 22, and ``level_size`` to 22 against it and to 24 against the table."""
        walked = 22
        sizes = [0] * (walked + 1)
        for depth, _, _ in _walk(walked):
            sizes[depth] += 1
        assert tuple(sizes) == PUBLISHED_LEVEL_SIZES[: walked + 1]
        counted = [level_size(EnumerationRequest(g)) for g in range(len(PUBLISHED_LEVEL_SIZES))]
        assert counted[: walked + 1] == sizes
        assert tuple(counted) == PUBLISHED_LEVEL_SIZES


def arf_stream(max_genus):
    """The library's Arf walk, as the ``--arf`` stream and census read it."""
    walk, _ = enumeration._universe(EnumerationRequest(max_genus, mode="arf"))
    return list(walk)


def member_mask(semigroup, width):
    """Bit n set iff n is a member, for n in [0, width]."""
    return sum(1 << n for n in range(width + 1) if n in semigroup)


class TestArfWalk:
    def test_equals_the_recursion_and_the_full_walk_filtered_by_two_deciders(self):
        """Node for node and in order to genus 15, against three references.

        The multiplicity recursion, the triple condition and tail stability: none of them
        is the child test that the walk runs.
        """
        stream = arf_stream(15)
        assert stream == arf_walk(15)
        nodes = [(depth, NumericalSemigroup(gaps), index) for depth, gaps, index in _walk(15)]
        for decider in (is_arf_definition, is_arf_stable):
            filtered = [(depth, node.gaps, index) for depth, node, index in nodes if decider(node)]
            assert stream == filtered

    def test_level_sizes_from_four_enumerators(self):
        """The recursion, the filtered index-<= 2 walk, the Arf walk and its count, to genus 30.

        Filling the largest gap keeps a semigroup Arf, so the filter inherits a non-Arf
        parent's verdict and tests only the root and the children of Arf nodes.  ``level_size``
        counts each level from two levels up, through the grandchild test.
        """
        max_genus = len(ARF_LEVEL_SIZES) - 1
        recursion = [0] * (max_genus + 1)
        for depth, _, _ in arf_walk(max_genus):
            recursion[depth] += 1
        walked = [0] * (max_genus + 1)
        for depth, _, _ in arf_stream(max_genus):
            walked[depth] += 1
        filtered = [0] * (max_genus + 1)
        verdicts = [True] * (max_genus + 2)
        for depth, gaps, _ in _walk(max_genus, lambda index: index <= 2):
            verdicts[depth + 1] = verdicts[depth] and is_arf_definition(NumericalSemigroup(gaps))
            filtered[depth] += verdicts[depth + 1]
        counted = [level_size(EnumerationRequest(g, mode="arf")) for g in range(max_genus + 1)]
        assert tuple(recursion) == tuple(walked) == tuple(filtered) == ARF_LEVEL_SIZES
        assert tuple(counted) == ARF_LEVEL_SIZES

    def test_the_child_test_on_every_arf_node_to_genus_14(self):
        """Off the walk: each child of each Arf node, from the reference ``children``.

        No child that removes an x >= F + 3 is Arf, and the child test agrees with the triple
        condition, on a member mask as wide as the walk's and on a wider one.
        """
        arf_nodes, far = [NumericalSemigroup(())], 0
        for node in arf_nodes:  # extended as it is read, with the Arf children to genus 14
            masks = [member_mask(node, width) for width in (3 * 14, 5 * 14)]  # the walk's width, and wider
            for child in children(node):
                x, arf = child.frobenius, is_arf_definition(child)
                if x >= node.frobenius + 3:
                    assert not arf, child.gaps
                    far += 1
                assert [_stays_arf(mask, node.frobenius, x) for mask in masks] == [arf, arf], child.gaps
                if arf and child.genus <= 14:
                    arf_nodes.append(child)
        assert len(arf_nodes) == sum(ARF_LEVEL_SIZES[:15])
        assert far > len(arf_nodes)

    def test_a_deep_arf_stream_holds_no_list_of_the_class(self):
        """The first genus-50 member comes off a depth-first stack: well under 2 MiB traced.

        A walk that lists all 27102 Arf semigroups of genus <= 50 before it yields one peaks
        near 14 MiB.
        """
        tracemalloc.start()
        try:
            first = next(members(EnumerationRequest(50, mode="arf")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.genus == 50 and is_arf_double(first)
        assert peak < 2 * 2**20


@functools.cache
def reference_nodes(max_genus):
    """Every node to ``max_genus`` by the reference walk, with its index, Arf verdict and profile.

    The verdict is the triple condition, not the child test that the Arf walk runs.
    """
    return [
        (depth, sparseness_index(node), is_arf_definition(node), leap_profile(node))
        for depth, node in reference_walk(max_genus)
    ]


def reference_census(request):
    """The census recomputed node by node from the unpruned reference walk."""
    kappa = request.kappa
    genera = range(request.max_genus + 1)
    totals = [0 for _ in genera]
    per_class = [dict.fromkeys(("arf", "sparse", "kappa_sparse", "pure_kappa_sparse"), 0) for _ in genera]
    histograms = [{} for _ in genera]
    for depth, index, arf, profile in reference_nodes(request.max_genus):
        member = {
            "all": True,
            "kappa_sparse": index <= kappa,
            "pure_kappa_sparse": index == kappa,
            "arf": arf,
        }[request.mode]
        if not member:
            continue
        totals[depth] += 1
        columns = per_class[depth]
        columns["arf"] += arf
        columns["sparse"] += index <= 2
        columns["kappa_sparse"] += index <= kappa
        columns["pure_kappa_sparse"] += index == kappa
        if request.emit == "full":
            histograms[depth][profile] = histograms[depth].get(profile, 0) + 1
    return [CensusRow(g, totals[g], per_class[g], histograms[g]) for g in genera]


@functools.cache
def oracle_level(genus):
    """Each gap tuple of the brute-force level, with its index, Arf verdict and leap counts.

    The index is the largest jump, 1 at the root; the verdict is the oracle's doubling condition.
    """
    nodes = []
    for gaps in brute_force_gap_sets(genus):
        jumps = [b - a for a, b in zip((-1,) + gaps, gaps)]
        nodes.append((max(jumps, default=1), is_arf(gaps), leap_counts(Counter(jumps))))
    return nodes


def oracle_census(request):
    """Every census cell recounted from ``tests/oracle.py``: the raw gap tuples and its deciders."""
    kappa = request.kappa
    rows = []
    for genus in range(request.max_genus + 1):
        total, histogram = 0, Counter()
        per_class = dict.fromkeys(("arf", "sparse", "kappa_sparse", "pure_kappa_sparse"), 0)
        for index, arf, counts in oracle_level(genus):
            member = {
                "all": True, "arf": arf, "kappa_sparse": index <= kappa, "pure_kappa_sparse": index == kappa
            }[request.mode]
            if not member:
                continue
            total += 1
            per_class["arf"] += arf
            per_class["sparse"] += index <= 2
            per_class["kappa_sparse"] += index <= kappa
            per_class["pure_kappa_sparse"] += index == kappa
            if request.emit == "full":
                histogram[counts] += 1
        rows.append((genus, total, per_class, histogram))
    return rows


def _count_calls(monkeypatch, *functions):
    """Count calls to ``functions`` through every name any sparsegroup module binds them to."""
    calls = Counter()
    for function in functions:

        def counted(*args, _function=function, **kwargs):
            calls[_function.__name__] += 1
            return _function(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sparsegroup":
                for name, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, name, counted)
    return calls


class TestEnumerateGenus:
    def test_level_zero(self):
        assert list(enumerate_genus(0)) == [gs()]

    def test_level_two_in_tree_order(self):
        assert list(enumerate_genus(2)) == [gs(1, 2), gs(1, 3)]

    def test_matches_brute_force_oracle(self, level):
        for g in range(8):
            expected = set(brute_force_gap_sets(g))
            produced = [node.gaps for node in level(g)]
            assert len(produced) == len(set(produced))
            assert set(produced) == expected
            assert len(produced) == KNOWN_LEVEL_SIZES[g]

    def test_deterministic(self):
        assert list(enumerate_genus(6)) == list(enumerate_genus(6))

    def test_frobenius_below_twice_the_multiplicity(self, level):
        """F < 2m leaves gaps 1..m-1 and any subset of (m, 2m): C(m - 1, g - m + 1) at each m.

        Summed over m, that is the Fibonacci number F(g + 1) (Zhao 2010; Bras-Amoros 2008),
        a count for a slice of every level that owes nothing to the tree.
        """
        for g in range(17):
            walked = sum(1 for node in level(g) if node.frobenius < 2 * node.multiplicity)
            assert walked == sum(comb(m - 1, g - m + 1) for m in range(1, g + 2)), g

    def test_genus_cap_enforced(self):
        """The cap belongs to the command line: the library walks past 18."""
        assert sum(1 for _ in enumerate_genus(19)) == PUBLISHED_LEVEL_SIZES[19] == 22464

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_genus(-1))


class TestLevelSize:
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_the_member_stream(self, mode):
        """Genus 0..14 and kappa 1..5, which ``all`` and ``arf`` ignore; kappa 1 keeps only the root."""
        for genus in range(15):
            for kappa in range(1, 6):
                request = EnumerationRequest(genus, kappa_filter=kappa, mode=mode)
                assert level_size(request) == sum(1 for _ in members(request)), (genus, kappa)

    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("all", PUBLISHED_LEVEL_SIZES),
            ("arf", ARF_LEVEL_SIZES),
            ("kappa_sparse", KAPPA_LEVEL_SIZES[3]),
            ("pure_kappa_sparse", [a - b for a, b in zip(KAPPA_LEVEL_SIZES[3], KAPPA_LEVEL_SIZES[2])]),
        ],
    )
    def test_builds_no_semigroup(self, monkeypatch, mode, expected):
        """Not at genus 0 and 1, which have no level two up, nor at 2, counted from the root alone."""
        built = []
        unchecked = NumericalSemigroup._unchecked.__func__
        init = NumericalSemigroup.__init__
        monkeypatch.setattr(
            NumericalSemigroup,
            "_unchecked",
            classmethod(lambda cls, gaps: built.append(gaps) or unchecked(cls, gaps)),
        )
        monkeypatch.setattr(
            NumericalSemigroup, "__init__", lambda self, gaps: built.append(gaps) or init(self, gaps)
        )
        genera = (0, 1, 2, 3, 9)
        counted = [level_size(EnumerationRequest(g, kappa_filter=3, mode=mode)) for g in genera]
        assert built == []
        assert counted == [expected[g] for g in genera]
        NumericalSemigroup((1,))
        NumericalSemigroup._unchecked((1, 2))
        assert built == [(1,), (1, 2)]  # the patches see both constructions

    def test_pure_kappa_above_every_index_is_empty(self):
        for genus in range(15):
            top = max(index for depth, _, index in _walk(genus) if depth == genus)
            for kappa, nonempty in ((top, True), (top + 1, False)):
                request = EnumerationRequest(genus, kappa_filter=kappa, mode="pure_kappa_sparse")
                streamed = sum(1 for _ in members(request))
                assert level_size(request) == streamed and (streamed > 0) == nonempty, genus


@functools.cache
def stream_leap_counts(gaps):
    """A streamed node's leap counts, from ``leap_profile`` and not from the walk's jumps."""
    return leap_profile(NumericalSemigroup(gaps)).counts


class TestAggregateWalk:
    @pytest.mark.parametrize(
        "mode, kappa",
        [("all", None), ("arf", None)]
        + [(mode, kappa) for mode in ("kappa_sparse", "pure_kappa_sparse") for kappa in (1, 2, 3, 5, 6)],
    )
    def test_tallies_equal_the_stream_bucketed_by_depth_and_key(self, mode, kappa):
        """``_tree``'s tallies at genus 0..16, both key kinds, against ``_universe``'s stream.

        ``level_size`` at each genus, which ``_tree`` counts too, is how many members the stream
        yields there.  The stream, the counts and the tallies are one loop in three modes, so this
        checks them against each other only; what checks the loop is independent of it: the
        census against ``reference_census`` (built from ``children``) and ``oracle_census``, and
        the level sizes against ``PUBLISHED_LEVEL_SIZES``.  At kappa 5 and 6 the span also cuts a
        child's generators at x + span below the largest of them.
        """
        walk, counted = enumeration._universe(EnumerationRequest(16, kappa, mode))
        nodes = [(depth, index, stream_leap_counts(gaps)) for depth, gaps, index in walk]
        streamed = Counter(depth for depth, index, _ in nodes if counted is None or counted(index))
        for genus in range(17):
            assert level_size(EnumerationRequest(genus, kappa, mode)) == streamed[genus], genus
        span, arf, _ = enumeration._class(mode, kappa)
        by_bits = {}  # the stream bucketed by depth and key, per key kind
        for max_genus in range(17):
            for bits in (0, max_genus.bit_length() + 1):
                if bits not in by_bits:
                    by_bits[bits] = [Counter() for _ in range(17)]
                    for depth, index, counts in nodes:
                        key = sum(c << bits * jump for jump, c in counts) if bits else index
                        by_bits[bits][depth][key] += 1
                expected = [dict(tally) for tally in by_bits[bits][: max_genus + 1]]
                tallies = next(enumeration._tree(max_genus, None, span, arf, bits=bits))
                assert tallies == expected, (max_genus, bits)


def jumps(gaps):
    """Each gap minus the one before it, or -1 for the first."""
    return [b - a for a, b in zip((-1,) + gaps, gaps)]


class TestKappaLevelSizes:
    """The kappa-sparse classes by genus, from the oracle walk and from ``level_size``."""

    def test_oracle_walk_is_the_filtered_brute_force_levels(self):
        for kappa in KAPPA_LEVEL_SIZES:
            walked = Counter(kappa_sparse_walk(kappa, 7))
            assert set(walked.values()) == {1}
            expected = {
                gaps for g in range(8) for gaps in brute_force_gap_sets(g) if max(jumps(gaps), default=0) <= kappa
            }
            assert set(walked) == expected

    @pytest.mark.parametrize("kappa, depth", [(2, 28), (3, 20), (4, 17), (5, 16)])
    def test_oracle_walk_matches_the_table(self, kappa, depth):
        sizes = Counter(len(gaps) for gaps in kappa_sparse_walk(kappa, depth))
        assert tuple(sizes[g] for g in range(depth + 1)) == KAPPA_LEVEL_SIZES[kappa][: depth + 1]

    @pytest.mark.parametrize("kappa", sorted(KAPPA_LEVEL_SIZES))
    def test_level_size_matches_the_table(self, kappa):
        depth = len(KAPPA_LEVEL_SIZES[kappa]) - 1
        counted = [level_size(EnumerationRequest(g, kappa, "kappa_sparse")) for g in range(depth + 1)]
        assert tuple(counted) == KAPPA_LEVEL_SIZES[kappa]

    @pytest.mark.parametrize("kappa", sorted(KAPPA_LEVEL_SIZES))
    def test_pure_level_size_is_the_difference_of_consecutive_rows(self, kappa):
        """Over the whole row of kappa, which the row of kappa - 1 outruns."""
        depth = len(KAPPA_LEVEL_SIZES[kappa]) - 1
        below = KAPPA_LEVEL_SIZES.get(kappa - 1, (1,) + (0,) * depth)  # kappa 1: the root alone
        counted = [level_size(EnumerationRequest(g, kappa, "pure_kappa_sparse")) for g in range(depth + 1)]
        assert counted == [KAPPA_LEVEL_SIZES[kappa][g] - below[g] for g in range(depth + 1)]

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    def test_the_ordinary_grandchildren_stop_at_the_span(self, kappa):
        """At depth G - 2 the ordinary node of multiplicity m = G - 1 >= kappa has an ordinary child,
        without m, whose generators m + 1, ..., 2m + 1 run past m + kappa: only kappa of its
        m + 1 = G children are kappa-sparse, and the count stops there.
        """
        for genus in range(kappa + 1, kappa + 5):
            child = ordinary(genus - 1)
            grandchildren = children(child)
            assert len(grandchildren) == genus
            assert sum(is_kappa_sparse(node, kappa) for node in grandchildren) == kappa
            expected = sum(1 for gaps in kappa_sparse_walk(kappa, genus) if len(gaps) == genus)
            assert level_size(EnumerationRequest(genus, kappa, "kappa_sparse")) == expected


class TestEnumerateKappaSparse:
    def test_both_genus_two_semigroups_are_sparse(self):
        assert list(enumerate_kappa_sparse(2, 2)) == [gs(1, 2), gs(1, 3)]

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_kappa_one_is_empty_for_positive_genus(self, g):
        assert list(enumerate_kappa_sparse(g, 1)) == []

    def test_kappa_one_at_genus_zero(self):
        assert list(enumerate_kappa_sparse(0, 1)) == [gs()]

    @pytest.mark.parametrize("a, kappa", [(3, 3), (4, 3), (5, 3), (5, 4)])
    def test_contains_the_two_block_family(self, a, kappa):
        from sparsegroup import example_family

        family = example_family(a, kappa)
        assert family in list(enumerate_kappa_sparse(2 * a - kappa, kappa))

    def test_pruned_equals_filtered(self, level):
        for g in range(8):
            for kappa in range(2, 6):
                pruned = list(enumerate_kappa_sparse(g, kappa))
                filtered = [node for node in level(g) if is_kappa_sparse(node, kappa)]
                assert pruned == filtered

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_kappa_sparse(3, 0))

    def test_class_counts_grow_with_kappa(self):
        for g in range(8):
            counts = [
                sum(1 for _ in enumerate_kappa_sparse(g, kappa)) for kappa in range(1, 8)
            ]
            assert counts == sorted(counts)
        # ...and strictly, at the genus matching the witness for each step
        for kappa in range(1, 6):
            genus = kappa + 1
            below = sum(1 for _ in enumerate_kappa_sparse(genus, kappa))
            above = sum(1 for _ in enumerate_kappa_sparse(genus, kappa + 1))
            assert below < above


class TestEnumerationRequest:
    def test_defaults(self):
        request = EnumerationRequest(max_genus=4)
        assert request.mode == "all"
        assert request.kappa == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            EnumerationRequest(max_genus=2, mode="everything")

    def test_bad_emit(self):
        with pytest.raises(ValueError):
            EnumerationRequest(max_genus=2, emit="stream")

    def test_kappa_modes_need_kappa(self):
        with pytest.raises(ValueError):
            EnumerationRequest(max_genus=2, mode="kappa_sparse")



class TestCensus:
    def test_genus_zero_row(self):
        rows = census(EnumerationRequest(max_genus=0))
        assert len(rows) == 1
        row = rows[0]
        assert row.total == 1
        assert row.per_class == {
            "arf": 1,
            "sparse": 1,
            "kappa_sparse": 1,
            "pure_kappa_sparse": 0,
        }

    def test_every_small_genus_is_sparse(self):
        rows = census(EnumerationRequest(max_genus=2))
        assert [row.total for row in rows] == [1, 1, 2]
        assert all(row.per_class["sparse"] == row.total for row in rows)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_arf_decider_runs_in_any_mode(self, monkeypatch, mode):
        """The ``arf`` column and the Arf stream come from the Arf walk, not from a decider."""
        calls = _count_calls(monkeypatch, is_arf_double, is_arf_definition, is_arf_stable)
        request = EnumerationRequest(max_genus=10, kappa_filter=3, mode=mode)
        rows = census(request)
        streamed = sum(1 for _ in enumeration.members(request))
        assert calls == {}
        assert streamed == rows[-1].total
        # the Arf semigroups of genus <= 10, all of index <= 2, so none is pure 3-sparse
        arf = sum(row.per_class["arf"] for row in rows)
        assert arf == (0 if mode == "pure_kappa_sparse" else 86)

    @pytest.mark.parametrize("mode", ["kappa_sparse", "pure_kappa_sparse"])
    def test_kappa_modes_compute_no_leap_statistics_per_node(self, monkeypatch, mode):
        calls = _count_calls(
            monkeypatch, sparseness_index, max_leap_jump, leap_profile, is_kappa_sparse
        )
        rows = census(EnumerationRequest(max_genus=10, kappa_filter=3, mode=mode))
        assert sum(row.total for row in rows) == (226 if mode == "kappa_sparse" else 125)
        assert calls == {}

    def test_arf_mode_filters_the_universe(self, level):
        rows = census(EnumerationRequest(max_genus=7, mode="arf"))
        for row in rows:
            expected = sum(1 for node in level(row.genus) if is_arf_stable(node))
            assert row.total == expected
            assert row.per_class["arf"] == row.total
            assert row.per_class["arf"] <= len(level(row.genus))

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_walks_the_arf_subtree_once(self, monkeypatch, mode):
        """In ``arf`` mode the universe is the Arf subtree, and its rows give the ``arf`` column."""
        walk, arf_walks = enumeration._tree, []

        def counted(*args, **kwargs):
            arf_walks.append(inspect.signature(walk).bind(*args, **kwargs).arguments["arf"])
            return walk(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_tree", counted)
        rows = census(EnumerationRequest(12, kappa_filter=3, mode=mode))
        assert arf_walks.count(True) == 1
        arf = sum(row.per_class["arf"] for row in rows)
        assert arf == (0 if mode == "pure_kappa_sparse" else sum(ARF_LEVEL_SIZES[:13]))

    @pytest.mark.parametrize("kappa", [1, 3])
    def test_kappa_mode_restricts_the_universe(self, level, kappa):
        rows = census(EnumerationRequest(max_genus=6, kappa_filter=kappa, mode="kappa_sparse"))
        for row in rows:
            members = [node for node in level(row.genus) if is_kappa_sparse(node, kappa)]
            assert row.total == len(members)
            assert row.per_class["kappa_sparse"] == row.total
            assert row.per_class["sparse"] == sum(1 for node in members if is_sparse(node))
            assert row.per_class["pure_kappa_sparse"] == sum(
                1 for node in members if is_pure_kappa_sparse(node, kappa)
            ), row.genus
        assert rows[0].total == 1  # the full naturals

    def test_all_mode_counts_classes_in_the_full_universe(self, level):
        rows = census(EnumerationRequest(max_genus=6, kappa_filter=3))
        for row in rows:
            assert row.total == len(level(row.genus))
            assert row.per_class["kappa_sparse"] == sum(
                1 for node in level(row.genus) if is_kappa_sparse(node, 3)
            )

    def test_profile_histogram_sums_to_total(self):
        for mode, kappa in [
            ("all", None),
            ("kappa_sparse", 3),
            ("pure_kappa_sparse", 4),
            ("kappa_sparse", 1),
            ("pure_kappa_sparse", 1),
        ]:
            rows = census(EnumerationRequest(max_genus=6, mode=mode, kappa_filter=kappa))
            for row in rows:
                assert sum(row.profile_histogram.values()) == row.total
                assert all(count <= row.total for count in row.per_class.values())

    @pytest.mark.parametrize("emit", EMITS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kappa", [1, 2, 3, 4])
    def test_matches_the_reference_census(self, mode, emit, kappa):
        request = EnumerationRequest(max_genus=12, kappa_filter=kappa, mode=mode, emit=emit)
        assert census(request) == reference_census(request)

    @pytest.mark.parametrize("emit", EMITS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kappa", [1, 2, 3, 4])
    def test_every_cell_matches_the_oracle_levels(self, mode, emit, kappa):
        """Totals, the four class columns and the profile histogram, against brute-force levels."""
        request = EnumerationRequest(max_genus=9, kappa_filter=kappa, mode=mode, emit=emit)
        rows = [
            (row.genus, row.total, row.per_class, {p.counts: n for p, n in row.profile_histogram.items()})
            for row in census(request)
        ]
        assert rows == oracle_census(request)

    @pytest.mark.parametrize(
        "max_genus, kappa, mode",
        [
            (20, None, "all"),
            (30, 2, "kappa_sparse"),
            (30, None, "arf"),
            (24, 3, "pure_kappa_sparse"),
            (12, 1, "kappa_sparse"),
            (12, 1, "pure_kappa_sparse"),
        ],
    )
    def test_count_only_totals_are_the_level_sizes(self, max_genus, kappa, mode):
        """The census tallies and ``level_size``'s count, two ends of one walk, agree on every level."""
        rows = census(EnumerationRequest(max_genus, kappa, mode, "count_only"))
        assert [row.total for row in rows] == [
            level_size(EnumerationRequest(genus, kappa, mode)) for genus in range(max_genus + 1)
        ]

    def test_deterministic(self):
        first = census(EnumerationRequest(max_genus=5, kappa_filter=3))
        second = census(EnumerationRequest(max_genus=5, kappa_filter=3))
        assert first == second

    def test_row_type(self):
        (row,) = census(EnumerationRequest(max_genus=0))
        assert isinstance(row, CensusRow)


class TestTreeShape:
    def test_no_duplicates_across_walk(self, level):
        seen: set[tuple[int, ...]] = set()
        for g in range(8):
            for node in level(g):
                assert node.gaps not in seen
                seen.add(node.gaps)

    def test_ordinary_is_always_first_in_tree_order(self, level):
        # the ordinary semigroup removes the smallest possible generator at
        # every step, so depth-first order puts it first on each level
        for g in range(7):
            assert level(g)[0] == ordinary(g)
