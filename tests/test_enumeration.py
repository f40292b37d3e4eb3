from __future__ import annotations

import functools
import sys
from collections import Counter

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
from sparsegroup.enumeration import EMITS, MODES, _arf_walk, _walk, members

from oracle import ARF_LEVEL_SIZES, KNOWN_LEVEL_SIZES, PUBLISHED_LEVEL_SIZES, brute_force_gap_sets


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
        """The census_pruned benchmark walk: keep runs 32793 times and 12984 nodes remain."""
        calls = []
        walked = sum(1 for _ in _walk(20, lambda index: calls.append(index) or index <= 3))
        assert (len(calls), walked) == (32793, 12984)

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


class TestArfWalk:
    def test_equals_the_full_walk_filtered_by_the_independent_deciders(self):
        """Node for node and in order to genus 15, against the triple condition and tail stability.

        Neither decider uses the multiplicity recursion that ``_arf_walk`` runs forwards.
        """
        nodes = [(depth, NumericalSemigroup(gaps), index) for depth, gaps, index in _walk(15)]
        for decider in (is_arf_definition, is_arf_stable):
            filtered = [(depth, node.gaps, index) for depth, node, index in nodes if decider(node)]
            assert _arf_walk(15) == filtered

    def test_level_sizes_from_two_enumerators(self):
        """The recursion, and the index-<= 2 walk filtered by the triple condition, to genus 30.

        Filling the largest gap keeps a semigroup Arf, so the filter inherits a non-Arf
        parent's verdict and tests only the root and the children of Arf nodes.
        """
        max_genus = len(ARF_LEVEL_SIZES) - 1
        recursion = [0] * (max_genus + 1)
        for depth, _, _ in _arf_walk(max_genus):
            recursion[depth] += 1
        filtered = [0] * (max_genus + 1)
        verdicts = [True] * (max_genus + 2)
        for depth, gaps, _ in _walk(max_genus, lambda index: index <= 2):
            verdicts[depth + 1] = verdicts[depth] and is_arf_definition(NumericalSemigroup(gaps))
            filtered[depth] += verdicts[depth + 1]
        assert tuple(recursion) == tuple(filtered) == ARF_LEVEL_SIZES


@functools.cache
def reference_nodes(max_genus):
    """Every node to ``max_genus`` by the reference walk, with its index, Arf verdict and profile.

    The verdict is the triple condition, not the Arf-sequence test that ``_arf_walk`` runs forwards.
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

    def test_pure_kappa_above_every_index_is_empty(self):
        for genus in range(15):
            top = max(index for depth, _, index in _walk(genus) if depth == genus)
            for kappa, nonempty in ((top, True), (top + 1, False)):
                request = EnumerationRequest(genus, kappa_filter=kappa, mode="pure_kappa_sparse")
                streamed = sum(1 for _ in members(request))
                assert level_size(request) == streamed and (streamed > 0) == nonempty, genus


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
        """The ``arf`` column and the Arf stream come from ``_arf_walk``, not from a decider."""
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
