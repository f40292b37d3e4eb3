"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines inline).
"""

from __future__ import annotations

import time

from sparsegroup import (
    NumericalSemigroup,
    enumerate_kappa_sparse,
    example_family,
    frobenius_from_profile,
    is_arf_definition,
    is_arf_double,
    is_arf_stable,
    is_hyperelliptic,
    is_kappa_sparse,
    is_kappa_sparse_gapdiff,
    is_kappa_sparse_nongap,
    is_kappa_sparse_profile,
    is_kappa_sparse_run,
    is_pure_kappa_sparse,
    is_sparse,
    leap_profile,
    ordinary,
    sparseness_index,
)

from oracle import KNOWN_LEVEL_SIZES, brute_force_gap_sets


def _report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_oracle_census(level):
    started = time.perf_counter()
    for genus in range(8):
        expected = set(brute_force_gap_sets(genus))
        produced = {node.gaps for node in level(genus)}
        assert produced == expected
        assert len(level(genus)) == len(expected) == KNOWN_LEVEL_SIZES[genus]
    assert time.perf_counter() - started < 10.0
    _report(1, "tree enumeration matches the brute-force subset oracle", started)


def test_criterion_02_arf_equivalence(level):
    started = time.perf_counter()
    for genus in range(11):
        for node in level(genus):
            verdicts = {is_arf_definition(node), is_arf_double(node), is_arf_stable(node)}
            assert len(verdicts) == 1, node.gaps
    assert time.perf_counter() - started < 60.0
    _report(2, "three Arf procedures agree on genus <= 10", started)


def test_criterion_03_kappa_equivalence(level):
    started = time.perf_counter()
    for genus in range(13):
        for node in level(genus):
            for kappa in range(2, genus + 3):
                verdicts = {
                    is_kappa_sparse_profile(node, kappa),
                    is_kappa_sparse_gapdiff(node, kappa),
                    is_kappa_sparse_nongap(node, kappa),
                    is_kappa_sparse_run(node, kappa),
                }
                assert len(verdicts) == 1, (node.gaps, kappa)
    _report(3, "four kappa-sparse procedures agree on genus <= 12", started)


def test_criterion_04_frobenius_from_weighted_leaps(level):
    started = time.perf_counter()
    for genus in range(13):
        for node in level(genus):
            assert frobenius_from_profile(leap_profile(node)) == node.frobenius
    _report(4, "weighted leap sum minus one equals the Frobenius number", started)


def test_criterion_05_leap_biconditionals(level):
    started = time.perf_counter()
    for genus in range(13):
        for node in level(genus):
            profile = leap_profile(node)
            if genus > 0:
                hyper = is_hyperelliptic(node)
                assert hyper == (profile.v(1) == 0)
                if hyper:
                    assert dict(profile.counts) == {2: genus}
            assert (profile.v(2) == 0) == (genus == 0)
            assert (profile.v(2) != 0) == (1 not in node)
            if genus > 0:
                assert ((profile.v(1), profile.v(2)) == (genus - 1, 1)) == (
                    node == ordinary(genus)
                )
            sparse = is_sparse(node)
            assert sparse == (profile.v(1) + profile.v(2) == genus)
            if sparse:
                assert node.frobenius == profile.v(1) + 2 * profile.v(2) - 1
            if genus > 0:
                K = 2 * genus - node.frobenius
                assert sparse == (profile.v(1) == K - 1 and profile.v(2) == genus - K + 1)
    _report(5, "hyperelliptic/ordinary/sparse leap biconditionals on genus <= 12", started)


def test_criterion_06_frobenius_variety(level):
    started = time.perf_counter()
    small = [node for genus in range(9) for node in level(genus)]
    for kappa in (2, 3, 4):
        members = [node for node in small if is_kappa_sparse(node, kappa)]
        for i, left in enumerate(members):
            for right in members[i:]:
                assert is_kappa_sparse(left.intersect(right), kappa), (left.gaps, right.gaps)
        for genus in range(1, 13):
            for node in level(genus):
                if is_kappa_sparse(node, kappa):
                    assert is_kappa_sparse(node.adjoin_frobenius(), kappa), node.gaps
    _report(6, "classes closed under intersection and Frobenius adjunction", started)


def test_criterion_07_pruned_equals_filtered(level):
    started = time.perf_counter()
    for genus in range(11):
        for kappa in range(2, 7):
            pruned = {node.gaps for node in enumerate_kappa_sparse(genus, kappa)}
            filtered = {node.gaps for node in level(genus) if is_kappa_sparse(node, kappa)}
            assert pruned == filtered, (genus, kappa)
    _report(7, "pruned class enumeration equals filtered full enumeration", started)


def test_criterion_08_chain_and_partition(level):
    started = time.perf_counter()
    for kappa in range(1, 7):
        if kappa == 1:
            witness = NumericalSemigroup.from_gaps((1,))
        else:
            witness = example_family(kappa + 1, kappa + 1)
        assert is_kappa_sparse(witness, kappa + 1)
        assert not is_kappa_sparse(witness, kappa)
    for genus in range(13):
        nodes = level(genus)
        pure_sum = sum(
            sum(1 for node in nodes if is_pure_kappa_sparse(node, kappa))
            for kappa in range(1, genus + 3)
        )
        assert pure_sum == len(nodes), genus
    _report(8, "strict chain witnesses and pure-class partition", started)


def test_criterion_09_two_block_family(level):
    started = time.perf_counter()
    for kappa in range(3, 7):
        for a in range(kappa, kappa + 5):
            family = example_family(a, kappa)
            genus = 2 * a - kappa
            assert family.genus == genus
            assert family.multiplicity == a
            assert family.element(kappa) == 2 * a
            matches = [
                node
                for node in level(genus)
                if node.multiplicity == a
                and node.element(kappa) == 2 * a
                and is_pure_kappa_sparse(node, kappa)
            ]
            assert matches == [family], (a, kappa)
    _report(9, "two-block family shape and uniqueness", started)


def test_criterion_10_arf_implies_sparse(level):
    started = time.perf_counter()
    for genus in range(11):
        for node in level(genus):
            if is_arf_double(node):
                assert sparseness_index(node) <= 2, node.gaps
    _report(10, "Arf members have sparseness index at most 2", started)
