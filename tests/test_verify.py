from __future__ import annotations

import pytest

import sparsegroup.enumeration
import sparsegroup.leaps
import sparsegroup.verify
from sparsegroup import NumericalSemigroup, enumerate_genus
from sparsegroup.cli import main
from sparsegroup.enumeration import children
from sparsegroup.leaps import LeapProfile
from sparsegroup.verify import CheckResult, run_checks

# Every family, in run order, with its instance count over the census to genus 6.
GENUS_SIX_INSTANCES = {
    "tree-parent-roundtrip": 50,
    "arf-deciders-agree": 50,
    "arf-implies-sparse": 50,
    "leap-counts-sum-to-genus": 50,
    "hyperelliptic-leap-shape": 49,
    "unit-and-ordinary-signatures": 50,
    "sparse-leap-identities": 50,
    "kappa-deciders-agree": 293,
    "frobenius-equals-weighted-leaps": 50,
    "identity-matches-class": 292,
    "pure-run-agrees": 243,
    "pure-classes-partition": 50,
    "kappa-chain-strict": 349,
    "intersection-stays-in-class": 2147,
    "adjunction-stays-in-class": 203,
    "pruned-equals-filtered": 35,
    "two-block-family-structure": 29,
}


def test_every_family_passes_at_genus_six():
    results = run_checks(6)
    for result in results:
        assert result.passed, f"{result.name}: {result.counterexample}"
    assert [(r.name, r.instances) for r in results] == list(GENUS_SIX_INSTANCES.items())


def test_broken_decider_reports_first_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(sparsegroup.verify, "is_arf_stable", lambda semigroup: False)
    results = {result.name: result for result in run_checks(3)}
    failed = [name for name, result in results.items() if not result.passed]
    assert failed == ["arf-deciders-agree"]
    broken = results["arf-deciders-agree"]
    assert broken.counterexample == "gaps=[]: triple=True doubling=True stable=False"
    assert broken.instances == 1

    assert main(["verify", "--max-genus", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL arf-deciders-agree: gaps=[]: triple=True doubling=True stable=False" in lines
    assert lines[-1] == "checked 17 invariant families over genus <= 3: 1 failed"


def test_check_result_reports_failure():
    failing = CheckResult("example", 3, counterexample="gaps=[1]")
    assert not failing.passed
    assert CheckResult("example", 3).passed


def test_tree_roundtrip_catches_a_missing_node():
    levels = [list(enumerate_genus(g)) for g in range(4)]
    del levels[3][0]
    result = sparsegroup.verify._tree_roundtrip(levels)
    assert result.counterexample == "genus 3: 3 nodes, but genus 2 has 4 children"
    assert result.instances == 5


def real(max_genus):
    return [list(enumerate_genus(g)) for g in range(max_genus + 1)]


def crafted(*gaps):
    """One level of one gap tuple, built without validation, so it need not be a semigroup."""
    return [[NumericalSemigroup._unchecked(gaps)]]


def test_tree_roundtrip_catches_a_duplicate():
    levels = real(2)
    levels[2].append(levels[2][0])
    result = sparsegroup.verify._tree_roundtrip(levels)
    assert result == CheckResult("tree-parent-roundtrip", 3, "duplicates at genus 2")


def test_tree_roundtrip_counts_a_child_listed_twice(monkeypatch):
    """Each parent's children stay a tuple, so a duplicated child changes the level count."""
    monkeypatch.setattr(sparsegroup.verify, "children", lambda node: children(node) + children(node)[:1])
    result = sparsegroup.verify._tree_roundtrip(real(2))
    assert result == CheckResult(
        "tree-parent-roundtrip", 2, "genus 1: 1 nodes, but genus 0 has 2 children"
    )


def test_tree_roundtrip_catches_a_node_that_does_not_revalidate():
    levels = real(2)
    levels[2][-1] = NumericalSemigroup._unchecked((2, 3))
    result = sparsegroup.verify._tree_roundtrip(levels)
    assert result == CheckResult(
        "tree-parent-roundtrip", 4, "gaps=[2, 3]: 1 and 1 are non-gaps but their sum 2 is a gap"
    )


@pytest.mark.parametrize(
    "family, patches, levels, counterexample, instances",
    [
        pytest.param(
            "_tree_roundtrip",
            {"children": lambda node: (node,) * len(children(node))},
            real(1),
            "gaps=[1] is not a child of gaps=[]",
            2,
            id="not-a-child",
        ),
        pytest.param(
            "_arf_implies_sparse",
            {"sparseness_index": lambda node: 3},
            real(0),
            "gaps=[]: Arf but index 3",
            1,
            id="arf-but-not-sparse",
        ),
        pytest.param(
            "_hyperelliptic_leap_shape",
            {"is_hyperelliptic": lambda node: False},
            real(1),
            "gaps=[1]: v1 mismatch",
            1,
            id="v1-mismatch",
        ),
        pytest.param(
            "_hyperelliptic_leap_shape",
            {},
            crafted(1, 4),
            "gaps=[1, 4]: profile not all-double",
            1,
            id="not-all-double",
        ),
        pytest.param(
            "_hyperelliptic_leap_shape",
            {},
            crafted(1, 2, 6),
            "gaps=[1, 2, 6]: jump 4 above genus",
            1,
            id="jump-above-genus",
        ),
        pytest.param(
            "_unit_and_ordinary_signatures",
            {},
            crafted(2, 3),
            "gaps=[2, 3]: v2 zero test",
            1,
            id="v2-zero",
        ),
        pytest.param(
            "_unit_and_ordinary_signatures",
            {},
            crafted(2, 4),
            "gaps=[2, 4]: v2 vs 1-membership",
            1,
            id="v2-vs-1",
        ),
        pytest.param(
            "_unit_and_ordinary_signatures",
            {"ordinary": lambda genus: NumericalSemigroup(())},
            real(1),
            "gaps=[1]: ordinary signature mismatch",
            2,
            id="ordinary-signature",
        ),
        pytest.param(
            "_sparse_leap_identities",
            {"is_sparse": lambda node: False},
            real(0),
            "gaps=[]: count form",
            1,
            id="count-form",
        ),
        pytest.param(
            "_sparse_leap_identities",
            {"leap_profile": lambda node: LeapProfile(((1, node.genus),))},
            crafted(1),
            "gaps=[1]: Frobenius form",
            1,
            id="frobenius-form",
        ),
        pytest.param(
            "_kappa_deciders_agree",
            {"is_kappa_sparse_run": lambda node, kappa: kappa != 3},
            real(2),
            "gaps=[1] kappa=3: (True, True, True, False)",
            3,
            id="kappa-deciders-disagree",
        ),
        pytest.param(
            "_identity_matches_class",
            {"frobenius_identity_check": lambda node, kappa: kappa != 3},
            real(2),
            "gaps=[1] kappa=3",
            2,
            id="identity-vs-class",
        ),
        pytest.param(
            "_pure_run_agrees",
            {"is_pure_kappa_sparse": lambda node, kappa: True},
            real(2),
            "gaps=[1] kappa=3",
            1,
            id="pure-vs-run",
        ),
        pytest.param(
            "_kappa_chain_strict",
            {"is_kappa_sparse": lambda node, kappa: kappa != 3},
            real(1),
            "gaps=[]: in class 2 but not 3",
            2,
            id="chain-not-monotone",
        ),
        pytest.param(
            # every pool node is in classes 2..4; only the meet of the two genus-2 nodes
            # leaves classes 3 and 4, found after 8 pairs at 3 kappas and that pair at kappa 2
            "_intersection_stays_in_class",
            {"is_kappa_sparse": lambda node, kappa: node.genus < 3 or kappa == 2},
            real(2),
            "gaps=[1, 2] meet gaps=[1, 3] leaves class 3",
            26,
            id="meet-leaves-class",
        ),
        pytest.param(
            # classes (2, 3, 4), (3, 4) and (4,) by genus: a pair is tried only at the kappas
            # whose class holds both, so the meet of genus 3 fails after 12 instances
            "_intersection_stays_in_class",
            {"is_kappa_sparse": lambda node, kappa: node.genus < 3 and kappa >= node.genus + 2},
            real(2),
            "gaps=[1, 2] meet gaps=[1, 3] leaves class 4",
            13,
            id="meet-tried-in-shared-classes",
        ),
        pytest.param(
            "_pure_classes_partition",
            # every verdict agrees with an index outside 1..genus+2, so only the level sum fails
            {"sparseness_index": lambda node: 0, "is_pure_kappa_sparse": lambda node, kappa: False},
            real(0),
            "genus 0: pure classes sum to 0, total 1",
            2,
            id="pure-sum",
        ),
        pytest.param(
            "_pruned_equals_filtered",
            {"_universe": lambda request: (iter(()), None)},
            real(0),
            "genus=0 kappa=2: 0 pruned vs 1 filtered",
            1,
            id="pruned-vs-filtered",
        ),
        pytest.param(
            # one walk per kappa, but the instances run genus by genus, kappa by kappa
            "_pruned_equals_filtered",
            {
                "_universe": lambda request: (
                    (iter(()), None) if request.kappa == 4 else sparsegroup.enumeration._universe(request)
                )
            },
            real(2),
            "genus=0 kappa=4: 0 pruned vs 1 filtered",
            3,
            id="pruned-instances-genus-first",
        ),
    ],
)
def test_each_counterexample_text(monkeypatch, family, patches, levels, counterexample, instances):
    """A patched reader or a crafted level reaches the branch; the first failure stops the family."""
    for name, value in patches.items():
        monkeypatch.setattr(sparsegroup.verify, name, value)
    result = getattr(sparsegroup.verify, family)(levels)
    assert (result.counterexample, result.instances) == (counterexample, instances)


def test_run_checks_respects_the_genus_cap():
    """The command line caps the depth; the library refuses only a negative genus."""
    with pytest.raises(ValueError, match="non-negative"):
        run_checks(-1)


@pytest.mark.parametrize("scan", ["_count_jumps", "_scan_largest_jump"])
def test_each_leap_statistic_is_scanned_once_per_object(monkeypatch, scan):
    """The deciders run per (node, kappa), but each object's gaps are scanned once."""
    original = getattr(sparsegroup.leaps, scan)
    scanned = []  # kept alive, so no two entries share an id

    def counted(semigroup):
        scanned.append(semigroup)
        return original(semigroup)

    monkeypatch.setattr(sparsegroup.leaps, scan, counted)
    assert all(result.passed for result in run_checks(8))
    assert scanned
    assert len({id(semigroup) for semigroup in scanned}) == len(scanned)


def test_pure_classes_partition_decides_purity_once_per_node_and_kappa(monkeypatch):
    original = sparsegroup.verify.is_pure_kappa_sparse
    calls = []

    def counted(semigroup, kappa):
        calls.append((id(semigroup), kappa))
        return original(semigroup, kappa)

    monkeypatch.setattr(sparsegroup.verify, "is_pure_kappa_sparse", counted)
    levels = [list(enumerate_genus(g)) for g in range(7)]
    result = sparsegroup.verify._pure_classes_partition(levels)
    assert result.passed and result.instances == 50
    assert len(calls) == len(set(calls)) == sum((g + 2) * len(level) for g, level in enumerate(levels))


def test_each_distinct_meet_and_each_parent_is_built_once(monkeypatch):
    """One meet per distinct gap union among eligible pairs, one parent per node of positive genus."""
    levels = [list(enumerate_genus(g)) for g in range(7)]
    built = {"intersect": [], "adjoin_frobenius": []}
    for name, calls in built.items():
        original = getattr(NumericalSemigroup, name)

        def counted(self, *other, original=original, calls=calls):
            calls.append(self)
            return original(self, *other)

        monkeypatch.setattr(NumericalSemigroup, name, counted)

    meets = sparsegroup.verify._intersection_stays_in_class(levels)
    assert meets.passed and meets.instances == GENUS_SIX_INSTANCES["intersection-stays-in-class"]
    pool = []
    for level in levels:
        for node in level:
            jump = max((hi - lo for lo, hi in zip([-1, *node.gaps], node.gaps)), default=0)
            pool.append((set(node.gaps), {kappa for kappa in (2, 3, 4) if jump <= kappa}))
    unions = {
        frozenset(a | b)
        for i, (a, a_classes) in enumerate(pool)
        for b, b_classes in pool[i:]
        if a_classes & b_classes
    }
    assert len(built["intersect"]) == len(unions) < meets.instances

    parents = sparsegroup.verify._adjunction_stays_in_class(levels)
    assert parents.passed and parents.instances == GENUS_SIX_INSTANCES["adjunction-stays-in-class"]
    adjoined = built["adjoin_frobenius"]
    assert len({id(node) for node in adjoined}) == len(adjoined) == sum(map(len, levels[1:]))
