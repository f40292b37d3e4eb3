"""Cross-checks every structural invariant of the library over an exhaustive census.

Each check walks every semigroup up to a genus bound and confirms one family
of facts: agreement of independent decision procedures, leap-count identities,
closure of the kappa-sparse classes under the two variety operations, and the
correctness of the enumeration tree itself.

Every family is one generator that yields once per instance: ``None`` when
the instance holds, else the counterexample text.  One driver, ``_family``,
counts the instances and stops at the first counterexample, which ``verify``
prints on failure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import wraps

from .core import NumericalSemigroup, ordinary
from .enumeration import EnumerationRequest, _universe, _walk, children
from .ideals import is_arf_definition, is_arf_double, is_arf_stable
from .kappa import (
    example_family,
    frobenius_identity_check,
    is_kappa_sparse,
    is_kappa_sparse_gapdiff,
    is_kappa_sparse_nongap,
    is_kappa_sparse_profile,
    is_kappa_sparse_run,
    is_pure_kappa_sparse,
    sparseness_index,
)
from .leaps import frobenius_from_profile, is_hyperelliptic, is_sparse, leap_profile, leap_set

Levels = list[list[NumericalSemigroup]]
Instances = Iterator[str | None]

PAIR_GENUS = 8  # deepest level whose kappa-sparse members are intersected pairwise
KAPPA_LIMIT = 6  # largest kappa the chain, adjunction, pruning and family checks try


class CheckResult(namedtuple("CheckResult", "name instances counterexample", defaults=(None,))):
    """Outcome of one invariant family: instance count and first counterexample."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _family(name: str):
    """Turn a per-instance generator into a check that reports its first counterexample.

    A whole-level condition that is not an instance of its own yields only
    when it fails.
    """

    def decorate(check):
        @wraps(check)
        def run(*args) -> CheckResult:
            instances = 0
            for counterexample in check(*args):
                instances += 1
                if counterexample is not None:
                    return CheckResult(name, instances, counterexample)
            return CheckResult(name, instances)

        return run

    return decorate


def _gapstr(semigroup: NumericalSemigroup) -> str:
    return f"gaps={list(semigroup.gaps)}"


def _nodes(levels: Levels) -> Iterator[NumericalSemigroup]:
    return (node for level in levels for node in level)


@_family("tree-parent-roundtrip")
def _tree_roundtrip(levels: Levels) -> Instances:
    """Every node revalidates, is unique on its level, and is a child of its parent.

    Each level is also complete: its size is the number of children, by the
    reference ``children``, of the level above.  Nodes are keyed by their gap
    tuples, and a parent's gaps are its child's without the last.  Each
    parent's children stay a tuple, so a child listed twice counts twice.
    """
    offspring: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    for genus, level in enumerate(levels):
        if len({node.gaps for node in level}) != len(level):
            yield f"duplicates at genus {genus}"
        if genus > 0 and len(level) != (made := sum(map(len, offspring.values()))):
            yield f"genus {genus}: {len(level)} nodes, but genus {genus - 1} has {made} children"
        for node in level:
            gaps = node.gaps
            try:
                NumericalSemigroup.from_gaps(gaps)
            except Exception as exc:  # noqa: BLE001
                yield f"{_gapstr(node)}: {exc}"
            if genus == 0 or gaps in offspring.get(gaps[:-1], ()):
                yield None
            else:
                yield f"{_gapstr(node)} is not a child of gaps={list(gaps[:-1])}"
        if genus + 1 < len(levels):
            offspring = {node.gaps: tuple(child.gaps for child in children(node)) for node in level}


@_family("arf-deciders-agree")
def _arf_deciders_agree(levels: Levels) -> Instances:
    """The triple, doubling, and stable-ideal Arf procedures return the same verdict."""
    for node in _nodes(levels):
        a, b, c = is_arf_definition(node), is_arf_double(node), is_arf_stable(node)
        yield None if a == b == c else f"{_gapstr(node)}: triple={a} doubling={b} stable={c}"


@_family("arf-implies-sparse")
def _arf_implies_sparse(levels: Levels) -> Instances:
    for node in _nodes(levels):
        if is_arf_double(node) and sparseness_index(node) > 2:
            yield f"{_gapstr(node)}: Arf but index {sparseness_index(node)}"
        else:
            yield None


@_family("leap-counts-sum-to-genus")
def _leap_counts_sum_to_genus(levels: Levels) -> Instances:
    for node in _nodes(levels):
        holds = len(leap_set(node)) == node.genus and leap_profile(node).total == node.genus
        yield None if holds else _gapstr(node)


@_family("hyperelliptic-leap-shape")
def _hyperelliptic_leap_shape(levels: Levels) -> Instances:
    """2 is a member iff no single leaps; then every leap is double; else jumps <= genus."""
    for node in _nodes(levels):
        if node.genus == 0:
            continue
        profile = leap_profile(node)
        hyper = is_hyperelliptic(node)
        if hyper != (profile.v(1) == 0):
            yield f"{_gapstr(node)}: v1 mismatch"
        elif hyper and profile.counts != ((2, node.genus),):
            yield f"{_gapstr(node)}: profile not all-double"
        elif not hyper and profile.max_jump > node.genus:
            yield f"{_gapstr(node)}: jump {profile.max_jump} above genus"
        else:
            yield None


@_family("unit-and-ordinary-signatures")
def _unit_and_ordinary_signatures(levels: Levels) -> Instances:
    """Double leaps vanish only on the full naturals; ordinary profiles are (g-1, 1)."""
    for node in _nodes(levels):
        profile = leap_profile(node)
        signature = (profile.v(1), profile.v(2)) == (node.genus - 1, 1)
        if (profile.v(2) == 0) != (node.genus == 0):
            yield f"{_gapstr(node)}: v2 zero test"
        elif (profile.v(2) != 0) != (1 not in node):
            yield f"{_gapstr(node)}: v2 vs 1-membership"
        elif node.genus > 0 and signature != (node == ordinary(node.genus)):
            yield f"{_gapstr(node)}: ordinary signature mismatch"
        else:
            yield None


@_family("sparse-leap-identities")
def _sparse_leap_identities(levels: Levels) -> Instances:
    """Sparse iff single+double leaps fill the genus; then the Frobenius number is v1 + 2 v2 - 1.

    The K form, v1 = K - 1 and v2 = genus - K + 1 for K = 2 genus - frobenius,
    follows from these two, so it is not checked again.
    """
    for node in _nodes(levels):
        profile = leap_profile(node)
        sparse = is_sparse(node)
        if sparse != (profile.v(1) + profile.v(2) == node.genus):
            yield f"{_gapstr(node)}: count form"
        elif sparse and node.frobenius != profile.v(1) + 2 * profile.v(2) - 1:
            yield f"{_gapstr(node)}: Frobenius form"
        else:
            yield None


@_family("kappa-deciders-agree")
def _kappa_deciders_agree(levels: Levels) -> Instances:
    """The four kappa-sparse procedures agree for every kappa in [2, genus + 2]."""
    for node in _nodes(levels):
        for kappa in range(2, node.genus + 3):
            a = is_kappa_sparse_profile(node, kappa)
            b = is_kappa_sparse_gapdiff(node, kappa)
            c = is_kappa_sparse_nongap(node, kappa)
            d = is_kappa_sparse_run(node, kappa)
            yield None if a == b == c == d else f"{_gapstr(node)} kappa={kappa}: {(a, b, c, d)}"


@_family("frobenius-equals-weighted-leaps")
def _frobenius_equals_weighted_leaps(levels: Levels) -> Instances:
    for node in _nodes(levels):
        holds = frobenius_from_profile(leap_profile(node)) == node.frobenius
        yield None if holds else _gapstr(node)


@_family("identity-matches-class")
def _identity_matches_class(levels: Levels) -> Instances:
    """The truncated leap-sum identities hold exactly on the kappa-sparse members."""
    for node in _nodes(levels):
        if node.genus == 0:
            continue
        for kappa in range(2, node.genus + 3):
            holds = frobenius_identity_check(node, kappa) == is_kappa_sparse(node, kappa)
            yield None if holds else f"{_gapstr(node)} kappa={kappa}"


@_family("pure-run-agrees")
def _pure_run_agrees(levels: Levels) -> Instances:
    """For kappa >= 3, purity equals kappa-sparseness plus an interior run of kappa - 1 members."""
    for node in _nodes(levels):
        for kappa in range(3, node.genus + 3):
            expected = is_kappa_sparse(node, kappa) and not is_kappa_sparse_run(node, kappa - 1)
            holds = is_pure_kappa_sparse(node, kappa) == expected
            yield None if holds else f"{_gapstr(node)} kappa={kappa}"


@_family("pure-classes-partition")
def _pure_classes_partition(levels: Levels) -> Instances:
    """Each semigroup is pure for exactly one kappa, so pure counts sum to the total."""
    for genus, level in enumerate(levels):
        kappas = range(1, genus + 3)  # jumps never exceed genus + 2, so this is exhaustive
        pure_sum = 0
        for node in level:
            index = sparseness_index(node)
            verdicts = [is_pure_kappa_sparse(node, k) for k in kappas]
            pure_sum += sum(verdicts)
            bad = [k for k, pure in zip(kappas, verdicts) if pure != (k == index)]
            yield f"{_gapstr(node)} kappa={bad[0]} index={index}" if bad else None
        if pure_sum != len(level):
            yield f"genus {genus}: pure classes sum to {pure_sum}, total {len(level)}"


@_family("kappa-chain-strict")
def _kappa_chain_strict(levels: Levels) -> Instances:
    """Classes grow with kappa, strictly: each step has an explicit witness.

    Each node's verdict at kappa + 1 is carried to the next step, so every
    (node, kappa) is decided once.
    """
    for node in _nodes(levels):
        inside = is_kappa_sparse(node, 1)
        for kappa in range(1, node.genus + 3):
            above = is_kappa_sparse(node, kappa + 1)
            grows = above or not inside
            yield None if grows else f"{_gapstr(node)}: in class {kappa} but not {kappa + 1}"
            inside = above
    for kappa in range(1, KAPPA_LIMIT + 1):
        witness = NumericalSemigroup((1,)) if kappa == 1 else example_family(kappa + 1, kappa + 1)
        strict = is_kappa_sparse(witness, kappa + 1) and not is_kappa_sparse(witness, kappa)
        yield None if strict else f"witness {_gapstr(witness)} fails strictness at kappa={kappa}"


@_family("intersection-stays-in-class")
def _intersection_stays_in_class(levels: Levels) -> Instances:
    """Intersecting two kappa-sparse semigroups stays in the class (kappa in 2..4).

    A meet's gap set is the union of the pair's, so the pair's OR of gap masks
    keys it: each distinct meet is built once and tested at every kappa whose
    class holds both semigroups of each pair that reaches it.  Each node's
    classes are a mask, bit kappa set for each kappa, so the classes a pair
    shares are one AND, and a pair that shares none is passed over at once.
    """
    pool = [
        (node, sum(1 << kappa for kappa in (2, 3, 4) if is_kappa_sparse(node, kappa)))
        for node in _nodes(levels[: PAIR_GENUS + 1])
    ]
    meets: dict[int, NumericalSemigroup] = {}
    for i, (a, a_mask) in enumerate(pool):
        for b, b_mask in pool[i:]:
            if both := a_mask & b_mask:
                union = a.gap_mask | b.gap_mask
                meet = meets.get(union)
                if meet is None:
                    meet = meets[union] = a.intersect(b)
                for kappa in (2, 3, 4):
                    if both >> kappa & 1:
                        stays = is_kappa_sparse(meet, kappa)
                        yield None if stays else f"{_gapstr(a)} meet {_gapstr(b)} leaves class {kappa}"


@_family("adjunction-stays-in-class")
def _adjunction_stays_in_class(levels: Levels) -> Instances:
    """Filling the largest gap of a kappa-sparse semigroup stays in the class.

    Each node's parent is built once and tested at every kappa that holds the node.
    """
    for node in _nodes(levels[1:]):
        parent = node.adjoin_frobenius()
        for kappa in range(2, KAPPA_LIMIT + 1):
            if is_kappa_sparse(node, kappa):
                stays = is_kappa_sparse(parent, kappa)
                yield None if stays else f"{_gapstr(node)} kappa={kappa}"


@_family("pruned-equals-filtered")
def _pruned_equals_filtered(levels: Levels) -> Instances:
    """The pruned class walk, once per kappa and bucketed by depth, matches filtering the full levels."""
    verdicts = {}
    for kappa in range(2, KAPPA_LIMIT + 1):
        walk, counted = _universe(EnumerationRequest(len(levels) - 1, kappa, "kappa_sparse"))
        pruned = [set() for _ in levels]
        for depth, gaps, index in walk:
            if counted(index):
                pruned[depth].add(gaps)
        for genus, level in enumerate(levels):
            filtered = {node.gaps for node in level if is_kappa_sparse(node, kappa)}
            verdicts[genus, kappa] = None if pruned[genus] == filtered else (
                f"genus={genus} kappa={kappa}: {len(pruned[genus])} pruned vs {len(filtered)} filtered"
            )
    for key in sorted(verdicts):  # genus by genus, kappa by kappa
        yield verdicts[key]


@_family("two-block-family-structure")
def _two_block_family_structure(levels: Levels) -> Instances:
    """The two-block family has the stated shape and is unique for its parameters."""
    max_genus = len(levels) - 1
    for kappa in range(3, KAPPA_LIMIT + 1):
        for a in range(kappa, kappa + 5):
            genus = 2 * a - kappa
            if genus > max_genus:
                continue
            family = example_family(a, kappa)
            shaped = (
                family.genus == genus
                and family.multiplicity == a
                and family.element(kappa) == 2 * a
                and is_pure_kappa_sparse(family, kappa)
            )
            yield None if shaped else f"a={a} kappa={kappa}: family shape wrong"
            for node in levels[genus]:
                if node.multiplicity == a and node.element(kappa) == 2 * a:
                    unique = is_pure_kappa_sparse(node, kappa) == (node == family)
                    yield (
                        None if unique
                        else f"a={a} kappa={kappa}: {_gapstr(node)} breaks uniqueness"
                    )


def run_checks(max_genus: int) -> list[CheckResult]:
    """Run every invariant family over the census of genus at most ``max_genus``."""
    EnumerationRequest(max_genus)  # rejects a negative genus; the command line caps it
    levels: Levels = [[] for _ in range(max_genus + 1)]
    for depth, gaps, _ in _walk(max_genus):
        levels[depth].append(NumericalSemigroup._unchecked(gaps))
    return [
        _tree_roundtrip(levels),
        _arf_deciders_agree(levels),
        _arf_implies_sparse(levels),
        _leap_counts_sum_to_genus(levels),
        _hyperelliptic_leap_shape(levels),
        _unit_and_ordinary_signatures(levels),
        _sparse_leap_identities(levels),
        _kappa_deciders_agree(levels),
        _frobenius_equals_weighted_leaps(levels),
        _identity_matches_class(levels),
        _pure_run_agrees(levels),
        _pure_classes_partition(levels),
        _kappa_chain_strict(levels),
        _intersection_stays_in_class(levels),
        _adjunction_stays_in_class(levels),
        _pruned_equals_filtered(levels),
        _two_block_family_structure(levels),
    ]
