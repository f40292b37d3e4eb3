"""The value classes: immutable, structurally equal, with fixed reprs and field order.

Also checks that the README's library quick tour still shows what it runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsegroup import (
    EnumerationRequest,
    NumericalSemigroup,
    classify,
    leap_profile,
    leap_set,
)
from sparsegroup.enumeration import CensusRow, census
from sparsegroup.ideals import RelativeIdeal
from sparsegroup.leaps import Leap, LeapProfile
from sparsegroup.verify import CheckResult

ROOT = Path(__file__).resolve().parent.parent
H = NumericalSemigroup((1, 2, 4))


def samples():
    """Two separately built equal instances and one different instance of each value class."""
    return {
        "NumericalSemigroup": (H, NumericalSemigroup.from_gaps([4, 2, 1]), NumericalSemigroup((1, 3))),
        "LeapProfile": (leap_profile(H), LeapProfile(((1, 1), (2, 2))), LeapProfile(((1, 1),))),
        "RelativeIdeal": (
            RelativeIdeal(3, 5, (3,)),
            RelativeIdeal.from_members([3, 5, 6], 7),
            RelativeIdeal(3, 6, (3,)),
        ),
        "Leap": (leap_set(H)[0], Leap(-1, 1), Leap(1, 2)),
        "Classification": (
            classify(H),
            classify(NumericalSemigroup.from_generators([3, 5, 7])),
            classify(NumericalSemigroup((1, 3))),
        ),
        "EnumerationRequest": (
            EnumerationRequest(5, 3, "kappa_sparse"),
            EnumerationRequest(max_genus=5, kappa_filter=3, mode="kappa_sparse", emit="full"),
            EnumerationRequest(5),
        ),
        "CensusRow": (
            census(EnumerationRequest(1))[1],
            CensusRow(
                1, 1, dict.fromkeys(("arf", "sparse", "kappa_sparse", "pure_kappa_sparse"), 1),
                {LeapProfile(((2, 1),)): 1},
            ),
            census(EnumerationRequest(1))[0],
        ),
        "CheckResult": (CheckResult("x", 3), CheckResult("x", 3, None), CheckResult("x", 3, "gaps=[1]")),
    }


FIELDS = {
    "NumericalSemigroup": ("gaps",),
    "LeapProfile": ("counts",),
    "RelativeIdeal": ("base", "threshold", "members"),
    "Leap": ("lo", "hi"),
    "Classification": ("genus", "profile", "checks"),
    "EnumerationRequest": ("max_genus", "kappa_filter", "mode", "emit"),
    "CensusRow": ("genus", "total", "per_class", "profile_histogram"),
    "CheckResult": ("name", "instances", "counterexample"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_assignment_and_deletion_raise(name):
    value = samples()[name][0]
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    for field in FIELDS[name]:
        getattr(value, field)  # still readable


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equality_and_hash_are_structural(name):
    value, same, other = samples()[name]
    assert value is not same
    assert value == same and not value != same
    assert value != other
    if name != "CensusRow":  # its dicts make it unhashable, as before
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2


def test_the_plain_classes_equal_only_their_own_class():
    assert NumericalSemigroup((1, 2, 4)) != (1, 2, 4)
    assert NumericalSemigroup((1, 2, 4)) != ((1, 2, 4),)
    assert LeapProfile(((1, 1),)) != (((1, 1),),)
    assert RelativeIdeal(3, 5, (3,)) != (3, 5, (3,))
    assert NumericalSemigroup(()) != LeapProfile(())
    assert LeapProfile(()) != RelativeIdeal(0, 0, ())


@pytest.mark.parametrize("cls", [NumericalSemigroup, LeapProfile, RelativeIdeal])
def test_the_plain_classes_inherit_the_value_contract(cls):
    """Equality, hash, repr and immutability are written once, on the shared base."""
    assert {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}.isdisjoint(vars(cls))


def test_repr_strings():
    assert repr(H) == "NumericalSemigroup(gaps=(1, 2, 4))"
    assert repr(leap_profile(H)) == "LeapProfile(counts=((1, 1), (2, 2)))"
    assert repr(RelativeIdeal.from_members([3, 5, 6], 7)) == "RelativeIdeal(base=3, threshold=5, members=(3,))"
    assert repr(leap_set(H)[0]) == "Leap(lo=-1, hi=1)"
    assert repr(classify(H)) == (
        "Classification(genus=3, conductor=5, frobenius=4, multiplicity=3, hyperelliptic=False, "
        "arf=True, sparse=True, sparseness_index=2, figure_class='arf', "
        "profile=LeapProfile(counts=((1, 1), (2, 2))), pure_witness=Leap(lo=-1, hi=1), "
        "checks=(('profile_sum', True), ('gap_spacing', True), ('member_spacing', True), "
        "('member_run', True)))"
    )
    assert repr(EnumerationRequest(5, 3, "kappa_sparse")) == (
        "EnumerationRequest(max_genus=5, kappa_filter=3, mode='kappa_sparse', emit='full')"
    )
    assert repr(census(EnumerationRequest(1))) == (
        "[CensusRow(genus=0, total=1, per_class={'arf': 1, 'sparse': 1, 'kappa_sparse': 1, "
        "'pure_kappa_sparse': 0}, profile_histogram={LeapProfile(counts=()): 1}), "
        "CensusRow(genus=1, total=1, per_class={'arf': 1, 'sparse': 1, 'kappa_sparse': 1, "
        "'pure_kappa_sparse': 1}, profile_histogram={LeapProfile(counts=((2, 1),)): 1})]"
    )
    assert repr(CheckResult("x", 3)) == "CheckResult(name='x', instances=3, counterexample=None)"


def test_cached_properties_live_in_the_instance_dict():
    semigroup = NumericalSemigroup((1, 2, 4))
    assert semigroup.small_elements == (0, 3, 5)
    assert vars(semigroup)["small_elements"] == (0, 3, 5)
    profile = LeapProfile(((1, 1), (2, 2)))
    assert profile.v(2) == 2 and "_by_jump" in vars(profile)
    ideal = RelativeIdeal(3, 5, (3,))
    assert 3 in ideal and 4 not in ideal and 5 in ideal and 2 not in ideal


def test_leap_profile_keys_a_histogram():
    histogram = {}
    for semigroup in (H, NumericalSemigroup((1, 2, 4)), NumericalSemigroup((1, 3))):
        profile = leap_profile(semigroup)
        histogram[profile] = histogram.get(profile, 0) + 1
    assert histogram == {LeapProfile(((1, 1), (2, 2))): 2, LeapProfile(((2, 2),)): 1}
    assert histogram[LeapProfile(((1, 1), (2, 2)))] == 2


def test_enumeration_request_positional_and_keyword():
    positional = EnumerationRequest(7, 2, "pure_kappa_sparse", "count_only")
    keyword = EnumerationRequest(emit="count_only", mode="pure_kappa_sparse", kappa_filter=2, max_genus=7)
    assert positional == keyword
    assert (keyword.max_genus, keyword.kappa_filter, keyword.mode, keyword.emit) == (
        7, 2, "pure_kappa_sparse", "count_only",
    )
    default = EnumerationRequest(4)
    assert (default.kappa_filter, default.mode, default.emit, default.kappa) == (None, "all", "full", 2)
    assert positional.kappa == 2


MODES = "('all', 'kappa_sparse', 'pure_kappa_sparse', 'arf')"


@pytest.mark.parametrize(
    "arguments, message",
    [
        ({"max_genus": 2, "mode": "everything"}, f"mode must be one of {MODES}, got 'everything'"),
        ({"max_genus": 2, "emit": "stream"}, "emit must be one of ('full', 'count_only'), got 'stream'"),
        ({"max_genus": "3"}, "max_genus must be an integer, got '3'"),
        ({"max_genus": 2.0}, "max_genus must be an integer, got 2.0"),
        ({"max_genus": True}, "max_genus must be an integer, got True"),
        ({"max_genus": -1}, "max_genus must be non-negative, got -1"),
        ({"max_genus": 2, "kappa_filter": 0}, "kappa must be an integer >= 1, got 0"),
        ({"max_genus": 2, "kappa_filter": True}, "kappa must be an integer >= 1, got True"),
        ({"max_genus": 2, "kappa_filter": 1.5}, "kappa must be an integer >= 1, got 1.5"),
        ({"max_genus": 2, "mode": "kappa_sparse"}, "mode 'kappa_sparse' requires kappa_filter"),
        ({"max_genus": 2, "mode": "pure_kappa_sparse"}, "mode 'pure_kappa_sparse' requires kappa_filter"),
        # the checks run in this order: mode, emit, genus, kappa, then the mode's kappa
        ({"max_genus": -1, "mode": "x", "emit": "y"}, f"mode must be one of {MODES}, got 'x'"),
        ({"max_genus": -1, "emit": "y"}, "emit must be one of ('full', 'count_only'), got 'y'"),
        ({"max_genus": None, "kappa_filter": 0}, "max_genus must be an integer, got None"),
        ({"max_genus": 2, "kappa_filter": 0, "mode": "kappa_sparse"}, "kappa must be an integer >= 1, got 0"),
    ],
)
def test_enumeration_request_refusals(arguments, message):
    with pytest.raises(ValueError) as refused:
        EnumerationRequest(**arguments)
    assert str(refused.value) == message


def test_a_changed_copy_of_a_request_is_checked_too():
    request = EnumerationRequest(2, 1, "kappa_sparse")
    assert request._replace(max_genus=3) == EnumerationRequest(3, 1, "kappa_sparse")
    with pytest.raises(ValueError, match="requires kappa_filter"):
        request._replace(kappa_filter=None)
    with pytest.raises(ValueError, match="non-negative"):
        EnumerationRequest._make((-1, None, "all", "full"))


@pytest.mark.parametrize("arguments", [(), (1, 2, "all", "full", 5)])
def test_enumeration_request_arity(arguments):
    with pytest.raises(TypeError):
        EnumerationRequest(*arguments)


def test_classification_fields_follow_the_classify_keys():
    """The key order ``classify --gaps 1,2,4`` printed before the value classes changed."""
    keys = [
        "gaps", "genus", "conductor", "frobenius", "multiplicity", "hyperelliptic", "arf",
        "sparse", "sparseness_index", "figure_class", "profile", "pure_witness", "checks",
    ]
    assert list(classify(H)._fields) == keys[1:]
    result = subprocess.run(
        [sys.executable, "-m", "sparsegroup", "classify", "--gaps", "1,2,4"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert list(json.loads(result.stdout)) == keys


def quick_tour() -> list[str]:
    """The lines of the README's "Library quick tour" code block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_the_readme_quick_tour_shows_what_it_runs():
    """Each ``expression  # value`` line evaluates to a value whose repr opens the comment.

    A comment may go on after the value, past a comma: ``# 39, counted from genus 6 ...``.
    """
    namespace: dict = {}
    statements: list[str] = []
    checked = 0
    for line in quick_tour():
        code, hash_sign, comment = line.partition("#")
        if not hash_sign:
            statements.append(line)
            continue
        exec("\n".join(statements), namespace)
        statements = []
        shown, comment = repr(eval(code, namespace)), comment.strip()
        assert comment == shown or comment.startswith(shown + ","), (line, shown)
        checked += 1
    assert checked == 11
