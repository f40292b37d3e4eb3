"""How the package is run: the benchmark's hooks and smoke mode, and Python without asserts."""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import sparsegroup
from sparsegroup import NumericalSemigroup, enumeration

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv: str) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=False
    )


def module_constant(path: Path, name: str):
    """The literal value of a module-level assignment, read without importing the module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if name in targets:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_the_benchmark_hooks_exist():
    """Every name the benchmark tracer wraps, with the kind it wraps, in well under a second."""
    spans = (
        *module_constant(ROOT / "perfbench" / "run.py", "LAYER_SPANS").items(),
        *module_constant(ROOT / "perfbench" / "tracer.py", "EXTRA_SPANS").items(),
    )
    members = vars(NumericalSemigroup)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans
        for name in names
        if not hasattr(getattr(sparsegroup, layer), name) and name not in members
    ]
    missing += [
        f"enumeration.{name}"
        for name in module_constant(ROOT / "perfbench" / "tracer.py", "GENERATORS")
        if not inspect.isgeneratorfunction(getattr(enumeration, name, None))
    ]
    assert missing == []
    for name in ("small_elements", "minimal_generators", "gap_mask"):
        assert isinstance(members[name], cached_property), name
    for name in ("from_gaps", "from_generators"):
        assert isinstance(members[name], classmethod), name
    assert "__contains__" in members
    parameters = inspect.signature(enumeration._walk).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [
        ("max_genus", inspect.Parameter.empty),
        ("keep", None),
    ]


def test_no_two_benchmark_spans_share_an_object():
    """The tracer rebinds by object identity, so one object under two names would merge spans."""
    spans = (
        *module_constant(ROOT / "perfbench" / "run.py", "LAYER_SPANS").items(),
        *module_constant(ROOT / "perfbench" / "tracer.py", "EXTRA_SPANS").items(),
    )
    members = vars(NumericalSemigroup)
    named: dict[int, list[str]] = {}
    for layer, names in spans:
        module = getattr(sparsegroup, layer)
        for name in names:
            target = getattr(module, name) if hasattr(module, name) else members[name]
            named.setdefault(id(target), []).append(f"{layer}.{name}")
    assert [keys for keys in named.values() if len(keys) > 1] == []


def test_only_core_and_leaps_memoize_on_a_semigroup():
    """Every public kappa and ideals decider leaves only core's cached properties and the leap memos."""
    semigroup = NumericalSemigroup.from_gaps((1, 2, 3, 5, 7))
    called = set()
    for module in (sparsegroup.kappa, sparsegroup.ideals):
        for name, function in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(function):
                continue
            parameters = list(inspect.signature(function).parameters)
            if function.__module__ == module.__name__ and parameters[0] == "semigroup":
                function(semigroup, *[2] * (len(parameters) - 1))  # kappa 2, or the tail ideal k = 2
                called.add(name)
    assert {"is_kappa_sparse_run", "is_arf_definition", "is_arf_double", "classify"} <= called
    members = vars(NumericalSemigroup).items()
    properties = {name for name, value in members if isinstance(value, cached_property)}
    assert set(vars(semigroup)) <= {"gaps", "_leap_profile", "_max_leap_jump", *properties}


def test_benchmark_smoke_passes():
    """Tiny runs of every workload, traced and untraced, through the tracer's wrappers."""
    result = run_python("perfbench/run.py", "--smoke")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "smoke ok"


def test_pruned_census_matches_the_recorded_digest():
    """The benchmark's census_pruned command, byte for byte against its recorded SHA-256."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    argv = ("enumerate", "--census", "--kappa", "3", "--genus", "20", "--cap", "20")
    result = run_python("-m", "sparsegroup", *argv)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == expected["full"]["census_pruned"]["sha256"]


def test_arf_census_matches_the_recorded_digest():
    """The Arf census to genus 18, byte for byte against the SHA-256 of the unpruned walk's output.

    The census walks the Arf subtree of the semigroup tree once, as its universe, and takes its
    ``arf`` column from the rows; the walk may lose no Arf member and change no count.
    """
    result = run_python("-m", "sparsegroup", "enumerate", "--census", "--arf", "--genus", "18")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == "cf544add5f8592f80eca0e96f7a7c3cce756483d15194cfdd1acadbd998db91c"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (
            ("--kappa", "3", "--pure"),
            "65aa7beb411b680e50cf9173192813c26cb35cdd65108d3ca58bfc7734c34943",
        ),
        (
            ("--format", "tsv"),
            "719364774f00308621d9acca62b83b1a92f8ca8224ae21deb5dc2f3b7578bcfc",
        ),
        ((), "22e9b23cec59d5608572ea9301c13b907b7745de8fbac5756b6707427356a1e0"),
    ],
    ids=["pure-kappa-3", "all-tsv", "all-json"],
)
def test_census_matches_the_recorded_digest(flags, expected):
    """Genus-18 censuses, byte for byte against the SHA-256 of the per-node census's output.

    Each column and profile is read off a tally per genus; none may change a count.
    """
    result = run_python("-m", "sparsegroup", "enumerate", "--census", "--genus", "18", *flags)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == expected


def spanned_gaps(generators: list[int]) -> list[int]:
    """The gaps of the semigroup spanned by coprime ``generators``, all below min * max.

    Adding 1, 2, 4, ... copies of each generator in turn reaches every sum of its multiples.
    """
    limit = min(generators) * max(generators)
    window = (1 << limit) - 1
    members = 1
    for g in generators:
        step = g
        while step < limit:
            members |= (members << step) & window
            step *= 2
    digits = bin(members)[:1:-1].ljust(limit, "0")
    return [n for n, digit in enumerate(digits) if digit == "0"]


def seeded_gap_file(seed: int, lines: int) -> str:
    """The empty line, an ordinary and a hyperelliptic line, then ``lines`` random semigroups.

    Each is spanned by a multiplicity m in [50, 200) and two to four numbers in (m, 2m):
    conductors from a few hundred to about 15000, most in the thousands.
    """
    rng = random.Random(seed)
    out = ["", ",".join(map(str, range(1, 41))), ",".join(map(str, range(1, 2000, 2)))]
    while len(out) < lines + 3:
        m = rng.randrange(50, 200)
        generators = [m, *rng.sample(range(m + 1, 2 * m), rng.randrange(2, 5))]
        if math.gcd(*generators) == 1:
            out.append(",".join(map(str, spanned_gaps(generators))))
    return "\n".join(out) + "\n"


def test_classify_file_matches_the_recorded_digest(tmp_path):
    """303 seeded lines, most with conductors in the thousands, against a recorded SHA-256.

    The digest was recorded with per-element loops in parsing, the leap passes, the deciders
    and the pure witness; their single passes over the gaps and members may change no byte.
    """
    path = tmp_path / "seeded.txt"
    path.write_text(seeded_gap_file(20, 300), encoding="utf-8")
    result = run_python("-m", "sparsegroup", "classify", "--file", str(path))
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 303
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == "4472cd238f6834f080949618ba611200256e9e6512f21a4fb939f2b06d95a57a"


@pytest.mark.parametrize(
    "form, expected",
    [
        ("tsv", "7d01cd8a862a186331f54e81c63c44aa2811a2cd5ff8e356eb85d04519e4d807"),
        ("json", "d04e3461a4093de63bf0b9cd1e0a97157e0717b998aeafd8842758e1fe97cb4c"),
    ],
)
def test_arf_stream_matches_the_recorded_digest(form, expected):
    """The genus-18 Arf stream in tree order, against the SHA-256 of the filtered walk's output."""
    argv = ("enumerate", "--genus", "18", "--arf", "--format", form)
    result = run_python("-m", "sparsegroup", *argv)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == expected


def test_verify_sweep_matches_the_recorded_output():
    """The benchmark's verify_sweep command, byte for byte against its recorded stdout."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    result = run_python("-m", "sparsegroup", "verify", "--max-genus", "11")
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected["full"]["verify_sweep"]


def test_verify_passes_with_asserts_stripped():
    result = run_python("-O", "-m", "sparsegroup", "verify", "--max-genus", "5")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(": all passed")


def test_library_has_no_assert():
    """``python -O`` strips asserts, so no library check may be written as one."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sparsegroup").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_reads_no_environment():
    """Every input comes through arguments: no library module touches the environment."""
    banned = {"environ", "getenv", "putenv"}
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sparsegroup").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id in banned)
        or (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.ImportFrom) and any(alias.name in banned for alias in node.names))
    ]
    assert found == []


def test_no_library_function_takes_a_conductor_cap():
    """The conductor cap is ``core.DEFAULT_MAX_CONDUCTOR``, read at call time, and nothing else."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in sorted((ROOT / "src" / "sparsegroup").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            arg.arg == "max_conductor"
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]
    assert found == []


def test_every_source_parses_at_the_oldest_supported_python():
    """Each ``.py`` file parses with the grammar of ``requires-python``'s floor in pyproject.toml."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)


# ``sparsegroup.__all__``, pinned: the 48 public names in sorted order.
PUBLIC_NAMES = """
    CensusRow Classification DEFAULT_GENUS_CAP DEFAULT_MAX_CONDUCTOR EnumerationRequest
    InvalidGap InvalidGenerator InvalidParameters Leap LeapProfile LimitExceeded NotASemigroup
    NotCofinite NumericalSemigroup RelativeIdeal SemigroupError TrivialSemigroup census children
    classify enumerate_genus enumerate_kappa_sparse example_family format_gap_line
    frobenius_from_profile frobenius_identity_check ideal_at ideal_difference is_arf_definition
    is_arf_double is_arf_stable is_hyperelliptic is_kappa_sparse is_kappa_sparse_gapdiff
    is_kappa_sparse_nongap is_kappa_sparse_profile is_kappa_sparse_run is_pure_kappa_sparse
    is_sparse is_stable leap_profile leap_set level_size max_leap_jump ordinary parse_gap_line
    sparseness_index sparseness_report
""".split()


def test_package_root_lists_each_public_name_once(monkeypatch):
    """One table in ``__init__.py`` maps each home module to its names; the root reads them there."""
    tree = ast.parse((ROOT / "src" / "sparsegroup" / "__init__.py").read_text(encoding="utf-8"))
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert [name for name in PUBLIC_NAMES if literals.count(name) != 1] == []
    assert sparsegroup.__all__ == PUBLIC_NAMES
    assert dir(sparsegroup) == PUBLIC_NAMES
    for home, names in sparsegroup._HOMES.items():
        module = getattr(sparsegroup, home)
        assert module.__name__ == f"sparsegroup.{home}"
        assert [name for name in names if getattr(sparsegroup, name) is not getattr(module, name)] == []
    namespace: dict = {}
    exec("from sparsegroup import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC_NAMES
    monkeypatch.setattr(enumeration, "census", len)
    assert sparsegroup.census is len


ALL_MODULES = {"cli", "core", "enumeration", "ideals", "kappa", "leaps"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("-c", "import sparsegroup"), set()),
        (("-c", "import sparsegroup.cli"), {"cli", "core"}),
        (("-m", "sparsegroup", "info", "--gaps", ""), {"cli", "core"}),
        (("-m", "sparsegroup", "enumerate", "--genus", "5", "--count-only"), {"cli", "core", "enumeration"}),
        (("-m", "sparsegroup", "enumerate", "--genus", "5", "--arf"), {"cli", "core", "enumeration"}),
        (
            ("-m", "sparsegroup", "enumerate", "--genus", "5", "--arf", "--count-only"),
            {"cli", "core", "enumeration"},
        ),
        (
            ("-m", "sparsegroup", "enumerate", "--genus", "5", "--census"),
            {"cli", "core", "enumeration", "leaps"},
        ),
        (
            ("-m", "sparsegroup", "enumerate", "--genus", "5", "--census", "--format", "tsv"),
            {"cli", "core", "enumeration"},
        ),
        (
            ("-m", "sparsegroup", "enumerate", "--genus", "5", "--census", "--count-only"),
            {"cli", "core", "enumeration"},
        ),
        (("-m", "sparsegroup", "leaps", "--gaps", "1,2,4"), {"cli", "core", "leaps"}),
        (("-m", "sparsegroup", "check", "--sparse", "--gaps", "1,2,4"), {"cli", "core", "leaps"}),
        (("-m", "sparsegroup", "check", "--hyperelliptic", "--gaps", "1"), {"cli", "core", "leaps"}),
        (("-m", "sparsegroup", "check", "--arf", "--gaps", "1,2,4"), {"cli", "core", "ideals"}),
        (
            ("-m", "sparsegroup", "check", "--kappa", "3", "--gaps", "1"),
            {"cli", "core", "kappa", "leaps"},
        ),
        (
            ("-m", "sparsegroup", "check", "--pure", "2", "--gaps", "1"),
            {"cli", "core", "kappa", "leaps"},
        ),
        (("-m", "sparsegroup", "classify", "--gaps", "1,2,4"), ALL_MODULES - {"enumeration"}),
        (("-m", "sparsegroup", "verify", "--max-genus", "0"), ALL_MODULES | {"verify"}),
    ],
    ids=[
        "import",
        "import-cli",
        "info",
        "enumerate",
        "enumerate-arf",
        "enumerate-arf-count",
        "census",
        "census-tsv",
        "census-count",
        "leaps",
        "check",
        "check-hyperelliptic",
        "check-arf",
        "check-kappa",
        "check-pure",
        "classify",
        "verify",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    """``-X importtime`` lists every module a run imports; ``-S`` keeps ``site`` out of it."""
    imported = imported_modules("-S", *argv)
    assert "sparsegroup" in imported
    assert {name.split(".", 1)[1] for name in imported if name.startswith("sparsegroup.")} == loaded


@pytest.mark.parametrize(
    "argv, prints_json",
    [
        (("-c", "import sparsegroup.cli"), False),
        (("-m", "sparsegroup", "info", "--gaps", ""), True),
        (("-m", "sparsegroup", "enumerate", "--genus", "5", "--count-only"), False),
        (("-m", "sparsegroup", "enumerate", "--genus", "5", "--census", "--format", "tsv"), False),
        (("-m", "sparsegroup", "enumerate", "--genus", "5", "--format", "tsv"), False),
        (("-m", "sparsegroup", "enumerate", "--genus", "5"), True),
        (("-m", "sparsegroup", "verify", "--max-genus", "0"), False),
    ],
    ids=["import-cli", "info", "enumerate-count", "census-tsv", "enumerate-tsv", "enumerate-json", "verify"],
)
def test_json_loads_only_where_json_is_printed(argv, prints_json):
    """A run that prints no JSON does not import ``json``."""
    assert ("json" in imported_modules("-S", *argv)) == prints_json


def imported_modules(*argv: str) -> list[str]:
    """Every module a run imports, as ``-X importtime`` lists them on stderr."""
    result = run_python("-X", "importtime", *argv)
    assert result.returncode == 0, result.stderr
    return [
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("-c", "import sparsegroup.cli"),
        ("-m", "sparsegroup", "info", "--gaps", ""),
        ("-m", "sparsegroup", "enumerate", "--genus", "5", "--count-only"),
        ("-m", "sparsegroup", "verify", "--max-genus", "0"),
    ],
    ids=["import-cli", "info", "enumerate", "verify"],
)
def test_no_command_imports_dataclasses_inspect_or_typing(argv):
    """The value classes are plain classes and namedtuples, so no command pays for these imports.

    ``-S`` skips ``site``, whose ``.pth`` files may import ``typing`` from outside the package.
    """
    imported = imported_modules("-S", *argv)
    assert "sparsegroup.cli" in imported
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(imported)
