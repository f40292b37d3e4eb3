"""How the package is run: the benchmark's hooks and smoke mode, and Python without asserts."""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
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
    assert members["__and__"] is members["intersect"]
    assert "__contains__" in members
    parameters = inspect.signature(enumeration._walk).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [
        ("max_genus", inspect.Parameter.empty),
        ("keep", None),
    ]


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

    The census walks the Arf recursion and counts its ``arf`` column off that walk; neither
    may lose an Arf member or change a count.
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


def test_package_root_exports_exactly_what_it_imports():
    """``sparsegroup.__all__`` names each public non-module name ``__init__.py`` imports, once."""
    tree = ast.parse((ROOT / "src" / "sparsegroup" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    public = sorted(
        name
        for name in imported
        if not name.startswith("_") and not inspect.ismodule(getattr(sparsegroup, name))
    )
    assert sorted(sparsegroup.__all__) == public
    assert [name for name in sparsegroup.__all__ if not hasattr(sparsegroup, name)] == []


@pytest.mark.parametrize(
    "argv",
    [("-c", "import sparsegroup.cli"), ("-m", "sparsegroup", "info", "--gaps", "")],
    ids=["import-cli", "info"],
)
def test_only_the_verify_command_loads_the_verify_module(argv):
    """``-X importtime`` lists every module a run imports; ``sparsegroup.verify`` is not one."""
    imported = imported_modules(*argv)
    assert "sparsegroup.cli" in imported
    assert "sparsegroup.verify" not in imported


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
