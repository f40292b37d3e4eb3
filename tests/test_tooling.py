"""How the package is run: the benchmark harness's smoke mode, and Python without asserts."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv: str) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=False
    )


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

    The Arf walk prunes at index > 2, which must lose no Arf member and change no count.
    """
    result = run_python("-m", "sparsegroup", "enumerate", "--census", "--arf", "--genus", "18")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == "cf544add5f8592f80eca0e96f7a7c3cce756483d15194cfdd1acadbd998db91c"


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
