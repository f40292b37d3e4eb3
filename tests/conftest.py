from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from sparsegroup import NumericalSemigroup, enumerate_genus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def level():
    """Session-cached access to full genus levels of the semigroup tree."""
    cache: dict[int, list[NumericalSemigroup]] = {}

    def get(genus: int) -> list[NumericalSemigroup]:
        if genus not in cache:
            cache[genus] = list(enumerate_genus(genus))
        return cache[genus]

    return get


@pytest.fixture(scope="session")
def classify_file_lines() -> list[list[int]]:
    """The gap lists of the classify_file benchmark input at its default seed 0.

    ``perfbench/workloads.py`` makes them with the standard library alone, never
    importing ``sparsegroup``; it is run from its file, as ``perfbench`` is no package.
    """
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"), run_name="workloads")
    params = workloads["SIZES"]["full"]["classify_file"]
    return workloads["generate_gap_file"](0, params["lines"], params["multiplicity"])
