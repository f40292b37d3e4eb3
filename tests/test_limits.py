"""Hostile CLI inputs that once ran for seconds to minutes, each under a subprocess timeout.

Each run takes under half a second on a shared 2-core host with Python 3.11,
apart from the near-cap gap line of the odd family, which takes about 1.3 s,
most of it parsing 666666 gaps.  The ``info`` runs took 10 to 25 s when
``minimal_generators`` scanned pairs and ``from_generators`` swept a byte
array; the Arf runs took from two to more than ten minutes when the Arf test
scanned all pairs of members.  The odd numbers in [m, 2m), many small
generators, took 2.6 s as ``--generators`` at m = 33335 and minutes near the
conductor cap before ``core.MAX_SPANNING_WORK`` refused them.  They are run
as ``--generators`` at m = 40001, a list that nearly fills one command-line
argument (128 KiB on Linux), and as a gap line near the conductor cap.  The
timeout leaves 4x to 10x headroom, so a reintroduced quadratic path fails
here instead of slowing the suite down.  The two ``enumerate`` runs at the
default genus cap, the heaviest walks the command line does without
``--cap``, take under half a second each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from sparsegroup import NumericalSemigroup, example_family, format_gap_line
from sparsegroup.enumeration import DEFAULT_GENUS_CAP

from oracle import PUBLISHED_LEVEL_SIZES

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 5


def run_cli(*argv: str) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "sparsegroup", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
        timeout=TIMEOUT_S,
    )


def test_info_on_the_non_multiples_of_200_below_2e5(tmp_path):
    """Multiplicity 200 and conductor 2 * 10^5: 199000 gaps and 200 minimal generators."""
    path = tmp_path / "hostile.txt"
    path.write_text(",".join(str(n) for n in range(1, 200_000) if n % 200) + "\n")
    result = run_cli("info", "--file", str(path))
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["generators"] == [200, *range(200_001, 200_200)]
    assert (record["genus"], record["conductor"]) == (199_000, 200_000)


def test_generators_with_a_conductor_above_the_cap_are_rejected():
    """20000, ..., 20199 span a semigroup with conductor about 2 * 10^6."""
    values = list(range(20_000, 20_200))
    text = ",".join(map(str, values))
    result = run_cli("info", "--generators", text)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: --generators {text!r}: semigroup generated by {values} "
        "has conductor above the cap 1000000\n"
    )


def odd_family(m: int) -> list[int]:
    """The odd numbers in [m, 2m), for odd m: minimal generators of a semigroup with conductor 3m - 1."""
    return list(range(m, 2 * m, 2))


def odd_family_gaps(m: int) -> list[int]:
    """Below 3m - 1 the members are 0, the odd numbers in [m, 2m) and the even ones from 2m."""
    return [n for n in range(1, 3 * m - 1) if not (m <= n < 2 * m if n % 2 else n >= 2 * m)]


def test_many_small_generators_are_refused_by_the_work_cap():
    """20001 generators from 40001, conductor 120002: the first 160002-bit window may span 12499."""
    text = ",".join(map(str, odd_family(40_001)))
    result = run_cli("info", "--generators", text)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: --generators {text!r}: spanning more than 12499 generators in a "
        "160002-bit window exceeds the work cap 2000000000\n"
    )


def test_the_odd_family_near_the_conductor_cap_is_refused_by_the_work_cap(tmp_path):
    """m = 333333, conductor 999998: the closure check may span 4000 of its 83333 generators below top / 2."""
    for m in (1, 3, 101):
        assert NumericalSemigroup.from_generators(odd_family(m)).gaps == tuple(odd_family_gaps(m))
    path = tmp_path / "odd.txt"
    path.write_text(",".join(map(str, odd_family_gaps(333_333))) + "\n")
    result = run_cli("info", "--file", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: --file {path} line 1: spanning more than 4000 generators in a "
        "499999-bit window exceeds the work cap 2000000000\n"
    )


def write_line(tmp_path, semigroup) -> str:
    path = tmp_path / "line.txt"
    path.write_text(format_gap_line(semigroup) + "\n")
    return str(path)


def test_classify_on_the_hyperelliptic_arf_line_at_conductor_1e5(tmp_path):
    """<2, 100001> is Arf, so the Arf test runs through all 50001 members up to the conductor."""
    hyperelliptic = NumericalSemigroup(tuple(range(1, 100_000, 2)))
    result = run_cli("classify", "--file", write_line(tmp_path, hyperelliptic))
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert (record["figure_class"], record["arf"], record["hyperelliptic"]) == ("arf", True, True)
    assert (record["genus"], record["conductor"]) == (50_000, 100_000)


def test_classify_on_the_two_block_line_at_conductor_1e5(tmp_path):
    """example_family(50000, 50000): the members 50000, ..., 99998, then everything from 10^5."""
    result = run_cli("classify", "--file", write_line(tmp_path, example_family(50_000, 50_000)))
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert (record["figure_class"], record["arf"], record["sparseness_index"]) == (
        "pure-50000-sparse",
        False,
        50_000,
    )
    assert (record["genus"], record["conductor"], record["multiplicity"]) == (
        50_000,
        100_000,
        50_000,
    )


def test_check_arf_on_the_hyperelliptic_line_at_conductor_1e5(tmp_path):
    hyperelliptic = NumericalSemigroup(tuple(range(1, 100_000, 2)))
    result = run_cli("check", "--arf", "--file", write_line(tmp_path, hyperelliptic))
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert (record["predicate"], record["result"]) == ("arf", True)
    assert record["gaps"] == list(hyperelliptic.gaps)


def test_enumerate_at_the_default_cap():
    """The JSON stream of every semigroup of genus 18, the ordinary one first."""
    result = run_cli("enumerate", "--genus", str(DEFAULT_GENUS_CAP))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == len(set(lines)) == PUBLISHED_LEVEL_SIZES[DEFAULT_GENUS_CAP] == 13467
    assert json.loads(lines[0]) == {"gaps": list(range(1, DEFAULT_GENUS_CAP + 1))}


def test_census_at_the_default_cap():
    result = run_cli("enumerate", "--census", "--genus", str(DEFAULT_GENUS_CAP))
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    assert [row["total"] for row in rows] == list(PUBLISHED_LEVEL_SIZES[: DEFAULT_GENUS_CAP + 1])
    assert all(sum(p["count"] for p in row["profiles"]) == row["total"] for row in rows)
