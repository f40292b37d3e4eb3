"""The four benchmark workloads: CLI arguments, inputs, item counts and output checks.

Everything here is standard library only and never imports ``sparsegroup``:
the inputs and the reference answers must not come from the code under test.
Reference values are either published (OEIS A007323) or were recorded from
the CLI at the commit that introduced this benchmark (``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Number of numerical semigroups of genus g, OEIS A007323 (Bras-Amorós,
# Semigroup Forum 2008).
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467,
)

# One line of `verify` output per passing invariant family.
PASS_LINE = re.compile(r"^PASS (\S+) \((\d+) instances\)$", re.M)

# The no-work spawn used for setup_s and its exact output.
SETUP_ARGV = ("info", "--gaps", "")
SETUP_STDOUT = b'{"gaps": [], "generators": [1], "genus": 0, "conductor": 0, "frobenius": -1}\n'

# Workload sizes.  "full" is what the timed runs use; "smoke" is a tiny
# version of every workload that runs in a few seconds.
SIZES = {
    "full": {
        "tree_count": {"genus": 18},
        "census_pruned": {"genus": 20, "kappa": 3},
        "verify_sweep": {"max_genus": 11},
        "classify_file": {"lines": 400, "multiplicity": (8, 40)},
    },
    "smoke": {
        "tree_count": {"genus": 10},
        "census_pruned": {"genus": 10, "kappa": 3},
        "verify_sweep": {"max_genus": 6},
        "classify_file": {"lines": 20, "multiplicity": (3, 8)},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(size: str) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)[size]


# ----------------------------------------------------------------------
# classify_file input: a seeded file of gap lines


def gaps_from_generators(generators: list[int]) -> list[int]:
    """Gaps of the semigroup spanned by coprime ``generators``.

    A bitset of reachable numbers is closed under adding each generator.
    Every gap lies below min * max (Schur's bound on the Frobenius number).
    """
    limit = min(generators) * max(generators)
    mask = (1 << limit) - 1
    reachable = 1
    while True:
        grown = reachable
        for g in generators:
            grown |= reachable << g
        grown &= mask
        if grown == reachable:
            break
        reachable = grown
    bits = bin(reachable)[:1:-1].ljust(limit, "0")
    return [n for n, bit in enumerate(bits) if bit == "0"]


CANDIDATES = 5  # generator sets drawn per line; the one of median size is kept


def generate_gap_file(seed: int, lines: int, multiplicity: tuple[int, int]) -> list[list[int]]:
    """Gap lists of semigroups from random coprime generator sets.

    Line i has multiplicity m = low + i mod (high - low + 1) and k = 2 + i mod 4
    generators; the other k - 1 generators are distinct random numbers in
    (m, 3m).  Of CANDIDATES such sets, the line keeps the one with the median
    number of members below the conductor, which sets the cost of the
    closure check in ``from_gaps``.  So every seed gives a file of nearly the
    same cost: one draw per line made the classify time differ by 30 % from
    seed to seed.
    """
    rng = random.Random(seed)
    low, high = multiplicity
    out = []
    for i in range(lines):
        m = low + i % (high - low + 1)
        k = 2 + i % 4
        drawn = []
        while len(drawn) < CANDIDATES:
            others = rng.sample(range(m + 1, 3 * m), k - 1)
            if math.gcd(m, *others) == 1:
                gaps = gaps_from_generators([m, *others])
                drawn.append((gaps[-1] + 1 - len(gaps), gaps))
        drawn.sort(key=lambda pair: pair[0])
        out.append(drawn[CANDIDATES // 2][1])
    return out


def format_gap_file(gap_lists: list[list[int]]) -> bytes:
    return "".join(",".join(map(str, gaps)) + "\n" for gaps in gap_lists).encode()


def max_jump(gaps: list[int]) -> int:
    """Largest difference between consecutive gaps, with -1 before the first; 1 if none."""
    if not gaps:
        return 1
    return max(b - a for a, b in zip([-1, *gaps[:-1]], gaps))


# ----------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """One CLI invocation with its fixed item count and its output check.

    ``check`` returns None when the CLI's stdout is right and a one-line
    reason otherwise.
    """

    name: str
    argv: tuple[str, ...]
    items: int
    item_unit: str
    check: Callable[[bytes], str | None]
    input_info: dict | None = None

    @property
    def why(self) -> str:
        return WHY[self.name]


def check_count(count: int, stdout: bytes) -> str | None:
    if stdout != f"{count}\n".encode():
        return f"count {stdout[:40]!r}, expected {count} (A007323)"
    return None


def check_census(expected: dict, stdout: bytes) -> str | None:
    try:
        rows = [
            [r["genus"], r["total"], r["arf"], r["sparse"], r["kappa_sparse"], r["pure_kappa_sparse"]]
            for r in json.loads(stdout)
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return f"census output does not parse: {exc}"
    if rows != expected["rows"]:
        return "census rows differ from the recorded rows"
    if sha256(stdout) != expected["sha256"]:
        return "census rows match but the profile histograms differ from the recording"
    return None


def check_verify(expected: str, stdout: bytes) -> str | None:
    text = stdout.decode(errors="replace")
    if not text.endswith("all passed\n"):
        return "verify did not end in 'all passed'"
    if text != expected:
        return "verify PASS lines or instance counts differ from the recording"
    return None


def check_classify(gap_lists: list[list[int]], stdout: bytes) -> str | None:
    """Recompute gaps, genus, conductor, Frobenius number and sparseness index per line."""
    lines = stdout.decode(errors="replace").splitlines()
    if len(lines) != len(gap_lists):
        return f"{len(lines)} output lines for {len(gap_lists)} input lines"
    for number, (line, gaps) in enumerate(zip(lines, gap_lists), start=1):
        try:
            record = json.loads(line)
        except ValueError:
            return f"line {number} is not JSON"
        conductor = gaps[-1] + 1 if gaps else 0
        want = {
            "gaps": gaps,
            "genus": len(gaps),
            "conductor": conductor,
            "frobenius": conductor - 1,
            "sparseness_index": max_jump(gaps),
        }
        for key, value in want.items():
            if record.get(key) != value:
                return f"line {number}: {key} is {str(record.get(key))[:40]}, expected {str(value)[:40]}"
    return None


WHY = {
    "tree_count": "full tree walk with no per-node classification: the children/minimal_generators layer dominates",
    "census_pruned": "pruned kappa-3 walk interleaved with per-node leap, purity and Arf classification plus JSON census",
    "verify_sweep": "all 17 verify families over every semigroup up to genus 11: the deciders dominate, the walk is small",
    "classify_file": "validated from_gaps construction and classification of large seeded semigroups, with no tree walk",
}

NAMES = tuple(WHY)


def build(name: str, size: str, seed: int, workdir: Path) -> Workload:
    """Make the workload's inputs from ``seed`` and return it ready to spawn."""
    params = SIZES[size][name]
    expected = load_expected(size)
    if name == "tree_count":
        count = A007323[params["genus"]]
        argv = ("enumerate", "--genus", str(params["genus"]), "--count-only")
        return Workload(name, argv, count, "semigroups", partial(check_count, count))
    if name == "census_pruned":
        genus, census = str(params["genus"]), expected["census_pruned"]
        argv = ("enumerate", "--census", "--kappa", str(params["kappa"]), "--genus", genus, "--cap", genus)
        items = sum(row[1] for row in census["rows"])
        return Workload(name, argv, items, "nodes", partial(check_census, census))
    if name == "verify_sweep":
        text = expected["verify_sweep"]
        argv = ("verify", "--max-genus", str(params["max_genus"]))
        items = sum(int(count) for _, count in PASS_LINE.findall(text))
        return Workload(name, argv, items, "instances", partial(check_verify, text))
    gap_lists = generate_gap_file(seed, params["lines"], params["multiplicity"])
    data = format_gap_file(gap_lists)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"classify-{size}.txt"
    path.write_bytes(data)
    info = {"seed": seed, "lines": len(gap_lists), "sha256": sha256(data)}
    argv = ("classify", "--file", str(path.relative_to(HERE.parent)))
    return Workload(name, argv, len(gap_lists), "lines", partial(check_classify, gap_lists), info)
