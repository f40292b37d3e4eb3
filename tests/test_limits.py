"""Hostile CLI inputs that once ran for seconds to minutes, each under a subprocess timeout.

Each run takes under half a second on a shared 2-core host with Python 3.11,
and took 10 to 25 s when ``minimal_generators`` scanned pairs and
``from_generators`` swept a byte array.  The timeout leaves 10x headroom, so
a reintroduced quadratic path fails here instead of slowing the suite down.
Families with no bound yet (the Arf test on two-block inputs, the odd
numbers in [m, 2m) as generators) are not run here; see ROADMAP direction 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
