"""A fixed Python program spawned next to every CLI process to measure the host's speed.

It imports nothing from the repository, so no change to the program can
change its cost.  Like a CLI process, it starts an interpreter, imports
argparse and json, and runs a pure-Python loop of set lookups, generator
expressions under ``any`` and dictionary counting.
"""

import argparse
import json

GAPS = frozenset(n for n in range(1, 700) if n % 7 in (1, 2, 4) or n < 30)

argparse.ArgumentParser().parse_args([])
found = 0
for h in range(30, 700):
    if h not in GAPS and not any(x not in GAPS and (h - x) not in GAPS for x in range(30, h - 29)):
        found += 1
counts: dict[int, int] = {}
for i in range(40_000):
    counts[i % 97] = counts.get(i % 97, 0) + 1
print(json.dumps([found, len(counts)]))
