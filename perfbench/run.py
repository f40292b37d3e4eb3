"""End-to-end and per-layer benchmark of the sparsegroup CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload tree_count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # table of every workload
    python3 perfbench/run.py --smoke                         # tiny sizes, checks only

One client spawns one CLI process at a time (a closed loop) and checks every
run's stdout.  ``--trace 0`` reports the end-to-end metrics of untraced
spawns; ``--trace 1`` runs the same CLI under ``tracer.py`` and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full record (environment, samples, quartiles, input digest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

MIN_RUNS = 3  # workload spawns per run, even past the time budget
MIN_TRACED_RUNS = 2  # so that every count is seen to repeat
SETUP_TIMEOUT_S = 10.0
RUN_TIMEOUT_S = 60.0  # a hang counts as a failed run

# reference.py's output, and its time at the host speed every timing is scaled to.
REFERENCE_STDOUT = b"[19, 97]\n"
REFERENCE_S = 0.06

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "max_rss_mb": "MiB", "setup_s": "s"}

# Functions that tracer.py times, by layer; each reports .calls and .self_s.
LAYER_SPANS = {
    "core": ("from_gaps", "parse_gap_line", "small_elements", "intersect"),
    "leaps": ("leap_set", "leap_profile", "max_leap_jump"),
    "kappa": (
        "is_kappa_sparse",
        "is_kappa_sparse_profile",
        "is_kappa_sparse_gapdiff",
        "is_kappa_sparse_nongap",
        "is_kappa_sparse_run",
        "is_pure_kappa_sparse",
        "frobenius_identity_check",
        "sparseness_report",
        "classify",
    ),
    "ideals": ("is_arf_definition", "is_arf_double", "is_arf_stable", "ideal_difference"),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "core.minimal_generators.calls",
        "core.minimal_generators.self_s",
        "core.minimal_generators.out",
        "core.contains.calls",
        "enumeration.children.calls",
        "enumeration.children.self_s",
        "enumeration.children.out",
        "enumeration.child_yield",
        "enumeration.enumerate_genus.self_s",
        "enumeration.enumerate_kappa_sparse.self_s",
        "enumeration.census.self_s",
        "enumeration.keep.calls",
        "enumeration.keep_ratio",
    ]
    for layer, functions in LAYER_SPANS.items():
        names += [f"{layer}.{f}.{kind}" for f in functions for kind in ("calls", "self_s")]
    families = [name for name, _ in workloads.PASS_LINE.findall(workloads.load_expected("full")["verify_sweep"])]
    names += [f"verify.{family}.{kind}" for family in families for kind in ("self_s", "instances")]
    return names + ["cli.stdout_bytes", "trace.overhead"]


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", ".overhead")):
        return "1"
    if name.endswith("_bytes"):
        return "B"
    return "count"


# ----------------------------------------------------------------------
# spawning


@dataclass
class Sample:
    """One CLI process: its resource use, its output and what was wrong with it."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool
    error: str | None = None


class Spawner:
    """The ``spawner.py`` process, through which every CLI process of a run is spawned."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.stdout = WORKDIR / f"stdout-{os.getpid()}"
        self.stderr = WORKDIR / f"stderr-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "SPARSEGROUP_MAX_GENUS"}
        self.env["PYTHONPATH"] = str(SRC)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.stdout.unlink(missing_ok=True)
        self.stderr.unlink(missing_ok=True)

    def __call__(self, argv: list[str], timeout: float) -> Sample:
        """Run ``python3 <argv>`` from the repository root; time it from spawn to exit."""
        request = {
            "argv": [sys.executable, *argv], "cwd": str(ROOT), "env": self.env,
            "timeout": timeout, "stdout": str(self.stdout), "stderr": str(self.stderr),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        sample = Sample(
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            max_rss_mb=reply["max_rss_kb"] / 1024,
            stdout=self.stdout.read_bytes(),
            stderr=self.stderr.read_bytes(),
            timed_out=reply["timed_out"],
        )
        if sample.timed_out:
            sample.error = f"timed out after {timeout:.0f} s"
        elif reply["exit"] != 0:
            tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
            sample.error = f"exit {reply['exit']}: {' '.join(tail)[:200]}"
        return sample


class Checker:
    """Checks each output once per distinct digest, and that every run prints the same bytes."""

    def __init__(self, check: Callable[[bytes], str | None]) -> None:
        self.check = check
        self.digest: str | None = None

    def __call__(self, sample: Sample) -> Sample:
        if sample.error is not None:
            return sample
        digest = workloads.sha256(sample.stdout)
        if self.digest is None:
            sample.error = self.check(sample.stdout)
            if sample.error is None:
                self.digest = digest
        elif digest != self.digest:
            sample.error = "stdout differs from the first correct run's"
        return sample


def setup_check(stdout: bytes) -> str | None:
    return None if stdout == workloads.SETUP_STDOUT else f"setup output {stdout[:80]!r}"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


# ----------------------------------------------------------------------
# one run of one workload


class Run:
    """The spawns of one benchmark run, stopped at the first timeout."""

    def __init__(self, seconds: float, spawner: Spawner) -> None:
        self.deadline = perf_counter() + seconds
        self.spawner = spawner
        self.samples: list[Sample] = []
        self.aborted = False
        self.setup_checker = Checker(setup_check)

    def spawn(self, argv: list[str], timeout: float, checker: Checker) -> Sample:
        sample = checker(self.spawner(argv, timeout))
        self.samples.append(sample)
        self.aborted = self.aborted or sample.timed_out
        return sample

    def setup(self) -> Sample:
        """One no-work spawn of the CLI."""
        return self.spawn(["-m", "sparsegroup", *workloads.SETUP_ARGV], SETUP_TIMEOUT_S, self.setup_checker)

    def laps(self, minimum: int, until: float) -> Iterator[int]:
        """Count laps: at least ``minimum``, then while a lap of median length fits before ``until``."""
        times: list[float] = []
        while not self.aborted and (
            len(times) < minimum or perf_counter() + statistics.median(times) <= until
        ):
            start = perf_counter()
            yield len(times)
            times.append(perf_counter() - start)

    @property
    def failed(self) -> list[str]:
        return [s.error for s in self.samples if s.error is not None]


def passing(samples: list[Sample]) -> list[Sample]:
    """The correct samples, or all of them when none is (so every metric stays a number)."""
    return [s for s in samples if s.error is None] or samples


def lower_quartile(values: list[float]) -> float:
    """The lower quartile of a run's spawn times, the statistic every timing reports.

    On a shared 2-core host, other tenants change the speed in phases of
    seconds to minutes.  Over 25-30 s windows of the same spawn, the lower
    quartile spread by 12-13 % (IQR over median) in each of three recorded
    series, where the median spread by 9-26 % and the 10th percentile by
    5-19 %.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def measure_end_to_end(workload: workloads.Workload, run: Run) -> tuple[dict, dict]:
    """Laps of a workload spawn, a no-work spawn and a reference spawn, so all see the same host phases.

    Every timing is scaled to the host speed at which ``reference.py`` takes
    REFERENCE_S: it is multiplied by REFERENCE_S over the lower quartile of
    the run's reference spawns.  The raw lower quartiles stay in the record.
    """
    run.setup()  # warm-up: byte-compiles the package
    checker = Checker(workload.check)
    reference_checker = Checker(lambda out: None if out == REFERENCE_STDOUT else f"reference output {out[:40]!r}")
    argv = ["-m", "sparsegroup", *workload.argv]
    samples, setup, reference = [], [], []
    for _ in run.laps(MIN_RUNS, run.deadline):
        samples.append(run.spawn(argv, RUN_TIMEOUT_S, checker))
        setup.append(run.setup())
        reference.append(run.spawn([str(HERE / "reference.py")], SETUP_TIMEOUT_S, reference_checker))
    samples, setup, reference = passing(samples), passing(setup), passing(reference)
    raw = {
        "wall_s": lower_quartile([s.wall_s for s in samples]),
        "cpu_s": lower_quartile([s.cpu_s for s in samples]),
        "setup_s": lower_quartile([s.wall_s for s in setup]),
        "reference_s": lower_quartile([s.wall_s for s in reference]),
    }
    scale = REFERENCE_S / raw["reference_s"]
    values = {
        "wall_s": raw["wall_s"] * scale,
        "items_per_s": workload.items / (raw["wall_s"] * scale),
        "cpu_s": raw["cpu_s"] * scale,
        "max_rss_mb": statistics.median(s.max_rss_mb for s in samples),
        "setup_s": raw["setup_s"] * scale,
    }
    detail = {
        "raw_lower_quartile": raw,
        "scale": scale,
        "wall_s": quartiles([s.wall_s for s in samples]),
        "max_rss_mb": quartiles([s.max_rss_mb for s in samples]),
        "samples": {
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "setup_s": [s.wall_s for s in setup],
            "reference_s": [s.wall_s for s in reference],
        },
        "stdout_sha256": workloads.sha256(samples[0].stdout),
        "stdout_bytes": len(samples[0].stdout),
    }
    return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}, detail


def split_trace(sample: Sample) -> dict | None:
    """The tracer's stdout is the CLI's; its last stderr line is the trace."""
    try:
        return json.loads(sample.stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


class TraceChecker:
    """Checks a traced spawn's CLI output and its trace; keeps the good traces.

    Every count must repeat exactly across traced runs, the summed self time
    may not exceed the traced wall time, and each verify family's traced
    instances must equal the count on its PASS line.
    """

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.traces: list[tuple[Sample, dict]] = []

    @staticmethod
    def counts(trace: dict) -> dict:
        return {k: v for k, v in trace.items() if k != "self_s"}

    def __call__(self, sample: Sample) -> Sample:
        sample = self.checker(sample)
        trace = split_trace(sample)
        if sample.error is not None:
            return sample
        if trace is None:
            sample.error = "no trace on stderr"
        elif sum(trace["self_s"].values()) > sample.wall_s:
            sample.error = "summed self time exceeds the traced wall time"
        elif self.traces and self.counts(trace) != self.counts(self.traces[0][1]):
            sample.error = "trace counts differ between traced runs"
        elif any(
            trace["instances"].get(f"verify.{name}") != int(count)
            for name, count in workloads.PASS_LINE.findall(sample.stdout.decode(errors="replace"))
        ):
            sample.error = "traced verify instances differ from the PASS lines"
        else:
            self.traces.append((sample, trace))
        return sample


def measure_layers(workload: workloads.Workload, run: Run) -> tuple[dict, dict]:
    """Untraced spawns for a third of the time, then traced spawns for the rest."""
    run.setup()  # warm-up: byte-compiles the package
    checker = Checker(workload.check)
    argv = ["-m", "sparsegroup", *workload.argv]
    until = perf_counter() + (run.deadline - perf_counter()) / 3
    untraced = passing([run.spawn(argv, RUN_TIMEOUT_S, checker) for _ in run.laps(MIN_RUNS, until)])
    traced = TraceChecker(checker)
    tracer = [str(HERE / "tracer.py"), *workload.argv]
    for _ in run.laps(MIN_TRACED_RUNS, run.deadline):
        run.spawn(tracer, RUN_TIMEOUT_S, traced)
    traces = traced.traces
    if not traces:
        return {name: {"value": 0, "unit": layer_unit(name)} for name in per_layer_names()}, {}

    # Self times come from the traced spawn of median wall time, so they add
    # up to no more than that spawn's wall time; the counts are the same in all.
    median_sample, trace = sorted(traces, key=lambda pair: pair[0].wall_s)[len(traces) // 2]
    calls, out, instances, self_s = trace["calls"], trace["out"], trace["instances"], trace["self_s"]
    traced_wall = lower_quartile([s.wall_s for s, _ in traces])
    untraced_wall = lower_quartile([s.wall_s for s in untraced])
    generators_out = out.get("core.minimal_generators", 0)
    keep_calls = calls.get("enumeration.keep", 0)
    derived = {
        "enumeration.child_yield": out.get("enumeration.children", 0) / generators_out if generators_out else 0.0,
        "enumeration.keep_ratio": trace["kept"] / keep_calls if keep_calls else 0.0,
        "cli.stdout_bytes": len(traces[0][0].stdout),
        "trace.overhead": traced_wall / untraced_wall,
    }
    metrics = {}
    for name in per_layer_names():
        key, _, kind = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif kind == "self_s":
            value = self_s.get(key, 0.0)
        else:
            value = {"calls": calls, "out": out, "instances": instances}[kind].get(key, 0)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    detail = {
        "traced_runs": len(traces),
        "traced_wall_s": quartiles([s.wall_s for s, _ in traces]),
        "untraced_wall_s": quartiles([s.wall_s for s in untraced]),
        "self_s_source_wall_s": median_sample.wall_s,
        "self_s_sum": sum(self_s.values()),
    }
    return metrics, detail


# ----------------------------------------------------------------------
# results


def git_commit() -> str | None:
    """HEAD of the repository, read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(name: str, size: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One benchmark run: the full record and the result line."""
    workload = workloads.build(name, size, seed, WORKDIR)
    with Spawner() as spawner:
        run = Run(seconds, spawner)
        if traced:
            metrics, detail = measure_layers(workload, run)
        else:
            metrics, detail = measure_end_to_end(workload, run)
    attempted, failed = len(run.samples), len(run.failed)
    record = {
        "workload": name,
        "why": workload.why,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "argv": ["sparsegroup", *workload.argv],
        "items": workload.items,
        "item_unit": workload.item_unit,
        "input": workload.input_info,
        "environment": environment(),
        "fail_ratio": failed / attempted,
        "failures": run.failed[:5],
        "detail": detail,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def print_table(records: list[tuple[dict, dict]]) -> None:
    print(f"{'workload':<14} {'metric':<12} {'value':>14}  unit")
    for record, result in records:
        for name, metric in result["metrics"].items():
            print(f"{record['workload']:<14} {name:<12} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{record['workload']:<14} {'fail_ratio':<12} {record['fail_ratio']:>14.6g}  1")


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: checks outputs and the schema only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for traced in (0, 1):
            record, result = run_workload(name, "smoke", 0, 0, bool(traced))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace={traced}: result keys {sorted(result)}")
            if got != want[traced]:
                problems.append(f"{name} trace={traced}: metric names or units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={traced}: {record['failures']}")
            counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "B")}
            print(f"smoke {name} trace={traced}: {'ok' if result['correct'] else 'FAILED'}"
                  f" items={record['items']}{' ' + json.dumps(counts, sort_keys=True) if traced else ''}")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check outputs and schema, not times")
    args = parser.parse_args(argv)

    if not (SRC / "sparsegroup" / "cli.py").is_file():
        print(f"perfbench: no sparsegroup sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record, result = run_workload(name, "full", args.seed, args.seconds, bool(args.trace))
        print(json.dumps(record), flush=True)
        records.append((record, result))
    if len(records) > 1:
        print_table(records)
    print(json.dumps({
        "correct": all(r["correct"] for _, r in records),
        "attempted": sum(r["attempted"] for _, r in records),
        "failed": sum(r["failed"] for _, r in records),
        "metrics": records[0][1]["metrics"] if len(records) == 1 else {
            f"{rec['workload']}.{k}": v for rec, r in records for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
