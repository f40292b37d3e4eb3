"""Run the sparsegroup CLI in-process with per-layer timing and counting wrappers.

Usage: python3 perfbench/tracer.py <sparsegroup CLI arguments...>

The CLI's own stdout passes through unchanged; the trace goes to stderr as
one JSON line.  Wrappers are installed from here, around the public
functions of every layer, and rebound in every ``sparsegroup`` module that
holds the same object (``from .x import f`` copies the name).  A span's self
time is its duration minus the time covered by wrapped callees; wrappers
that only count (``__contains__``, the pruning predicate) open no span, so
their time falls to the enclosing span.  Generators are timed per resumption.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from functools import cached_property, partial
from time import perf_counter

import sparsegroup
from run import LAYER_SPANS
from sparsegroup import cli, core, enumeration, ideals, kappa, leaps, verify

MODULES = (sparsegroup, cli, core, enumeration, ideals, kappa, leaps, verify)

# Spans beyond run.LAYER_SPANS, whose metrics in run.py have other shapes.
EXTRA_SPANS = {"core": ("minimal_generators",), "enumeration": ("children", "census")}
GENERATORS = ("enumerate_genus", "enumerate_kappa_sparse")
# Spans whose result length is counted as ``<key>.out``.
COUNT_OUT = ("core.minimal_generators", "enumeration.children")


class Trace:
    """Call counts, output counts and self times, keyed by ``<layer>.<function>``."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.out: Counter[str] = Counter()
        self.instances: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.kept = 0
        self._covered: list[float] = []  # per open span: time of finished child spans

    def enter(self) -> float:
        self._covered.append(0.0)
        return perf_counter()

    def leave(self, key: str, start: float) -> None:
        elapsed = perf_counter() - start
        self.self_s[key] += elapsed - self._covered.pop()
        if self._covered:
            self._covered[-1] += elapsed

    def span(self, key: str, func):
        out = key in COUNT_OUT

        def traced(*args, **kwargs):
            self.calls[key] += 1
            start = self.enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.leave(key, start)
            if out:
                self.out[key] += len(result)
            return result

        return traced

    def generator_span(self, key: str, func):
        def traced(*args, **kwargs):
            self.calls[key] += 1
            inner = func(*args, **kwargs)
            try:
                while True:
                    start = self.enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave(key, start)
                    yield item
            finally:
                inner.close()

        return traced

    def family_span(self, func):
        """A verify family, keyed by the name in its result as ``verify`` prints it."""

        def traced(*args, **kwargs):
            start = self.enter()
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                key = f"verify.{result.name if result is not None else func.__name__}"
                self.leave(key, start)
            self.instances[key] += result.instances
            return result

        return traced

    def walk(self, func):
        """Count the pruning predicate's calls and the subtrees it keeps."""

        def keep_counted(keep):
            def counted(node):
                self.calls["enumeration.keep"] += 1
                kept = keep(node)
                self.kept += kept
                return kept

            return counted

        def traced(max_genus, keep=None):
            return func(max_genus, None if keep is None else keep_counted(keep))

        return traced


def rebind(original, replacement) -> None:
    """Point every sparsegroup module name bound to ``original`` at ``replacement``."""
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def rewrap_attribute(cls: type, name: str, wrap) -> None:
    """Wrap a method, classmethod or cached property of ``cls``, and every alias of it."""
    attr = vars(cls)[name]
    if isinstance(attr, classmethod):
        new = classmethod(wrap(attr.__func__))
    elif isinstance(attr, cached_property):
        new = cached_property(wrap(attr.func))
        new.__set_name__(cls, name)
    else:
        new = wrap(attr)
    for alias, value in list(vars(cls).items()):
        if value is attr:
            setattr(cls, alias, new)


def install(trace: Trace) -> None:
    cls = core.NumericalSemigroup
    for layer, names in (*LAYER_SPANS.items(), *EXTRA_SPANS.items()):
        module = getattr(sparsegroup, layer)
        for name in names:
            key = f"{layer}.{name}"
            if hasattr(module, name):
                rebind(getattr(module, name), trace.span(key, getattr(module, name)))
            else:
                rewrap_attribute(cls, name, partial(trace.span, key))
    for name in GENERATORS:
        function = getattr(enumeration, name)
        rebind(function, trace.generator_span(f"enumeration.{name}", function))
    rebind(enumeration._walk, trace.walk(enumeration._walk))
    contains = vars(cls)["__contains__"]

    def counted_contains(self, n):
        trace.calls["core.contains"] += 1
        return contains(self, n)

    cls.__contains__ = counted_contains

    # The invariant families are the private module functions run_checks calls.
    for name in verify.run_checks.__code__.co_names:
        family = getattr(verify, name, None)
        if name.startswith("_") and getattr(family, "__module__", None) == verify.__name__:
            rebind(family, trace.family_span(family))


def main(argv: list[str]) -> int:
    trace = Trace()
    install(trace)
    code = cli.main(argv)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "calls": trace.calls,
                "out": trace.out,
                "instances": trace.instances,
                "self_s": trace.self_s,
                "kept": trace.kept,
            }
        ),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
