"""Command-line driver: inspect, check, classify, enumerate, and verify."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import partial

# Start-up is most of a small run, so only ``core`` is imported here: each command imports
# the rest of what it runs, ``json`` included, and the parser needs nothing else.
from .core import (
    DEFAULT_GENUS_CAP,
    InvalidGenerator,
    LimitExceeded,
    NumericalSemigroup,
    SemigroupError,
    _parse_int_list,
    _require_kappa,
    format_gap_line,
    parse_gap_line,
)


def _profile_json(profile) -> dict[str, int]:
    return {str(jump): count for jump, count in profile.counts}


def _inputs(args: argparse.Namespace) -> Iterator[tuple[str, Callable[[], NumericalSemigroup]]]:
    """The single input source as (label, build) pairs, one per semigroup, built on demand."""
    if args.gaps is not None:
        yield f"--gaps {args.gaps!r}", partial(parse_gap_line, args.gaps)
    elif args.generators is not None:
        values = partial(_parse_int_list, args.generators, InvalidGenerator, "generator list")
        yield f"--generators {args.generators!r}", lambda: NumericalSemigroup.from_generators(values())
    else:
        try:  # a leading byte-order mark is read past, and a decode error keeps its byte offset
            with open(args.file, encoding="utf-8") as handle:
                lines = handle.read().removeprefix("\ufeff").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise SemigroupError(f"--file {args.file}: {exc}") from None
        for number, line in enumerate(lines, start=1):
            yield f"--file {args.file} line {number}", partial(parse_gap_line, line)


def _print_reports(args: argparse.Namespace, report: Callable[[NumericalSemigroup], str]) -> None:
    """Build, report and drop one input at a time; print the reports once all succeed.

    A :class:`SemigroupError` names its input; other errors, such as a bad kappa, pass as they are.
    """
    reports = []
    for label, build in _inputs(args):
        try:
            reports.append(report(build()))
        except SemigroupError as exc:
            raise SemigroupError(f"{label}: {exc}") from None
    for text in reports:
        print(text)


def _cmd_info(args: argparse.Namespace) -> int:
    import json
    _print_reports(args, lambda semigroup: json.dumps(semigroup.describe()))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    # each predicate imports only its own module
    if args.arf:
        from .ideals import is_arf_double as predicate
        name = "arf"
    elif args.sparse:
        from .leaps import is_sparse as predicate
        name = "sparse"
    elif args.hyperelliptic:
        from .leaps import is_hyperelliptic as predicate
        name = "hyperelliptic"
    elif args.kappa is not None:
        from .kappa import is_kappa_sparse
        name, predicate = "kappa_sparse", lambda s: is_kappa_sparse(s, args.kappa)
    else:
        from .kappa import is_pure_kappa_sparse
        name, predicate = "pure_kappa_sparse", lambda s: is_pure_kappa_sparse(s, args.pure)
    kappa = args.kappa if args.kappa is not None else args.pure
    if kappa is not None:
        _require_kappa(kappa, 1)  # before any input is read, so it holds for an empty file too
    results = []

    def report(semigroup: NumericalSemigroup) -> str:
        result = predicate(semigroup)
        results.append(result)
        record = {"predicate": name, "gaps": list(semigroup.gaps), "result": result}
        if kappa is not None:
            record["kappa"] = kappa
        return json.dumps(record)

    _print_reports(args, report)
    return 0 if all(results) else 1


def _cmd_leaps(args: argparse.Namespace) -> int:
    import json
    from .leaps import leap_profile, leap_set

    def report(semigroup: NumericalSemigroup) -> str:
        pairs = (f"{leap.lo}\t{leap.hi}" for leap in leap_set(semigroup))
        return "\n".join([json.dumps(_profile_json(leap_profile(semigroup))), *pairs])

    _print_reports(args, report)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    import json
    from .kappa import classify

    def report(semigroup: NumericalSemigroup) -> str:
        result = classify(semigroup)
        record = {
            "gaps": list(semigroup.gaps),
            **result._asdict(),
            "profile": _profile_json(result.profile),
            "checks": dict(result.checks),
        }
        return json.dumps(record)

    _print_reports(args, report)
    return 0


def _check_genus_cap(genus: int, cap: int) -> None:
    """Refuse a walk deeper than ``cap``; a negative genus is left for ``EnumerationRequest``."""
    if 0 <= genus and cap < genus:
        raise LimitExceeded(f"max_genus {genus} exceeds the cap {cap}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import EnumerationRequest, census, level_size, members
    if args.pure and args.kappa is None:
        raise SemigroupError("--pure requires --kappa")
    if args.arf and (args.kappa is not None or args.pure):
        raise SemigroupError("--arf cannot be combined with --kappa/--pure")
    _check_genus_cap(args.genus, args.cap)

    mode = "all"
    if args.arf:
        mode = "arf"
    elif args.pure:
        mode = "pure_kappa_sparse"
    elif args.kappa is not None:
        mode = "kappa_sparse"
    request = EnumerationRequest(
        max_genus=args.genus,
        kappa_filter=args.kappa,
        mode=mode,
        # the TSV census prints no leap profiles, so it need not build them
        emit="count_only" if args.count_only or args.format == "tsv" else "full",
    )
    if args.census:
        records = []
        for row in census(request):
            record = {"genus": row.genus, "total": row.total, **row.per_class}
            if request.emit == "full":
                record["profiles"] = [
                    {"profile": _profile_json(profile), "count": count}
                    for profile, count in sorted(
                        row.profile_histogram.items(), key=lambda kv: kv[0].counts
                    )
                ]
            records.append(record)
        if args.format == "tsv":  # the same columns as the JSON records, which add no profiles here
            print("\t".join(records[0]))
            for record in records:
                print("\t".join(map(str, record.values())))
        else:
            import json
            print(json.dumps(records))
        return 0

    if args.count_only:
        print(level_size(request))
        return 0
    if args.format == "tsv":
        # gap-list text format, so the output feeds straight back into --file
        for semigroup in members(request):
            print(format_gap_line(semigroup))
        return 0
    import json
    for semigroup in members(request):
        print(json.dumps({"gaps": list(semigroup.gaps)}))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks
    _check_genus_cap(args.max_genus, DEFAULT_GENUS_CAP)
    results = run_checks(args.max_genus)
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name} ({result.instances} instances)")
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.counterexample}")
    verdict = "all passed" if failed == 0 else f"{failed} failed"
    print(f"checked {len(results)} invariant families over genus <= {args.max_genus}: {verdict}")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegroup",
        description="Numerical semigroup toolkit: gap and leap statistics, "
        "class checks, classification, and exhaustive enumeration by genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, summary in (
        ("info", _cmd_info, "derived quantities as a JSON object"),
        ("check", _cmd_check, "decide one class predicate (exit 0 iff it holds)"),
        ("leaps", _cmd_leaps, "leap profile as JSON plus leap pairs as TSV"),
        ("classify", _cmd_classify, "full classification report as JSON"),
    ):
        command = sub.add_parser(name, help=summary)
        source = command.add_mutually_exclusive_group(required=True)
        source.add_argument("--gaps", help="comma-separated gaps, in any order ('' for the full naturals)")
        source.add_argument("--generators", help="comma-separated generators with gcd 1")
        source.add_argument("--file", help="gap-list text file, one semigroup per line")
        command.set_defaults(handler=handler)
    predicate = sub.choices["check"].add_mutually_exclusive_group(required=True)
    predicate.add_argument("--arf", action="store_true", help="Arf property")
    predicate.add_argument("--sparse", action="store_true", help="gap jumps at most 2")
    predicate.add_argument("--hyperelliptic", action="store_true", help="2 is a member")
    predicate.add_argument("--kappa", type=int, metavar="K", help="gap jumps at most K")
    predicate.add_argument("--pure", type=int, metavar="K", help="pure K-sparse membership")

    p_enum = sub.add_parser("enumerate", help="list or count semigroups of a given genus")
    p_enum.add_argument("--genus", type=int, required=True, metavar="G")
    p_enum.add_argument("--kappa", type=int, metavar="K", help="restrict to the K-sparse class")
    p_enum.add_argument("--pure", action="store_true", help="restrict to the pure part (needs --kappa)")
    p_enum.add_argument("--arf", action="store_true", help="restrict to Arf members")
    p_enum.add_argument("--count-only", action="store_true", help="emit counts instead of members")
    p_enum.add_argument("--census", action="store_true", help="tabulate genus levels 0..G")
    p_enum.add_argument("--format", choices=("json", "tsv"), default="json")
    p_enum.add_argument("--cap", type=int, default=DEFAULT_GENUS_CAP, help="largest genus allowed")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run every invariant family over a census")
    p_verify.add_argument("--max-genus", type=int, default=8, metavar="G")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # covers SemigroupError and bad numeric arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
