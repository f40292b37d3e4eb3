from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sparsegroup import (
    enumeration,
    example_family,
    format_gap_line,
    is_arf_double,
    is_kappa_sparse,
    is_pure_kappa_sparse,
)
from sparsegroup.cli import _build_parser, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_gaps_input(self, capsys):
        code, out, _ = run(capsys, "info", "--gaps", "1,2,4")
        assert code == 0
        assert json.loads(out) == {
            "gaps": [1, 2, 4],
            "generators": [3, 5, 7],
            "genus": 3,
            "conductor": 5,
            "frobenius": 4,
        }

    def test_generators_input(self, capsys):
        code, out, _ = run(capsys, "info", "--generators", "3,5,7")
        assert code == 0
        assert json.loads(out)["gaps"] == [1, 2, 4]

    def test_empty_gaps_is_the_naturals(self, capsys):
        code, out, _ = run(capsys, "info", "--gaps", "")
        assert code == 0
        assert json.loads(out)["frobenius"] == -1

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2,4\n\n1,3\n", encoding="utf-8")
        code, out, _ = run(capsys, "info", "--file", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [record["genus"] for record in records] == [3, 0, 2]

    def test_two_sources_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "--gaps", "1", "--generators", "2,3"])
        assert excinfo.value.code == 2

    def test_missing_source_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info"])
        assert excinfo.value.code == 2

    def test_gaps_help_accepts_any_order(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--gaps GAPS comma-separated gaps, in any order ('' for the full naturals)" in help_text

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--gaps", "1,-1,-2", "gap values must be positive integers, got -2"),
            ("--generators", "-4,0,3", "generators must be positive integers, got -4"),
        ],
    )
    def test_the_smallest_non_positive_value_is_named(self, capsys, flag, text, message):
        code, out, err = run(capsys, "info", f"{flag}={text}")
        assert (code, out, err) == (2, "", f"error: {flag} {text!r}: {message}\n")

    def test_invalid_gap_list_diagnostic(self, capsys):
        code, _, err = run(capsys, "info", "--gaps", "1,3,4")
        assert code == 2
        assert "1,3,4" in err

    @pytest.mark.parametrize(
        "flag, text, token",
        [
            ("--gaps", "1,x", "'x'"),
            ("--gaps", "1,,3", "''"),
            ("--gaps", "2.5", "'2.5'"),
            ("--generators", "3,,5", "''"),
            ("--generators", "x", "'x'"),
        ],
        ids=["1,x-'x'", "1,,3-''", "2.5-'2.5'", "generators-3,,5-''", "generators-x-'x'"],
    )
    def test_unparsable_gap_list_names_the_token(self, capsys, flag, text, token):
        """Both lists are parsed by one function, so both errors carry the same frame."""
        what = {"--gaps": "gap list", "--generators": "generator list"}[flag]
        code, out, err = run(capsys, "info", flag, text)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {flag} {text!r}: cannot parse {what} {text!r}: "
            f"invalid literal for int() with base 10: {token}\n"
        )

    def test_bad_file_line_is_named(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2\n1,3,4\n", encoding="utf-8")
        code, _, err = run(capsys, "info", "--file", str(path))
        assert code == 2
        assert "line 2" in err

    def test_a_file_that_is_not_utf8_is_named_and_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"1,2\n\xff\n")
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --file {path}: 'utf-8' codec can't decode byte 0xff in position 4:"
            " invalid start byte\n"
        )

    def test_a_leading_byte_order_mark_is_read_past(self, capsys, tmp_path):
        """A UTF-8 file that starts with a byte-order mark prints what the same file without it prints."""
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"1,2,4\n\n1,3\n1,2,3,7\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        code, out, err = run(capsys, "classify", "--file", str(plain))
        assert (code, len(out.splitlines()), err) == (0, 4, "")
        assert run(capsys, "classify", "--file", str(marked)) == (code, out, err)

    def test_a_decode_error_after_a_byte_order_mark_names_its_byte_offset(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbf1,2\n\xff\n")
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --file {path}: 'utf-8' codec can't decode byte 0xff in position 7:"
            " invalid start byte\n"
        )

    def test_only_a_newline_ends_a_file_line(self, capsys, tmp_path):
        """A form feed, U+0085 or U+2028 stays inside its line; CR and CRLF still end one."""
        path = tmp_path / "input.txt"
        path.write_bytes(b"1,2,4\f\n1,3\n")
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert [json.loads(line)["gaps"] for line in out.splitlines()] == [[1, 2, 4], [1, 3]]
        assert (code, err) == (0, "")
        for separator in "\u0085", "\u2028":
            line = f"1,3{separator}5"
            path.write_text(f"{line}\n1,2\n", encoding="utf-8")
            code, out, err = run(capsys, "classify", "--file", str(path))
            assert (code, out) == (2, "")
            assert err == (
                f"error: --file {path} line 1: cannot parse gap list {line!r}: "
                f"invalid literal for int() with base 10: {line[2:]!r}\n"
            )
        for newline in b"\r\n", b"\r":
            path.write_bytes(b"1,2,4" + newline + b"1,3" + newline)
            code, out, err = run(capsys, "classify", "--file", str(path))
            assert [json.loads(line)["gaps"] for line in out.splitlines()] == [[1, 2, 4], [1, 3]]
            assert (code, err) == (0, "")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "info", "--gaps", "1,2,4")
        _, second, _ = run(capsys, "info", "--gaps", "1,2,4")
        assert first == second

    # example_family(51700, 51700) is valid, but its minimal generators pass the work cap
    REFUSAL = (
        "spanning more than 25789 generators in a 77550-bit window exceeds the work cap 2000000000"
    )

    def test_a_refusal_while_reporting_names_the_line_and_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2,4\n" + format_gap_line(example_family(51_700, 51_700)) + "\n")
        code, out, err = run(capsys, "info", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --file {path} line 2: {self.REFUSAL}\n"

    def test_a_refusal_while_reporting_names_the_gap_list(self, capsys):
        text = format_gap_line(example_family(51_700, 51_700))
        code, out, err = run(capsys, "info", "--gaps", text)
        assert (code, out) == (2, "")
        assert err == f"error: --gaps {text!r}: {self.REFUSAL}\n"


class TestCheck:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            (("--arf",), 0),
            (("--sparse",), 1),
            (("--hyperelliptic",), 1),
            (("--kappa", "4"), 0),
            (("--kappa", "3"), 1),
            (("--pure", "4"), 0),
            (("--pure", "3"), 1),
        ],
    )
    def test_exit_code_tracks_predicate(self, capsys, flags, expected):
        target = "1,2,4" if "--arf" in flags else "1,2,3,7"
        code, out, _ = run(capsys, "check", *flags, "--gaps", target)
        assert code == expected
        assert json.loads(out.splitlines()[0])["result"] == (expected == 0)

    def test_hyperelliptic_true(self, capsys):
        code, _, _ = run(capsys, "check", "--hyperelliptic", "--gaps", "1,3")
        assert code == 0

    def test_exactly_one_predicate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--arf", "--sparse", "--gaps", "1"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--gaps", "1"])
        assert excinfo.value.code == 2

    def test_bad_kappa_is_a_validation_error(self, capsys):
        """Only a ``SemigroupError`` names the input; a bad kappa keeps its own text."""
        code, out, err = run(capsys, "check", "--kappa", "0", "--gaps", "1")
        assert (code, out) == (2, "")
        assert err == "error: kappa must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("flag, value", [("--kappa", "0"), ("--pure", "-3")])
    @pytest.mark.parametrize("text", ["", "1,2,4\n", "1,2,4\n1,3\n"], ids=["empty", "one", "two"])
    def test_bad_kappa_is_refused_before_any_input_is_read(
        self, capsys, tmp_path, flag, value, text
    ):
        """Kappa is checked first, so an empty file is refused as a one- or two-line file is."""
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", flag, value, "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: kappa must be an integer >= 1, got {value}\n"

    def test_file_input_requires_all_lines_to_hold(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2,3\n1,2,3,7\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "--sparse", "--file", str(path))
        assert code == 1
        results = [json.loads(line)["result"] for line in out.splitlines()]
        assert results == [True, False]


class TestLeaps:
    def test_profile_then_pairs(self, capsys):
        code, out, _ = run(capsys, "leaps", "--gaps", "1,2,3,7")
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0]) == {"1": 2, "2": 1, "4": 1}
        assert lines[1:] == ["-1\t1", "1\t2", "2\t3", "3\t7"]

    def test_naturals_has_empty_profile(self, capsys):
        code, out, _ = run(capsys, "leaps", "--gaps", "")
        assert code == 0
        assert out == "{}\n"


class TestClassify:
    def test_full_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--gaps", "1,2,3,7")
        assert code == 0
        record = json.loads(out)
        assert record["figure_class"] == "pure-4-sparse"
        assert record["sparseness_index"] == 4
        assert record["arf"] is False
        assert record["sparse"] is False
        assert record["hyperelliptic"] is False
        assert record["pure_witness"] == [3, 7]
        assert all(record["checks"].values())

    def test_trivial_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--gaps", "")
        record = json.loads(out)
        assert code == 0
        assert record["figure_class"] == "trivial"
        assert record["pure_witness"] is None

    @pytest.mark.parametrize(
        "gaps, line",
        [
            (
                "1,2,3,7",
                '{"gaps": [1, 2, 3, 7], "genus": 4, "conductor": 8, "frobenius": 7, '
                '"multiplicity": 4, "hyperelliptic": false, "arf": false, "sparse": false, '
                '"sparseness_index": 4, "figure_class": "pure-4-sparse", '
                '"profile": {"1": 2, "2": 1, "4": 1}, "pure_witness": [3, 7], '
                '"checks": {"profile_sum": true, "gap_spacing": true, '
                '"member_spacing": true, "member_run": true}}',
            ),
            (
                "",
                '{"gaps": [], "genus": 0, "conductor": 0, "frobenius": -1, '
                '"multiplicity": 1, "hyperelliptic": true, "arf": true, "sparse": true, '
                '"sparseness_index": 1, "figure_class": "trivial", '
                '"profile": {}, "pure_witness": null, '
                '"checks": {"profile_sum": true, "gap_spacing": true}}',
            ),
            (
                "1,2,4",
                '{"gaps": [1, 2, 4], "genus": 3, "conductor": 5, "frobenius": 4, '
                '"multiplicity": 3, "hyperelliptic": false, "arf": true, "sparse": true, '
                '"sparseness_index": 2, "figure_class": "arf", '
                '"profile": {"1": 1, "2": 2}, "pure_witness": [-1, 1], '
                '"checks": {"profile_sum": true, "gap_spacing": true, '
                '"member_spacing": true, "member_run": true}}',
            ),
        ],
        ids=["pure-4-sparse", "trivial", "arf"],
    )
    def test_exact_line(self, capsys, gaps, line):
        """Key order and spacing, byte for byte: the classify line is a stable text format."""
        assert run(capsys, "classify", "--gaps", gaps) == (0, line + "\n", "")

    def test_file_line_that_is_not_a_semigroup(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2,3,7\n1,3,4\n1,2\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: --file {path} line 2: 2 and 2 are non-gaps but their sum 4 is a gap\n"


class TestEnumerate:
    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "2")
        assert code == 0
        assert [json.loads(line)["gaps"] for line in out.splitlines()] == [[1, 2], [1, 3]]

    def test_tsv_emits_gap_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "2", "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["1,2", "1,3"]

    def test_tsv_round_trips_through_file_input(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--genus", "3", "--format", "tsv")
        assert code == 0
        path = tmp_path / "level3.txt"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "info", "--file", str(path))
        assert code == 0
        assert all(json.loads(line)["genus"] == 3 for line in out.splitlines())

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "7", "--count-only")
        assert code == 0
        assert out.strip() == "39"

    @pytest.mark.parametrize(
        "flags, mode, kappa",
        [
            ((), "all", None),
            (("--arf",), "arf", None),
            (("--kappa", "1"), "kappa_sparse", 1),
            (("--kappa", "3"), "kappa_sparse", 3),
            (("--kappa", "1", "--pure"), "pure_kappa_sparse", 1),
            (("--kappa", "3", "--pure"), "pure_kappa_sparse", 3),
            (("--kappa", "5", "--pure"), "pure_kappa_sparse", 5),
        ],
        ids=["all", "arf", "kappa1", "kappa3", "kappa1-pure", "kappa3-pure", "kappa5-pure"],
    )
    def test_count_only_prints_the_streamed_count_and_builds_no_semigroup(
        self, capsys, monkeypatch, flags, mode, kappa
    ):
        """Byte for byte what counting the member stream printed; kappa 5 is above every index at genus 0..2."""
        for genus in (0, 1, 2, 9, 14):
            request = enumeration.EnumerationRequest(genus, kappa_filter=kappa, mode=mode)
            streamed = f"{sum(1 for _ in enumeration.members(request))}\n"
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "NumericalSemigroup", None)
                assert run(capsys, "enumerate", "--genus", str(genus), "--count-only", *flags) == (
                    0,
                    streamed,
                    "",
                ), genus

    def test_kappa_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "4", "--kappa", "2", "--count-only")
        assert code == 0
        filtered = int(out.strip())
        code, out, _ = run(capsys, "enumerate", "--genus", "4", "--count-only")
        assert filtered < int(out.strip())

    @pytest.mark.parametrize(
        "flags, in_class",
        [
            ((), lambda s: True),
            (("--kappa", "3"), lambda s: is_kappa_sparse(s, 3)),
            (("--kappa", "3", "--pure"), lambda s: is_pure_kappa_sparse(s, 3)),
            (("--arf",), is_arf_double),
            (("--kappa", "1"), lambda s: is_kappa_sparse(s, 1)),
            (("--kappa", "1", "--pure"), lambda s: is_pure_kappa_sparse(s, 1)),
        ],
        ids=["all", "kappa3", "kappa3-pure", "arf", "kappa1", "kappa1-pure"],
    )
    def test_stream_matches_census_and_filtered_level(self, capsys, level, flags, in_class):
        code, out, _ = run(capsys, "enumerate", "--genus", "7", "--census", "--count-only", *flags)
        assert code == 0
        totals = [row["total"] for row in json.loads(out)]
        for g in range(8):
            code, out, _ = run(capsys, "enumerate", "--genus", str(g), "--count-only", *flags)
            assert code == 0
            assert int(out) == totals[g], g
            code, out, _ = run(capsys, "enumerate", "--genus", str(g), *flags)
            assert code == 0
            streamed = [json.loads(line)["gaps"] for line in out.splitlines()]
            assert streamed == [list(s.gaps) for s in level(g) if in_class(s)], g

    def test_pure_needs_kappa(self, capsys):
        code, _, err = run(capsys, "enumerate", "--genus", "3", "--pure")
        assert code == 2
        assert "--kappa" in err

    def test_arf_conflicts_with_kappa(self, capsys):
        code, _, err = run(capsys, "enumerate", "--genus", "3", "--arf", "--kappa", "2")
        assert code == 2
        assert "--arf" in err

    def test_census_tsv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "3", "--census", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "genus\ttotal\tarf\tsparse\tkappa_sparse\tpure_kappa_sparse"
        totals = [int(line.split("\t")[1]) for line in lines[1:]]
        assert totals == [1, 1, 2, 4]

    @pytest.mark.parametrize(
        "flags", [("--format", "tsv"), ("--format", "tsv", "--kappa", "3"), ("--count-only",)]
    )
    def test_census_tsv_builds_no_leap_profiles(self, capsys, monkeypatch, flags):
        """The TSV table and the count-only census print no profiles, so no tally is keyed on leap counts.

        A key of packed leap counts has a field per jump; an index key is at most genus + 1.
        """
        walk, keys = enumeration._tree, []

        def recorded(max_genus, keep, span, arf, pure=False, bits=None, stream=False):
            assert bits == 0, "leap counts packed for a census without profiles"
            for tallies in walk(max_genus, keep, span, arf, pure, bits, stream):
                keys.extend(key for tally in tallies for key in tally)
                yield tallies

        monkeypatch.setattr(enumeration, "_tree", recorded)
        code, out, _ = run(capsys, "enumerate", "--genus", "6", "--census", *flags)
        assert code == 0
        if "tsv" in flags:
            totals = [int(line.split("\t")[1]) for line in out.splitlines()[1:]]
        else:
            totals = [row["total"] for row in json.loads(out)]
        assert totals == ([1, 1, 2, 4, 6, 9, 15] if "--kappa" in flags else [1, 1, 2, 4, 7, 12, 23])
        assert keys and max(keys) <= 7

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "2", "--census")
        assert code == 0
        rows = json.loads(out)
        assert [row["total"] for row in rows] == [1, 1, 2]
        assert rows[2]["profiles"] == [
            {"profile": {"1": 1, "2": 1}, "count": 1},
            {"profile": {"2": 2}, "count": 1},
        ]

    def test_census_count_only_drops_profiles(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--genus", "2", "--census", "--count-only")
        assert code == 0
        rows = json.loads(out)
        assert all("profiles" not in row for row in rows)
        assert [row["total"] for row in rows] == [1, 1, 2]

    def test_cap_flag_and_env(self, capsys, monkeypatch):
        """--cap is the only cap; the environment is not read."""
        code, _, err = run(capsys, "enumerate", "--genus", "6", "--cap", "5")
        assert code == 2
        assert err == "error: max_genus 6 exceeds the cap 5\n"
        monkeypatch.setenv("SPARSEGROUP_MAX_GENUS", "4")
        assert run(capsys, "enumerate", "--genus", "6", "--count-only") == (0, "23\n", "")

    def test_genus_above_default_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--genus", "19")
        assert code == 2
        assert "cap" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-genus", "5")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "all passed" in lines[-1]
        assert not any(line.startswith("FAIL") for line in lines)

    def test_genus_above_the_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--max-genus", "19")
        assert (code, out, err) == (2, "", "error: max_genus 19 exceeds the cap 18\n")


ROOT = Path(__file__).resolve().parent.parent


def environment(unbuffered: bool) -> dict[str, str]:
    """This process's environment with ``PYTHONUNBUFFERED`` set to 1 or removed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def spawn(*argv: str, env: dict[str, str] | None = None, **options) -> subprocess.CompletedProcess[str]:
    """``python <argv>`` in a fresh process with the package on its path, output captured."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    options.setdefault("stdout", subprocess.PIPE)
    options.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *argv], env=env, stdin=subprocess.DEVNULL, text=True, check=False, **options
    )


class TestEntryPoint:
    def test_module_invocation(self):
        result = spawn("-m", "sparsegroup", "info", "--gaps", "1,2,4")
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["genus"] == 3

    @pytest.mark.parametrize("argv", [["enumerate", "--genus", "3", "--count-only"], ["--help"]])
    def test_a_normal_return_skips_interpreter_teardown(self, monkeypatch, argv):
        """No object is finalized after a return or argparse's exit, so a module-level ``__del__`` never prints."""
        monkeypatch.setenv("COLUMNS", "80")  # the width of the help text, here and in the spawn
        code = (
            "import runpy, sys\n"
            "class Finalized:\n"
            "    def __del__(self):\n"
            "        print('finalized')\n"
            "alive = Finalized()\n"
            f"sys.argv = ['sparsegroup', *{argv!r}]\n"
            "runpy.run_module('sparsegroup', run_name='__main__')\n"
        )
        result = spawn("-c", code)
        out = _build_parser().format_help() if argv == ["--help"] else "4\n"
        assert (result.returncode, result.stdout, result.stderr) == (0, out, "")

    def test_the_console_script_calls_what_the_module_calls(self):
        """``[project.scripts]`` names the function that ``__main__.py`` imports and calls."""
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^sparsegroup = "sparsegroup\.cli:(\w+)"$', pyproject, re.MULTILINE)
        body = ast.parse((ROOT / "src" / "sparsegroup" / "__main__.py").read_text(encoding="utf-8")).body
        assert [ast.dump(node) for node in body] == [
            ast.dump(ast.ImportFrom("cli", [ast.alias(target[1])], 1)),
            ast.dump(ast.Expr(ast.Call(ast.Name(target[1], ast.Load()), [], []))),
        ]

    REFUSAL = "error: --gaps '1,3,4': 2 and 2 are non-gaps but their sum 4 is a gap\n"
    USAGE = (
        "usage: sparsegroup [-h] {info,check,leaps,classify,enumerate,verify} ...\n"
        "sparsegroup: error: argument command: invalid choice: 'frobnicate' "
    )

    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (["check", "--hyperelliptic", "--gaps", "1,2,4"], 1, ""),
            (["info", "--gaps", "1,3,4"], 2, re.escape(REFUSAL)),
            (["frobnicate"], 2, re.escape(USAGE) + r"\(choose from .*\)\n"),
            (["--help"], 0, ""),
        ],
    )
    def test_exit_status_and_stderr(self, argv, code, stderr):
        result = spawn("-m", "sparsegroup", *argv)
        assert result.returncode == code
        assert re.fullmatch(stderr, result.stderr)

    # 89 bytes, which a block-buffered stdout holds until the final flush, and 16.5 kB, which
    # overflow its 8 KiB buffer while main() prints; unbuffered, the first write fails in both.
    # The help texts, a command's and a subcommand's, end in argparse's exit, not a return
    OUTPUTS = pytest.mark.parametrize("argv", [
        pytest.param(["info", "--gaps", "1,2,4"], id="info"),
        pytest.param(["enumerate", "--genus", "12", "--format", "tsv"], id="enumerate"),
        pytest.param(["--help"], id="help"),
        pytest.param(["enumerate", "--help"], id="enumerate-help"),
    ])
    NO_SPACE = "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("stderr_full", [False, True], ids=["stderr", "stderr_full"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    @OUTPUTS
    def test_a_full_stdout_ends_the_run_with_one_error_line(self, argv, unbuffered, stderr_full):
        """With stderr full too, the line cannot be written, and no traceback takes the status to 1."""
        with open("/dev/full", "w") as full:
            stderr = full if stderr_full else subprocess.PIPE
            result = spawn("-m", "sparsegroup", *argv, env=environment(unbuffered), stdout=full, stderr=stderr)
        assert (result.returncode, result.stderr) == (120, None if stderr_full else self.NO_SPACE)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @OUTPUTS
    def test_a_pipe_with_no_reader_ends_the_run_quietly(self, argv, unbuffered):
        """The read end is closed before the spawn, so the first write to the pipe fails."""
        read, write = os.pipe()
        os.close(read)
        try:
            result = spawn("-m", "sparsegroup", *argv, env=environment(unbuffered), stdout=write)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_atexit_handlers_run_before_the_error_line(self, unbuffered):
        """Once a write has failed, what a handler prints to stdout goes nowhere and raises nothing."""
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
            "atexit.register(print, 'dropped')\n"
            "sys.argv = ['sparsegroup', 'info', '--gaps', '1,2,4']\n"
            "runpy.run_module('sparsegroup', run_name='__main__')\n"
        )
        with open("/dev/full", "w") as full:
            result = spawn("-c", code, env=environment(unbuffered), stdout=full)
        assert (result.returncode, result.stderr) == (120, "atexit handler ran\n" + self.NO_SPACE)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_reader_that_closes_early_ends_the_run_quietly(self, unbuffered):
        """As under ``| head -1``: the reader takes one line and closes; the run exits 141, silent.

        Genus 16 prints about 310 kB, several times a pipe's default capacity, so the
        writer meets the closed pipe while ``main()`` still runs.
        """
        env = {**environment(unbuffered), "PYTHONPATH": str(ROOT / "src")}
        argv = [sys.executable, "-m", "sparsegroup", "enumerate", "--genus", "16"]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, **pipes) as process:
            first = process.stdout.readline()
            process.stdout.close()
            code = process.wait(timeout=120)
            stderr = process.stderr.read()
        assert json.loads(first) == {"gaps": list(range(1, 17))}
        assert (code, stderr) == (141, b"")

    def test_a_closed_stdout_is_no_error(self):
        result = spawn(
            "-m", "sparsegroup", "info", "--gaps", "1,2,4", stdout=None, preexec_fn=lambda: os.close(1)
        )
        assert (result.returncode, result.stderr) == (0, "")

    def test_help_with_stdout_closed_goes_to_stderr(self, monkeypatch):
        """As in argparse, the help text falls back to stderr when there is no stdout."""
        monkeypatch.setenv("COLUMNS", "80")  # the width of the help text, here and in the spawn
        result = spawn("-m", "sparsegroup", "--help", stdout=None, preexec_fn=lambda: os.close(1))
        assert (result.returncode, result.stderr) == (0, _build_parser().format_help())

    @pytest.mark.parametrize(
        "argv",
        [["info", "--gaps", "1,3,4"], ["enumerate", "--genus", "19", "--count-only"], ["frobnicate"]],
        ids=["refusal", "cap", "usage"],
    )
    def test_a_refusal_with_stderr_closed_leaves_stdout_empty(self, argv):
        """``sys.stderr`` is None, and ``print`` and argparse would fall back to stdout."""
        result = spawn("-m", "sparsegroup", *argv, preexec_fn=lambda: os.close(2))
        assert (result.returncode, result.stdout) == (2, "")


class TestBufferedExit:
    """A normal return flushes block-buffered stdout before the process ends without teardown.

    Each run writes to a file with ``PYTHONUNBUFFERED`` removed, so stdout is block-buffered
    and its last block is still unwritten when ``main()`` returns.
    """

    @staticmethod
    def spawn_to_file(tmp_path, *argv: str) -> tuple[int, bytes, str]:
        path = tmp_path / "stdout"
        with open(path, "wb") as stdout:
            result = spawn(*argv, env=environment(False), stdout=stdout)
        return result.returncode, path.read_bytes(), result.stderr

    @pytest.fixture
    def gap_file(self, tmp_path, level):
        """Every semigroup of genus 9, one per line: about 44 kB of classify output."""
        path = tmp_path / "input.txt"
        path.write_text("".join(format_gap_line(node) + "\n" for node in level(9)), encoding="utf-8")
        return path

    def test_classify_file_writes_what_main_prints(self, capsys, tmp_path, gap_file):
        code, out, _ = run(capsys, "classify", "--file", str(gap_file))
        assert code == 0 and len(out) > 4 * 8192 and out.count("\n") == 118
        spawned = self.spawn_to_file(tmp_path, "-m", "sparsegroup", "classify", "--file", str(gap_file))
        assert spawned == (0, out.encode(), "")

    def test_atexit_handlers_run_after_the_output(self, capsys, tmp_path, gap_file):
        _, out, _ = run(capsys, "classify", "--file", str(gap_file))
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit handler ran')\n"
            f"sys.argv = ['sparsegroup', 'classify', '--file', {str(gap_file)!r}]\n"
            "runpy.run_module('sparsegroup', run_name='__main__')\n"
        )
        spawned = self.spawn_to_file(tmp_path, "-c", code)
        assert spawned == (0, out.encode() + b"atexit handler ran\n", "")

    def test_a_failing_check_still_exits_one(self, tmp_path):
        spawned = self.spawn_to_file(tmp_path, "-m", "sparsegroup", "check", "--hyperelliptic", "--gaps", "1,2,4")
        record = b'{"predicate": "hyperelliptic", "gaps": [1, 2, 4], "result": false}\n'
        assert spawned == (1, record, "")
