from __future__ import annotations

import json

import pytest

from sparsegroup import enumeration, is_arf_double, is_kappa_sparse, is_pure_kappa_sparse
from sparsegroup.cli import main


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

    def test_invalid_gap_list_diagnostic(self, capsys):
        code, _, err = run(capsys, "info", "--gaps", "1,3,4")
        assert code == 2
        assert "1,3,4" in err

    def test_bad_file_line_is_named(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("1,2\n1,3,4\n", encoding="utf-8")
        code, _, err = run(capsys, "info", "--file", str(path))
        assert code == 2
        assert "line 2" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "info", "--gaps", "1,2,4")
        _, second, _ = run(capsys, "info", "--gaps", "1,2,4")
        assert first == second


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
        code, _, err = run(capsys, "check", "--kappa", "0", "--gaps", "1")
        assert code == 2
        assert "kappa" in err

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

    @pytest.mark.parametrize("flags", [(), ("--kappa", "3")])
    def test_census_tsv_builds_no_leap_profiles(self, capsys, monkeypatch, flags):
        """The TSV table has no profile column, so the census must not count leaps for it."""

        def refuse(counts, jump):
            raise AssertionError("leap counts built for a TSV census")

        monkeypatch.setattr(enumeration, "_add_leap", refuse)
        code, out, _ = run(capsys, "enumerate", "--genus", "6", "--census", "--format", "tsv", *flags)
        assert code == 0
        assert [int(line.split("\t")[1]) for line in out.splitlines()[1:]] == (
            [1, 1, 2, 4, 7, 12, 23] if not flags else [1, 1, 2, 4, 6, 9, 15]
        )

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


class TestEntryPoint:
    def test_module_invocation(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "sparsegroup", "info", "--gaps", "1,2,4"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["genus"] == 3
