"""Command-line behaviour: formats, flags, exit codes."""

from __future__ import annotations

import csv
import json
import time

import pytest

import chromatic_zagreb.cli as cli
from chromatic_zagreb import coloring


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "complete:4")
        assert code == 0
        d = json.loads(out)
        assert d["cm2_min"] == d["cm2_max"] == 35
        assert d["semantics_used"] == "all" and d["status"] == "exact"

    def test_star_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "star:5")
        d = json.loads(out)
        assert (d["cm1_min"], d["cm1_max"]) == (8, 17)

    def test_paper_compat(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "path:1",
                               "--paper-compat", "on")
        d = json.loads(out)
        assert d["cm3_min"] == 1 and d["paper_compat_defaults_applied"]

    def test_witness_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "path:3", "--witness")
        d = json.loads(out)
        assert d["witnesses"]["cm1_min"] == [1, 2, 1]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "path:4",
                               "--format", "csv")
        header, row = out.strip().split("\n")
        assert header.startswith("label,order,size,m1")
        assert row.startswith("path:4,4,3,")

    @pytest.mark.parametrize("spec,label", [
        ("multipartite:1,2", "complete_multipartite:1,2"),
        ("caterpillar:2,0,3", "caterpillar:2,0,3"),
    ])
    def test_csv_labels_with_commas_stay_one_cell(self, capsys, spec, label):
        code, out, _ = run_cli(capsys, "compute", "--family", spec, "--format", "csv")
        header, row = csv.reader(out.splitlines())
        assert code == 0 and len(row) == len(header) == 16
        assert row[0] == label and row[-4:] == ["all", "false", "true", "exact"]

    def test_semantics_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "cycle:5",
                               "--semantics", "permutation")
        d = json.loads(out)
        assert d["semantics_used"] == "permutation"

    def test_input_file_dispatch(self, capsys, tmp_path):
        g6 = tmp_path / "k5.g6"
        g6.write_text("D~{\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(g6))
        assert code == 0 and json.loads(out)["order"] == 5

        txt = tmp_path / "p3.txt"
        txt.write_text("0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(txt))
        assert json.loads(out)["size"] == 2

        col = tmp_path / "p3.col"
        col.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(col))
        assert json.loads(out)["size"] == 2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "compute", "--family", "path:3",
                               "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["cm1_max"] == 9

    def test_conflicting_sources_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute", "--family", "path:3", "--input", "x.g6")
        assert exc.value.code == 1

    def test_missing_source_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "compute")
        assert exc.value.code == 1

    def test_malformed_file_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 0\n")
        code, _, err = run_cli(capsys, "compute", "--input", str(bad))
        assert code == 2 and "duplicate" in err

    def test_unknown_extension(self, capsys, tmp_path):
        f = tmp_path / "graph.xyz"
        f.write_text("0 1\n")
        code, _, err = run_cli(capsys, "compute", "--input", str(f))
        assert code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", "--input", str(tmp_path / "no.g6"))
        assert code == 2

    def test_bad_family_spec(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "wheel:4")
        assert code == 2

    def test_deep_path_runs_without_recursion(self, capsys):
        # a frontier of width 1: the frontier DP makes it exact
        code, out, _ = run_cli(capsys, "compute", "--family", "path:1500")
        assert code == 0
        assert json.loads(out)["status"] == "exact"

    def test_large_odd_cycles_get_a_canonical_partition(self, capsys):
        # cycle:1501 has a frontier of width 2, so the frontier DP answers it
        code, out, _ = run_cli(capsys, "compute", "--family", "cycle:1501")
        assert code == 0
        d = json.loads(out)
        assert d["semantics_used"] == "all" and d["status"] == "exact"
        assert (d["cm1_min"], d["cm1_max"], d["cm3_min"], d["cm3_max"]) == (3759, 9751, 1502, 3000)
        # the thorn's pendants come after the whole base, but the DP's
        # greedy order places each by its base vertex: width 2
        code, out, _ = run_cli(capsys, "compute", "--family", "thorn(cycle:501;2)")
        assert code == 0
        d = json.loads(out)
        assert d["semantics_used"] == "all" and d["status"] == "exact"
        assert (d["cm1_min"], d["cm1_max"]) == (3761, 10267)

    def test_strict_budget_exit(self, capsys):
        # a greedy frontier of width 6: the partition walk's share of the
        # meter, 7**6 * 14 units, is all of it, and the walk meets the cap
        code, out, _ = run_cli(capsys, "compute", "--family", "thorn(complete:7;1)", "--strict")
        assert code == 4
        assert json.loads(out)["status"] == "bounds_only"

    def test_thorn_of_k4_is_exact_in_seconds(self, capsys):
        # 16 vertices, frontier width 4: the partition walk ran out its cap
        # after most of a minute and reported cm3 as (25, 37)
        code, out, _ = run_cli(capsys, "compute", "--family", "thorn(complete:4;3)")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["semantics_used"] == "all"
        assert (d["cm1_min"], d["cm1_max"]) == (51, 201)
        assert (d["cm3_min"], d["cm3_max"]) == (22, 40)

    def test_wide_thorn_stops_at_the_work_cap(self, capsys, meters):
        # greedy frontier width 6: the partition walk's share of the call's
        # meter, 7**6 * 14 units, is all of it. The walk and its scoring stop
        # at the cap, the DP at its first layer, and the canonical partition
        # is scored on a fresh meter; a unit of the walk cost about 0.23 us
        # on 2 cores, so the bound allows over ten times that for both caps
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compute", "--family", "thorn(complete:7;1)")
        took = time.perf_counter() - start
        assert code == 0 and json.loads(out)["status"] == "bounds_only"
        call, walk, canonical = meters
        assert walk.left < 0 and call.left < 0 and 0 < canonical.spent < 1000
        assert took < 2 * coloring.WORK_CAP * 5e-6

    def test_large_clique_permutation_is_exact(self, capsys):
        # every class of K12 is a twin of every other: one labeling to score
        code, out, _ = run_cli(capsys, "compute", "--family", "complete:12",
                               "--semantics", "permutation")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["semantics_used"] == "permutation"
        assert d["cm1_min"] == d["cm1_max"] == 650


class TestCountArguments:
    @pytest.mark.parametrize("argv", [
        ("family", "complete:4", "--oracle-max-order", "two"),
        ("verify", "--claims", "obs-i", "--max-order", "two"),
        ("verify", "--claims", "obs-i", "--random-graphs", "1.5"),
        ("verify", "--claims", "obs-i", "--max-order", "-1"),
        ("verify", "--claims", "obs-i", "--random-graphs", "-1"),
        ("verify", "--claims", "obs-i", "--random-trees", "-1"),
        ("verify", "--claims", "obs-i", "--samples", "-2"),
        ("verify", "--claims", "obs-i", "--tree-max-order", "-1"),
        ("family", "complete:4", "--oracle-max-order", "-1"),
        ("verify", "--claims", "obs-i", "--samples", "x"),
    ])
    def test_negative_or_non_integer_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "non-negative integer" in err or "invalid int value" in err

    def test_zero_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "family", "complete:4", "--oracle-max-order", "0",
                               "--format", "json")
        assert code == 0 and all(r["oracle"] is None for r in json.loads(out))


class TestFamily:
    def test_multipartite_table(self, capsys):
        code, out, _ = run_cli(capsys, "family", "multipartite:1,1,1",
                               "--variant", "both")
        assert code == 0
        assert "as_printed" in out and "corrected" in out and "enumeration" in out

    def test_tree_values(self, capsys):
        code, out, _ = run_cli(capsys, "family", "tree:10", "--format", "json")
        recs = json.loads(out)
        assert recs[0]["cm1_min"] == 13 and recs[0]["cm1_max"] == 37
        assert recs[0]["cm2_min"] == 18 and recs[0]["cm3_min"] == 9

    def test_equal_multipartite_both_variants(self, capsys):
        code, out, _ = run_cli(capsys, "family", "equal-multipartite:1,3",
                               "--format", "json")
        recs = {r["formula_variant"]: r for r in json.loads(out)}
        assert recs["as_printed"]["cm3_min"] == 6
        assert recs["corrected"]["cm3_min"] == 4
        assert recs["corrected"]["oracle"]["cm3_min"] == 4

    def test_thorn(self, capsys):
        code, out, _ = run_cli(capsys, "family", "thorn(path:4;1)", "--format", "json")
        recs = json.loads(out)
        assert recs[0]["cm1_min"] == 20
        assert recs[0]["oracle"]["cm1_min"] == 20

    def test_records_validate_against_schema(self, capsys, schema_validator):
        for spec in ("complete:4", "tree:8", "multipartite:1,2,2",
                     "equal-multipartite:2,3", "thorn(star:4;1)"):
            code, out, _ = run_cli(capsys, "family", spec, "--format", "json")
            assert code == 0
            for rec in json.loads(out):
                schema_validator(rec, "family_record.schema.json")

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "family", "complete:4", "--format", "csv")
        assert out.splitlines()[0].startswith("label,formula_variant")

    # caterpillars have closed forms only as the base of a thorn graph
    @pytest.mark.parametrize("spec,label,status", [
        ("multipartite:1,2", "complete_multipartite:1,2", "exact"),
        ("thorn(caterpillar:2,0,3;1)", "thorn(caterpillar:2,0,3;1)", ""),
    ])
    def test_csv_labels_with_commas_stay_one_cell(self, capsys, spec, label, status):
        code, out, _ = run_cli(capsys, "family", spec, "--format", "csv")
        header, *rows = csv.reader(out.splitlines())
        assert code == 0 and len(header) == 16 and header[-1] == "oracle_status"
        assert [r[:2] for r in rows] == [[label, "as_printed"], [label, "corrected"]]
        for row in rows:
            assert len(row) == len(header) and row[-1] == status

    def test_oracle_status_marks_bounds(self, capsys, monkeypatch):
        # past the cap the enumeration column holds the canonical
        # partition's values: valid colorings, not the extrema
        monkeypatch.setattr(coloring, "WORK_CAP", 5)
        code, out, _ = run_cli(capsys, "family", "complete:4", "--format", "json")
        assert code == 0
        assert [r["oracle"]["status"] for r in json.loads(out)] == ["bounds_only"] * 2
        code, out, _ = run_cli(capsys, "family", "complete:4")
        assert "enumeration (bounds_only)" in out.splitlines()[1]
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "family", "complete:4")
        assert out.splitlines()[1].split()[-1] == "enumeration"

    def test_unsupported_kind(self, capsys):
        code, _, err = run_cli(capsys, "family", "cycle:5")
        assert code == 2 and "no closed forms" in err

    def test_parameter_validation(self, capsys):
        for spec in ("multipartite:3,1", "complete:abc", "tree:abc", "complete:0"):
            code, _, err = run_cli(capsys, "family", spec)
            assert code == 2, spec
            assert "invalid literal" not in err


class TestStability:
    def test_line_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--family",
                               "complete-bipartite:2,3")
        assert code == 0 and "unstable" in out

        code, out, _ = run_cli(capsys, "stability", "--family", "path:4")
        assert "stable" in out and "rho=1" in out

        code, out, _ = run_cli(capsys, "stability", "--family", "complete:5")
        assert "perfectly stable" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--family", "path:4",
                               "--format", "json")
        d = json.loads(out)
        assert d["stable"] is True and d["rho"] == 1

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "stab.json"
        run_cli(capsys, "stability", "--family", "cycle:6", "--out", str(dest))
        assert json.loads(dest.read_text())["rho"] == 3


class TestVerify:
    def test_observations_clean_exit(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--claims", "obs-i..obs-xii",
                                 "--max-order", "4")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["verified"] == 12
        assert "verified 12" in err

    def test_unknown_claim(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claims", "nonsense")
        assert code == 1 and "unknown claim id" in err

    def test_out_file_and_summary_line(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--claims", "obs-i",
                               "--out", str(dest))
        assert code == 0 and "verified 1" in out
        assert json.loads(dest.read_text())["summary"]["verified"] == 1

    def test_strict_flags_budget_skips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", "thm-3.4-i",
                               "--max-order", "4", "--strict")
        assert code == 4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", "obs-i",
                               "--format", "csv")
        assert out.startswith("claim_id,instance")

    def test_must_hold_failure_exit_code(self, capsys, monkeypatch):
        from chromatic_zagreb.verify import ClaimResult

        def fake_run_claims(config, selection):
            return [ClaimResult("oracle-extrema", "g", "x", "y",
                                "counterexample", True)]

        monkeypatch.setattr(cli, "run_claims", fake_run_claims)
        code, _, err = run_cli(capsys, "verify", "--claims", "oracle-extrema")
        assert code == 3 and "must-hold failures" in err

    def test_help_lists_claim_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cid in ("obs-i", "obs-xii", "lem-3.2-ii-min-printed", "thm-4.4",
                    "oracle-extrema"):
            assert cid in out
