"""Command-line behaviour: formats, flags, exit codes."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

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

    @pytest.mark.parametrize("command", ["compute", "stability"])
    @pytest.mark.parametrize("name", ["x.g6", "x.txt"])
    def test_non_utf8_file_parse_error(self, capsys, tmp_path, command, name):
        f = tmp_path / name
        f.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(capsys, command, "--input", str(f))
        assert code == 2 and str(f) in err and "decode" in err

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
        # meter, 7**6 * 14 units, is all the chi search left of it. The walk
        # and its scoring stop at the cap, the DP is left no units and not
        # run, and the canonical partition is built and scored on a fresh
        # meter; a unit of the walk cost about 0.3 us on 2 cores, so the
        # bound allows over ten times that for both caps
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compute", "--family", "thorn(complete:7;1)")
        took = time.perf_counter() - start
        assert code == 0 and json.loads(out)["status"] == "bounds_only"
        call, walk, canonical = meters
        assert walk.left < 0 and call.left == 0 and 0 < canonical.spent < 1000
        assert took < 2 * coloring.WORK_CAP * 5e-6

    def test_large_clique_permutation_is_exact(self, capsys):
        # every class of K12 is a twin of every other: one labeling to score
        code, out, _ = run_cli(capsys, "compute", "--family", "complete:12",
                               "--semantics", "permutation")
        assert code == 0
        d = json.loads(out)
        assert d["status"] == "exact" and d["semantics_used"] == "permutation"
        assert d["cm1_min"] == d["cm1_max"] == 650


class TestWorkCapExit:
    """A search past the work cap, or an input past memory, exits 4
    before any report."""

    @pytest.fixture
    def dense_input(self, tmp_path):
        # G(70, 1/2): its chi search passes the default cap after 12-21 s
        rng = random.Random(1)
        path = tmp_path / "g70.txt"
        path.write_text("".join(f"{u} {v}\n" for u in range(70) for v in range(u + 1, 70)
                                if rng.random() < 0.5))
        return str(path)

    @pytest.mark.parametrize("command", ["compute", "stability"])
    def test_chi_search_past_the_cap(self, capsys, monkeypatch, dense_input, command):
        monkeypatch.setattr(coloring, "WORK_CAP", 5_000)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--input", dense_input)
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_BUDGET == 4 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("czi: ")
        assert "5000 units" in err and "Traceback" not in err

    def test_canonical_partition_past_the_cap(self, capsys, monkeypatch, meters):
        # the chi search takes 120 units of the call's meter and the
        # canonical partition 988 of a fresh one: past this cap
        monkeypatch.setattr(coloring, "WORK_CAP", 500)
        code, out, err = run_cli(capsys, "compute", "--family", "multipartite:20,20,20",
                                 "--semantics", "permutation")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("czi: ")
        call, canonical = meters
        assert call.spent == 120 and canonical.left < 0

    def test_input_too_large_to_hold(self, tmp_path):
        # the child caps its own address space at 1 GB before it reads the
        # header, so the billion-vertex graph fails to allocate there
        path = tmp_path / "big.txt"
        path.write_text("n=1000000000\n0 1\n", encoding="utf-8")
        child = ("import resource, sys\n"
                 "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
                 "from chromatic_zagreb import cli\n"
                 "raise SystemExit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", child, "compute", "--input", str(path)],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
        assert time.perf_counter() - start < 2
        assert proc.returncode == cli.EXIT_BUDGET and proc.stdout == ""
        assert proc.stderr == "czi: out of memory before any report\n"


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
        # partition's values: valid colorings, not the extrema. The chi
        # search of K4 takes all 8 units of this cap
        monkeypatch.setattr(coloring, "WORK_CAP", 8)
        code, out, _ = run_cli(capsys, "family", "complete:4", "--format", "json")
        assert code == 0
        assert [r["oracle"]["status"] for r in json.loads(out)] == ["bounds_only"] * 2
        code, out, _ = run_cli(capsys, "family", "complete:4")
        assert "enumeration (bounds_only)" in out.splitlines()[1]
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "family", "complete:4")
        assert out.splitlines()[1].split()[-1] == "enumeration"

    def test_thorn_on_an_inexact_base_exits_4(self, capsys):
        # the base's report is bounds_only past the work cap (its cm2 comes
        # from the identity and reversed labelings), so it gives no forms
        code, out, err = run_cli(capsys, "family", "thorn(multipartite:1,2,3,4,5,6,7,8,9,10;1)")
        assert code == cli.EXIT_BUDGET == 4 and out == ""
        assert err == ("czi: the thorn base's extrema are bounds_only; "
                       "the thorn forms need exact ones\n")

    def test_unsupported_kind(self, capsys):
        code, _, err = run_cli(capsys, "family", "cycle:5")
        assert code == 2 and "no closed forms" in err

    def test_parameter_validation(self, capsys):
        for spec in ("multipartite:3,1", "complete:abc", "tree:abc", "complete:0",
                     "tree:3", "thorn(complete:1;2)", "thorn(star:1;2)"):
            code, _, err = run_cli(capsys, "family", spec)
            assert code == 2, spec
            assert "invalid literal" not in err
            assert err.startswith("czi: ") and err.count("\n") == 1, spec


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

    def test_alpha_bound_proves_a_long_path(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--family", "path:1500",
                               "--format", "json")
        d = json.loads(out)
        assert code == 0 and (d["rho"], d["rho_status"]) == (561_001, "exact")

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

    def test_strict_flags_budget_skips(self, capsys, monkeypatch):
        from chromatic_zagreb import verify
        real = verify.full_report
        monkeypatch.setattr(verify, "full_report", lambda g, **kw: dataclasses.replace(
            real(g, **kw), status="bounds_only"))
        argv = ("verify", "--claims", "thm-4.2-i", "--max-order", "4")
        assert run_cli(capsys, *argv)[0] == 0
        code, _, err = run_cli(capsys, *argv, "--strict")
        assert code == 4 and "verified 0, counterexample 0, skipped 43" in err

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

    @pytest.mark.parametrize("option,value", [("--tree-max-order", "60"),
                                              ("--tree-max-order", "3"),
                                              ("--max-order", "0")])
    def test_order_out_of_range_is_usage_error(self, capsys, option, value):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--claims", "obs-i", option, value)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("czi: ") and err.count("\n") == 1 and value in err

    def test_help_lists_claim_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cid in ("obs-i", "obs-xii", "lem-3.2-ii-min-printed", "thm-4.4",
                    "oracle-extrema"):
            assert cid in out


@pytest.mark.parametrize("argv", [
    ("compute", "--family", "path:3"),
    ("family", "complete:4"),
    ("stability", "--family", "path:3"),
    ("verify", "--claims", "obs-i"),
])
def test_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    def refused(*args):
        raise AssertionError("the claims ran before the output path was checked")

    monkeypatch.setattr(cli, "run_claims", refused)
    for dest in (tmp_path, tmp_path / "missing" / "x.json"):
        code, _, err = run_cli(capsys, *argv, "--out", str(dest))
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"czi: cannot write {dest}: ") and err.count("\n") == 1


def test_readme_names_every_exit_code():
    # the sentence after "Exit codes:" names each code with its constant
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Exit codes:(.*?)\.(\s|$)", readme, re.S).group(1)
    pairs = re.findall(r"(\d+)\s[^,;]*?\(`(\w+)`\)", sentence)
    named = {name: int(code) for code, name in pairs}
    constants = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert named == constants


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # a subcommand's parser is named "czi <command>"; the top-level one is "czi"
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (("compute", "--family", "path:3"), ("family", "complete:3")):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert built.count("czi") <= 1


def test_readme_package_layout_names_every_module():
    # the block after "## Package layout" lists one module per line
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Package layout\s*```\n(.*?)```", readme, re.S).group(1)
    named = re.findall(r"^\s+(\w+\.py)\s", block, re.M)
    modules = sorted(p.name for p in (root / "src" / "chromatic_zagreb").glob("*.py"))
    assert sorted(named) == [m for m in modules if m != "__init__.py"]
