"""tools/source_lines.py, which gives ROADMAP's source-size figure, and
tools/report_diff.py, which compares the reports of two checkouts."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "source_lines.py"
REPORT_DIFF = ROOT / "tools" / "report_diff.py"


def run_tool(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(root)],
                          capture_output=True, text=True)


def test_counts_code_and_docstring_lines_only(tmp_path):
    package = tmp_path / "src" / "chromatic_zagreb"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""A docstring\n'          # 1
        'on two lines."""\n'        # 2
        "\n"
        "# a comment\n"
        "    # an indented comment\n"
        "   \n"
        "import os  # a trailing comment keeps its line\n"  # 3
        "\n"
        "def f():\n"                # 4
        "    return os.sep\n",      # 5
        encoding="utf-8")
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")  # 6
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("y = 2\n", encoding="utf-8")
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "6\n"


def test_root_without_package_sources_exits_1(tmp_path):
    proc = run_tool(tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"no package sources under {tmp_path}\n"


def run_report_diff(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPORT_DIFF), *map(str, args)],
                          capture_output=True, text=True)


def test_report_diff_of_a_tree_against_itself_exits_0():
    proc = run_report_diff(ROOT, ROOT, "--count", 3, "--seed", 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    digest, root = lines[0].split(" ", 1)
    assert len(digest) == 64 and root == str(ROOT)


def test_report_diff_of_a_missing_root_exits_2(tmp_path):
    proc = run_report_diff(ROOT, tmp_path / "missing")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"report_diff: no package sources under {tmp_path / 'missing'}\n"


def test_report_diff_prints_the_first_difference_and_exits_1(tmp_path):
    # a copy of the package whose reports all carry another label
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "chromatic_zagreb" / "indices.py", "a", encoding="utf-8") as fh:
        fh.write("\n_report = full_report\n\n\n"
                 "def full_report(*args, **kwargs):\n"
                 "    from dataclasses import replace\n"
                 "    return replace(_report(*args, **kwargs), label='changed')\n")
    proc = run_report_diff(ROOT, tmp_path, "--count", 1)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and lines[0].split()[0] != lines[1].split()[0]
    # both semantics of the random graph and the six families; verify
    # reports carry no label
    assert lines[2] == "14 lines differ"
    assert lines[3].startswith(f"{ROOT}: ") and '"label": null' in lines[3]
    assert lines[4].startswith(f"{tmp_path}: ") and '"label": "changed"' in lines[4]


def test_report_diff_writes_one_line_per_verify_row(tmp_path):
    # a copy of the package whose verify rows for obs-i and obs-ii carry
    # another expected string, at both verify seeds
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "chromatic_zagreb" / "verify.py", "a", encoding="utf-8") as fh:
        fh.write("\n_run_claims = run_claims\n\n\n"
                 "def run_claims(*args, **kwargs):\n"
                 "    return [dataclasses.replace(r, expected='changed')\n"
                 "            if r.claim_id in ('obs-i', 'obs-ii') else r\n"
                 "            for r in _run_claims(*args, **kwargs)]\n")
    proc = run_report_diff(ROOT, tmp_path, "--count", 0)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and lines[2] == "4 lines differ"
    case = '{"case": "czi verify --seed 0 obs-i|path:1", "result": {'
    assert lines[3].startswith(f"{ROOT}: {case}") and len(lines[3]) < 1000
    assert lines[4].startswith(f"{tmp_path}: {case}") and '"expected": "changed"' in lines[4]
