"""tools/source_lines.py, which gives ROADMAP's source-size figure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "source_lines.py"


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
