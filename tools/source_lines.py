"""Print the source size of the package: the non-blank lines of
src/chromatic_zagreb/*.py that are not comment lines, docstrings included.

Usage:

    python3 tools/source_lines.py [ROOT]

ROOT is a checkout of the repository, this one by default.
"""

from __future__ import annotations

import sys
from pathlib import Path


def source_lines(path: Path) -> int:
    """The lines of path that hold something other than a comment."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "chromatic_zagreb").glob("*.py"))
    if not files:
        print(f"no package sources under {root}", file=sys.stderr)
        return 1
    print(sum(source_lines(path) for path in files))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
