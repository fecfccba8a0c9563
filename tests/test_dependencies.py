"""The package runs on the standard library alone (pyproject: dependencies = [])."""

from __future__ import annotations

import ast
import sys
from importlib import resources


def test_package_imports_only_the_standard_library():
    sources = [f for f in resources.files("chromatic_zagreb").iterdir()
               if f.name.endswith(".py")]
    assert len(sources) > 10
    for f in sources:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{f.name}: {ast.unparse(node)}"
