"""The benchmark harness still runs against the package.

perfbench/spans.py rebinds package names (``_sweep``,
``canonical_partition``, ``stability_number_bruteforce``, ...) to trace
them; its self-test fails when one of them is renamed or deleted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout
