"""Compare the reports of two checkouts of the repository.

Usage:

    python3 tools/report_diff.py OLD_ROOT NEW_ROOT [--count N] [--seed S]

For each ROOT a child process, the two running at once, imports the
package from ROOT/src and writes, one JSON line each, the full_report of
every input with its witnesses under both semantics, then the output
of `czi verify --seed 0` and of `czi verify --seed 1`: one line per
result row, keyed claim_id|instance, and one for the exit code, config
and summary.
The inputs are N random graphs drawn from random.Random(S), of order 6-12
with each pair an edge with a chance drawn from 0.3-0.9, and the named
families below. A report that raises is written as its exception's name.

Prints the sha256 of each tree's lines, then, matching lines by their
case, how many differ (one tree lacking a case counts) and the first that
does. Exits 0 when the trees match, 1 when they differ, and 2 on bad
arguments or a tree whose child process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# the canonical-partition fallback, a walk past its share, the frontier DP,
# a clique's one labeling and a long thorn
FAMILIES = (
    "multipartite:1,2,3,4,5,6,7,8,9,10", "thorn(complete:7;1)", "thorn(complete:5;2)",
    "complete:10", "cycle:17", "thorn(cycle:9;2)",
)


def emit(root: str, count: int, seed: int) -> int:
    """Write the lines of the tree at root to stdout (the child's side)."""
    sys.path.insert(0, str(Path(root) / "src"))
    from chromatic_zagreb import cli
    from chromatic_zagreb.generators import generate, parse_family_spec
    from chromatic_zagreb.graph import Graph
    from chromatic_zagreb.indices import full_report

    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n, p = rng.randint(6, 12), rng.uniform(0.3, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        cases.append((f"random#{i}", Graph(n, edges)))
    cases += [(spec, generate(parse_family_spec(spec))) for spec in FAMILIES]
    for label, g in cases:
        for semantics in ("all", "permutation"):
            try:
                report = full_report(g, semantics).to_json_dict(include_witnesses=True)
            except Exception as exc:
                report = {"error": type(exc).__name__}
            print(json.dumps({"case": f"{label} {semantics}", "report": report}))
    for verify_seed in ("0", "1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--seed", verify_seed])
        case, report = f"czi verify --seed {verify_seed}", json.loads(out.getvalue())
        for row in report.pop("results"):
            print(json.dumps({"case": f"{case} {row['claim_id']}|{row['instance']}",
                              "result": row}))
        print(json.dumps({"case": f"{case} summary", "exit": code, **report}))
    return 0


def run_tree(root: Path, count: int, seed: int) -> list[str]:
    proc = subprocess.run([sys.executable, __file__, "--emit", str(root), str(count), str(seed)],
                          capture_output=True, text=True, cwd=root)
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{root}: {last}")
    return proc.stdout.splitlines()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--emit"]:
        return emit(argv[1], int(argv[2]), int(argv[3]))
    parser = argparse.ArgumentParser(description="Compare the reports of two checkouts.")
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--count", type=int, default=400, help="random graphs (default 400)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random graphs")
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error("--count must be >= 0")
    roots = [args.old_root.resolve(), args.new_root.resolve()]
    for root in roots:
        if not (root / "src" / "chromatic_zagreb").is_dir():
            print(f"report_diff: no package sources under {root}", file=sys.stderr)
            return 2
    try:
        # a thread per child, each draining its own pipes
        with ThreadPoolExecutor(max_workers=2) as pool:
            old, new = pool.map(run_tree, roots, (args.count,) * 2, (args.seed,) * 2)
    except RuntimeError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    for root, lines in zip(roots, (old, new)):
        print(hashlib.sha256("\n".join(lines).encode()).hexdigest(), root)
    if old == new:
        return 0
    old_cases, new_cases = ({json.loads(line)["case"]: line for line in lines}
                            for lines in (old, new))
    cases = [*old_cases, *(case for case in new_cases if case not in old_cases)]
    differ = [case for case in cases if old_cases.get(case) != new_cases.get(case)]
    print(f"{len(differ)} lines differ")
    if differ:  # else the same lines come in another order
        for root, lines in zip(roots, (old_cases, new_cases)):
            print(f"{root}: {lines.get(differ[0], '(no line)')}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
