"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 6 asserts the bipartite stability-number closed form
against the breadth-first oracle exactly as stated; the order-7 double
star refutes that equality (two independent computations agree on 5
against the closed form's 6), so that single criterion fails honestly
rather than being weakened. Details are in the failure message and in
the verification report's prop-4.6 counterexample record.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from chromatic_zagreb.corpus import connected_bipartite_graphs
from chromatic_zagreb.families import complete_graph_forms
from chromatic_zagreb.stability import (
    is_complete_bipartite,
    stability_number_bipartite,
    stability_number_bruteforce,
)
from chromatic_zagreb.verify import CorpusConfig, run_claims

from conftest import cycle, path

DEFAULTS = CorpusConfig()


def _announce(n: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")


class TestAcceptance:
    def test_criterion_1_golden_observations(self):
        t0 = time.time()
        results = run_claims(DEFAULTS, "obs-i..obs-xii")
        elapsed = time.time() - t0
        bad = [r for r in results if r.verdict != "verified"]
        ok = len(results) == 12 and not bad and elapsed < 1.0
        _announce(1, ok, f"12 golden observations exact in {elapsed:.2f}s (< 1s)")
        assert len(results) == 12
        assert not bad, bad
        assert elapsed < 1.0

    def test_criterion_2_complete_graph_dominance(self):
        t0 = time.time()
        results = run_claims(DEFAULTS, "prop-2.1")
        elapsed = time.time() - t0
        orders = {int(r.instance.split(":")[1]) for r in results}
        bad = [r for r in results if r.verdict != "verified"]
        anchor = complete_graph_forms(4)
        ok = (orders == {4, 5, 6, 7, 8} and not bad
              and anchor.m2 == 54 and anchor.cm2 == 35 and elapsed < 5.0)
        _announce(2, ok, f"complete graphs n=4..8 formulas vs enumeration "
                         f"in {elapsed:.2f}s (< 5s)")
        assert orders == {4, 5, 6, 7, 8}
        assert not bad, bad
        assert (anchor.m2, anchor.cm2) == (54, 35)
        assert elapsed < 5.0

    def test_criterion_3_tree_bounds(self):
        t0 = time.time()
        results = run_claims(DEFAULTS, "thm-3.1")
        elapsed = time.time() - t0
        bad = [r for r in results if r.verdict != "verified"]
        random_trees = {r.instance for r in results
                        if r.instance.startswith("random-tree:")}
        paths = {r.instance for r in results if r.instance.startswith("path:")}
        caterpillars = {r.instance for r in results
                        if r.instance.startswith("caterpillar:")}
        stars = {r.instance for r in results if r.instance.startswith("star:")}
        ok = (not bad and len(random_trees) >= 100 and len(paths) == 7
              and len(stars) == 7 and caterpillars and elapsed < 30.0)
        _announce(3, ok, f"{len(results)} tree instances (paths, stars, "
                         f"{len(caterpillars)} caterpillars, {len(random_trees)} "
                         f"random trees, n=4..10) in {elapsed:.1f}s (< 30s)")
        assert not bad, bad[:5]
        assert len(random_trees) >= 100
        assert len(paths) == 7 and len(stars) == 7 and caterpillars
        assert elapsed < 30.0

    def test_criterion_4_oracle_equivalence(self):
        t0 = time.time()
        results = run_claims(DEFAULTS, "oracle-extrema")
        elapsed = time.time() - t0
        bad = [r for r in results if r.verdict != "verified"]
        randoms = [r for r in results if r.instance.startswith("random:")]
        ok = not bad and len(randoms) >= 200 and elapsed < 300.0
        _announce(4, ok, f"engine extrema equal the naive oracle on "
                         f"{len(results)} connected graphs of order <= 7 "
                         f"({len(randoms)} random) in {elapsed:.1f}s (< 5 min)")
        assert not bad, bad[:5]
        assert len(randoms) >= 200
        assert elapsed < 300.0

    def test_criterion_5_tree_minimality(self):
        results = run_claims(DEFAULTS, "thm-4.2")
        bad = [r for r in results if r.verdict != "verified"]
        trees = [r for r in results if "tree=True" in r.expected]
        non_trees = [r for r in results if "tree=False" in r.expected]
        ok = not bad and trees and non_trees
        _announce(5, ok, f"cm2_min >= 2(n-1) and cm3_min >= n-1 with equality "
                         f"exactly on trees, over {len(results)} instances "
                         f"({len(trees)} tree, {len(non_trees)} non-tree)")
        assert trees and non_trees
        assert not bad, bad[:5]

    def test_criterion_6_stability(self):
        t0 = time.time()
        thm44 = run_claims(DEFAULTS, "thm-4.4")
        bad44 = [r for r in thm44 if r.verdict != "verified"]
        assert len(thm44) == 252  # every class of order 2..8 except K2
        assert not bad44, bad44[:5]

        assert stability_number_bipartite(path(4)) == 1
        assert stability_number_bruteforce(path(4)) == 1
        assert stability_number_bipartite(cycle(6)) == 3
        assert stability_number_bruteforce(cycle(6)) == 3

        mismatches = []
        for label, g in connected_bipartite_graphs(7):
            if is_complete_bipartite(g):
                continue
            closed = stability_number_bipartite(g)
            brute = stability_number_bruteforce(g)
            if closed != brute:
                mismatches.append((label, sorted(g.edges), closed, brute))
        elapsed = time.time() - t0
        ok = not mismatches and elapsed < 120.0
        _announce(6, ok, f"characterization exhaustive to order 8 (252 classes, OK); "
                         f"closed-form stability number vs breadth-first oracle on "
                         f"order <= 7: {len(mismatches)} mismatch(es) in {elapsed:.1f}s")
        assert elapsed < 120.0
        assert not mismatches, (
            "the closed form theta1*theta2 - size is not the exact stability "
            "number for every connected non-complete bipartite graph of order "
            f"<= 7: {mismatches}. For the double star the five additions that "
            "join both centers to every other vertex already produce a complete "
            "tripartite graph, which is chromatically unstable, one edge before "
            "the bipartite completion; the closed form only counts the latter. "
            "Verified independently by exhausting all 4-subsets (none work) and "
            "exhibiting a 5-subset, with chromatic numbers recomputed by the "
            "naive assignment filter."
        )

    def test_criterion_7_discrepancy_surfacing(self):
        lem = run_claims(DEFAULTS, "lem-3.2")
        prop = run_claims(DEFAULTS, "prop-3.3")

        printed_min = [r for r in lem if r.claim_id == "lem-3.2-ii-min-printed"]
        k22 = [r for r in printed_min if r.instance == "multipartite:2,2"]
        assert k22 and k22[0].verdict == "counterexample"
        assert "cm2_min=0" in k22[0].expected and "cm2_min=8" in k22[0].actual

        printed_cm3 = [r for r in prop if r.claim_id == "prop-3.3-iii-printed"]
        k3 = [r for r in printed_cm3 if r.instance == "equal-multipartite:1,3"]
        assert k3 and k3[0].verdict == "counterexample"
        assert "6" in k3[0].expected and "cm3=(4,4)" in k3[0].actual

        corrected = [r for r in lem if r.claim_id == "lem-3.2-ii-min-corrected"]
        assert len(corrected) == 31  # all sorted tuples, r in 2..4, parts in 1..3
        assert all(r.verdict == "verified" for r in corrected)
        corrected_cm3 = [r for r in prop if r.claim_id == "prop-3.3-iii-corrected"]
        assert corrected_cm3 and all(r.verdict == "verified" for r in corrected_cm3)

        minmax = [r for r in lem if r.claim_id == "lem-3.2-iii-minmax"
                  and r.instance == "multipartite:1,1,2"]
        assert len(minmax) == 1  # the verdict is recorded either way
        recorded = minmax[0].verdict
        assert recorded == "counterexample" and "cm3=(6,7)" in minmax[0].actual

        _announce(7, True, "printed-variant counterexamples surfaced "
                           "(cm2_min 0 vs 8 on the balanced bipartite instance; "
                           "cm3 6 vs 4 on the triangle), corrected variants "
                           "verified on all 31 instances, min=max verdict at "
                           f"sizes (1,1,2) recorded as {recorded}")

    def test_criterion_8_thorn_formulas(self):
        t0 = time.time()
        results = run_claims(DEFAULTS, "thm-3.4")
        elapsed = time.time() - t0
        assert len(results) == 6 * 4 * 3  # six parts, four bases, m in {0,1,2}
        judged = [r for r in results if r.verdict != "skipped_budget"]
        m0 = [r for r in results if r.instance.endswith(";0)")]
        assert all(r.verdict == "verified" for r in m0), "m=0 must reproduce base"
        # a finding: on thorn(star:4;2) the formulas swap the two cm1 extrema
        bad = {(r.claim_id, r.instance, r.expected, r.actual)
               for r in results if r.verdict == "counterexample"}
        found = {("thm-3.4-i", "thorn(star:4;2)", "cm1_min=33", "cm1_min=27"),
                 ("thm-3.4-ii", "thorn(star:4;2)", "cm1_max=27", "cm1_max=33")}
        ok = len(judged) == len(results) and bad == found and elapsed < 300.0
        _announce(8, ok, f"six thorn formulas on four bases, m in 0..2: "
                         f"{len(judged)} of {len(results)} judged against the engine's "
                         f"exact extrema, all verified but parts i and ii on "
                         f"thorn(star:4;2), recorded as counterexamples (the formula's "
                         f"cm1 (33, 27) against the exact (27, 33)), in {elapsed:.1f}s "
                         f"(< 5 min)")
        assert len(judged) == len(results), [r for r in results if r not in judged]
        assert bad == found, bad
        assert elapsed < 300.0

    def test_criterion_9_deterministic_reports(self, tmp_path):
        args = [
            sys.executable, "-m", "chromatic_zagreb.cli", "verify",
            "--seed", "0", "--max-order", "5", "--random-graphs", "25",
            "--random-trees", "20", "--tree-max-order", "7",
        ]
        runs = []
        for i in (1, 2):
            out = tmp_path / f"report{i}.json"
            proc = subprocess.run(
                args + ["--out", str(out)],
                capture_output=True, text=True, cwd=str(tmp_path),
                env={"PYTHONPATH": _src_path(), "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(out.read_bytes())
        ok = runs[0] == runs[1]
        report = json.loads(runs[0])
        _announce(9, ok, f"two seed-0 verify runs byte-identical "
                         f"({len(runs[0])} bytes, {report['summary']['instances']} "
                         f"instances)")
        assert ok


def _src_path() -> str:
    import chromatic_zagreb

    return str(next(iter(chromatic_zagreb.__path__)) + "/..")
