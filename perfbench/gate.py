"""Output gate: check every op of a run and classify it as failed, inexact or fine.

Witnesses are re-checked with the benchmark's own index evaluator; values
are compared with reference answers recorded from the program (see
record_references.py). An exact reference value must be matched exactly;
an inexact reference result may become exact.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"
INEXACT_RHO = ("upper_bound", "unknown_budget")


def load_reference(workload: str) -> dict:
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def evaluate(index: int, colors: list[int], edges) -> int:
    if index == 1:
        return sum(c * c for c in colors)
    if index == 2:
        return sum(colors[u] * colors[v] for u, v in edges)
    return sum(abs(colors[u] - colors[v]) for u, v in edges)


def witness_problems(report: dict, order: int, edges) -> list[str]:
    """Each witness must be proper, surjective onto 1..k for one k shared by
    all six, and evaluate to its reported value; min <= max per index."""
    problems = []
    palettes = set()
    for index in (1, 2, 3):
        if report[f"cm{index}_min"] > report[f"cm{index}_max"]:
            problems.append(f"cm{index} min > max")
        for key in (f"cm{index}_min", f"cm{index}_max"):
            w = report.get("witnesses", {}).get(key)
            if w is None or len(w) != order:
                problems.append(f"{key}: witness missing or wrong length")
                continue
            if any(w[u] == w[v] for u, v in edges):
                problems.append(f"{key}: witness not proper")
            k = max(w)
            if set(w) != set(range(1, k + 1)):
                problems.append(f"{key}: witness not onto 1..{k}")
            palettes.add(k)
            if evaluate(index, w, edges) != report[key]:
                problems.append(f"{key}: witness evaluates to "
                                f"{evaluate(index, w, edges)}, reported {report[key]}")
    if len(palettes) > 1:
        problems.append(f"witnesses use different palettes {sorted(palettes)}")
    return problems


VALUE_KEYS = ("cm1_min", "cm1_max", "cm2_min", "cm2_max", "cm3_min", "cm3_max")


def index_reference_problems(report: dict, ref: dict) -> list[str]:
    problems = [f"{k} {report[k]} != reference {ref[k]}"
                for k in ("order", "size", "m1", "m2", "m3") if report[k] != ref[k]]
    palette = max(report["witnesses"]["cm1_min"] or [0])
    if palette != ref["chi"]:
        problems.append(f"witness palette {palette} != reference chi {ref['chi']}")
    if ref["status"] == "exact":
        if report["status"] != "exact":
            problems.append(f"status {report['status']}, reference exact")
        problems += [f"{k} {report[k]} != reference {ref[k]}"
                     for k in VALUE_KEYS if report[k] != ref[k]]
    return problems


def index_reference(report: dict) -> dict:
    keep = ("order", "size", "m1", "m2", "m3", "status") + VALUE_KEYS
    return {**{k: report[k] for k in keep}, "chi": max(report["witnesses"]["cm1_min"])}


def stability_problems(out: dict, ref: dict) -> list[str]:
    problems = [f"{k} {out[k]} != reference {ref[k]}"
                for k in ("order", "size", "chi", "stable", "perfectly_stable", "connected")
                if out[k] != ref[k]]
    status = ref["rho_status"]
    if status == "exact" and (out["rho_status"] != "exact" or out["rho"] != ref["rho"]):
        problems.append(f"rho {out['rho']} ({out['rho_status']}), reference {ref['rho']} exact")
    elif status == "upper_bound" and (out["rho"] is None or out["rho"] > ref["rho"]):
        problems.append(f"rho {out['rho']} above the reference upper bound {ref['rho']}")
    elif status == "not_applicable" and out["rho_status"] != "not_applicable":
        problems.append(f"rho_status {out['rho_status']}, reference not_applicable")
    return problems


# ---------------------------------------------------------------------------
# per workload: each returns (ops, failures, inexact) where failures maps an
# op name to its problems


def check_verify(seed: int, outcome: dict, tiny: bool, ref: dict):
    by_seed = ref.get(str(seed))
    if "error" in outcome:
        ops = by_seed["instances"] if by_seed and not tiny else 1
        return ops, {"run_claims": [outcome["error"]]}, 0
    failures: dict[str, list[str]] = {}
    inexact = 0
    for r in outcome["results"]:
        key = verdict_key(r)
        if r["verdict"] == "skipped_budget":
            inexact += 1
        if r["must_hold"] and r["verdict"] != "verified":
            failures.setdefault(key, []).append(f"must-hold claim {r['verdict']}")
        if by_seed is not None:
            want = by_seed["verdicts"].get(key)
            if want is None:
                failures.setdefault(key, []).append("instance not in the reference")
            elif want != "skipped_budget" and r["verdict"] != want:
                failures.setdefault(key, []).append(f"{r['verdict']}, reference {want}")
    ops = len(outcome["results"])
    if by_seed is not None and not tiny:
        missing = set(by_seed["verdicts"]) - {verdict_key(r) for r in outcome["results"]}
        for key in sorted(missing):
            failures[key] = ["reference instance missing"]
        ops += len(missing)
    return ops, failures, inexact


def verdict_key(r: dict) -> str:
    return f"{r['claim_id']}|{r['instance']}"


def check_extrema(seed: int, outcomes: list[dict], tiny: bool, ref: dict):
    failures: dict[str, list[str]] = {}
    inexact = 0
    for o in outcomes:
        if "error" in o:
            failures[o["label"]] = [o["error"]]
            continue
        report = o["report"]
        if report["status"] != "exact":
            inexact += 1
        problems = witness_problems(report, o["order"], o["edges"])
        if not problems:
            problems = index_reference_problems(report, ref[o["label"]])
        if problems:
            failures[o["label"]] = problems
    return len(outcomes), failures, inexact


def check_ladder(seed: int, outcomes: list[dict], tiny: bool, ref: dict):
    from chromatic_zagreb import generate, parse_family_spec

    failures: dict[str, list[str]] = {}
    inexact = 0
    for o in outcomes:
        out = o["output"]
        if o["exit"] != 0 or not isinstance(out, dict):
            failures[o["op"]] = [f"exit {o['exit']}, output parsed: {out is not None}"]
            continue
        want = ref.get(o["op"])
        if o["kind"] == "stability":
            if out["rho_status"] in INEXACT_RHO:
                inexact += 1
            problems = stability_problems(out, want) if want else ["op not in the reference"]
        else:
            if out["status"] != "exact":
                inexact += 1
            g = generate(parse_family_spec(o["spec"]))
            problems = witness_problems(out, g.order, g.edges)
            if not problems:
                problems = (index_reference_problems(out, want) if want
                            else ["op not in the reference"])
        if problems:
            failures[o["op"]] = problems
    return len(outcomes), failures, inexact


CHECKS = {
    "verify-catalog": check_verify,
    "extrema-stream": check_extrema,
    "family-ladder": check_ladder,
}


def check(workload: str, seed: int, outcomes, tiny: bool):
    return CHECKS[workload](seed, outcomes, tiny, load_reference(workload))


def reference_of(workload: str, outcomes) -> dict:
    """The reference answers one run's outcomes record (seed-keyed for
    verify-catalog, whose instances change with the seed)."""
    if workload == "verify-catalog":
        results = outcomes["results"]
        return {"instances": len(results),
                "verdicts": {verdict_key(r): r["verdict"] for r in results}}
    if workload == "extrema-stream":
        return {o["label"]: index_reference(o["report"]) for o in outcomes}
    return {o["op"]: (o["output"] if o["kind"] == "stability"
                      else index_reference(o["output"])) for o in outcomes}
