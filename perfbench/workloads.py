"""The three workloads: seeded inputs, the timed section, and per-op outcomes.

Each workload drives the program only through a public entry point
(verify.run_claims, indices.full_report, cli.main). Inputs are built
before the clock starts; outcomes are turned into plain JSON-able data
after it stops, for the gate to check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# ---------------------------------------------------------------------------
# verify-catalog: the command users run, `czi verify` with the default config


def verify_inputs(seed: int, tiny: bool):
    from chromatic_zagreb.verify import CorpusConfig

    return {"config": CorpusConfig(seed=seed), "selection": "obs" if tiny else "all"}


def verify_run(inputs, clock):
    from chromatic_zagreb import verify

    start = clock()
    try:
        results = verify.run_claims(inputs["config"], inputs["selection"])
    except Exception as exc:  # the whole call is the op batch; the gate counts it
        return clock() - start, None, {"error": repr(exc)}
    wall = clock() - start
    report = verify.build_report(inputs["config"], results)
    return wall, None, {
        "must_hold_failures": report["summary"]["must_hold_failures"],
        "results": [r.to_json_dict() for r in results],
    }


# ---------------------------------------------------------------------------
# extrema-stream: full_report over seeded random connected graphs
#
# The minimum-coloring count, which sets the cost of a graph, ranges over
# five decades across random graphs of order 8-11, so freshly drawn graphs
# would move a run's wall time threefold from seed to seed. The graphs are
# therefore drawn once from a fixed stream, with order and extra-edge
# density drawn independently (every order meets every density level), and
# the run seed draws the order in which they are computed. A seeded vertex
# relabeling was tried and dropped: it keeps the index values but moves a
# single dense graph's search by up to 40%, and one such graph (n11-p77) is
# half of a run, so runs at different seeds differed by a fifth in work.

POPULATION_SEED = 0
ORDERS = (8, 9, 10, 11)
DENSITY_LEVELS = 30  # extra-edge chance in percent, spread evenly over 0..80
MAX_EXTRA_PERCENT = 80


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def population() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(label, order, edges): a random spanning tree on shuffled labels, then
    every other pair with the level's chance."""
    rng = random.Random(POPULATION_SEED)
    out = []
    for n in ORDERS:
        for j in range(DENSITY_LEVELS):
            percent = round(MAX_EXTRA_PERCENT * j / (DENSITY_LEVELS - 1))
            perm = list(range(n))
            rng.shuffle(perm)
            edges = {_pair(perm[i], perm[rng.randrange(i)]) for i in range(1, n)}
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) not in edges and rng.random() * 100 < percent:
                        edges.add((u, v))
            out.append((f"n{n}-p{percent}", n, sorted(edges)))
    return out


def extrema_inputs(seed: int, tiny: bool):
    from chromatic_zagreb import Graph

    graphs = [(label, Graph(n, edges)) for label, n, edges in population()]
    if tiny:
        return graphs[:4]
    random.Random(seed).shuffle(graphs)
    return graphs


def extrema_run(graphs, clock):
    from chromatic_zagreb import indices

    reports, op_times = [], []
    start = clock()
    for _, g in graphs:
        t = clock()
        try:
            reports.append(indices.full_report(g, semantics="all"))
        except Exception as exc:
            reports.append(exc)
        op_times.append(clock() - t)
    wall = clock() - start
    outcomes = []
    for (label, g), r in zip(graphs, reports):
        entry = {"label": label, "order": g.order, "edges": [list(e) for e in g.edges]}
        if isinstance(r, Exception):
            entry["error"] = repr(r)
        else:
            entry["report"] = r.to_json_dict(include_witnesses=True)
        outcomes.append(entry)
    return wall, op_times, outcomes


# ---------------------------------------------------------------------------
# family-ladder: in-process `czi compute|stability --family SPEC`
#
# Named hard instances that take the budget decision, the canonical-
# partition fallback, permutation semantics and the stability search.
# Left out on cost, each being most of a run: path:8/9, cycle:8 and
# caterpillar:1,1,1,1 stability (46-57 s each), cycle:25 (52 s) and
# complete:12 (>120 s); cheaper members show the same defects.
# compute path:1500 is not run either: it raises RecursionError, and the
# ladder holds only ops that complete.

LADDER = (
    [("compute", s) for s in (
        "path:16", "path:24", "path:40", "star:16", "star:30",
        "cycle:13", "cycle:15", "cycle:17", "cycle:19", "cycle:21",
        "complete:7", "complete:8", "complete:9", "multipartite:1,2,3,4",
        "caterpillar:2,0,3,1,2", "thorn(complete:4;2)", "thorn(cycle:5;2)",
    )]
    + [("permutation", s) for s in (
        "complete:8", "cycle:15", "cycle:21", "thorn(cycle:5;2)",
    )]
    + [("stability", s) for s in (
        "path:6", "path:7", "path:10", "cycle:7", "cycle:10", "caterpillar:2,0,3",
        "thorn(complete:3;1)", "complete-bipartite:2,3", "complete:6",
    )]
)
TINY_LADDER = (("compute", "path:16"), ("compute", "complete:7"), ("stability", "path:6"))


def op_key(kind: str, spec: str) -> str:
    return f"{kind} {spec}"


def _argv(kind: str, spec: str) -> list[str]:
    if kind == "stability":
        return ["stability", "--family", spec, "--format", "json"]
    argv = ["compute", "--family", spec, "--witness"]
    if kind == "permutation":
        argv += ["--semantics", "permutation"]
    return argv


def ladder_inputs(seed: int, tiny: bool):
    ops = list(TINY_LADDER if tiny else LADDER)
    random.Random(seed).shuffle(ops)
    return ops


def ladder_run(ops, clock):
    from chromatic_zagreb import cli

    raw, op_times = [], []
    start = clock()
    for kind, spec in ops:
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(_argv(kind, spec))
        except (Exception, SystemExit) as exc:  # argparse rejects by SystemExit
            code = repr(exc)
        op_times.append(clock() - t)
        raw.append((code, out.getvalue()))
    wall = clock() - start
    outcomes = []
    for (kind, spec), (code, text) in zip(ops, raw):
        entry = {"op": op_key(kind, spec), "kind": kind, "spec": spec, "exit": code}
        try:
            entry["output"] = json.loads(text)
        except ValueError:
            entry["output"] = None
        outcomes.append(entry)
    return wall, op_times, outcomes


WORKLOADS = {
    "verify-catalog": (verify_inputs, verify_run),
    "extrema-stream": (extrema_inputs, extrema_run),
    "family-ladder": (ladder_inputs, ladder_run),
}
