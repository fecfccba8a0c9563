"""Claim registry: every quantitative assertion as data, run over seeded corpora.

Each claim owns an id, a one-line statement, a must-hold flag, a corpus
and a check. corpus(config) yields (label, graph, context) for each
instance; check(graph, context) returns (ok, expected, actual, witness),
where ok is a bool or SKIPPED. Claims tagged must-hold (the golden
observation set and the oracle-equivalence suites) gate the process exit
status; the remaining claims record their verdicts, and a counterexample
there is a finding, not a failure of this tool.

Most checks judge an engine report of the corpus graph (_on_report),
the one place that decides that only exact engine values are judged.
Work shared by several instances or claims (reports, corpora, oracle
answers) sits in per-run caches, so each distinct graph is computed once
per run.

Results are deterministic for a fixed CorpusConfig: corpora derive from
SplitMix64 streams seeded per claim, and reports serialize with sorted
keys and stable instance ordering.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable

from . import families
from .coloring import chromatic_number, enumerate_min_colorings
from .corpus import (
    SplitMix64,
    caterpillar_profiles,
    connected_bipartite_graphs,
    family_corpus,
    random_connected_corpus,
    random_connected_graph,
    random_tree_corpus,
    spanning_connected_subgraph,
)
from .generators import FamilySpec, generate, thorn
from .graph import Graph
from .indices import EXTREMA_KEYS, IndexReport, full_report, thorn_base_data
from .oracle import oracle_extrema, oracle_min_colorings
from .stability import (
    StabilityReport,
    is_chromatically_stable,
    is_complete_bipartite,
    stability_number_bipartite,
    stability_report,
)

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
SKIPPED = "skipped_budget"

_ROMAN = ("i", "ii", "iii", "iv", "v", "vi")


class UnknownClaimError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus sizes and seeds for one verify run, and the order bounds of
    the naive oracle and the bipartite corpora."""

    max_order: int = 8
    seed: int = 0
    families: tuple[str, ...] = (
        "path", "cycle", "complete", "star", "complete_multipartite",
        "caterpillar", "thorn",
    )
    random_graph_count: int = 200
    random_tree_count: int = 100
    monotonicity_samples: int = 2
    tree_max_order: int = 10

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be at least 1, got {self.max_order}")
        # the caterpillar profiles double with each tree order, so the cap
        # holds the whole catalog, run in process, to about 0.5 s and
        # 29 MB at 12 (2-core host, Python 3.11)
        if not 4 <= self.tree_max_order <= 12:
            raise ValueError(f"tree_max_order must be between 4 and 12, got {self.tree_max_order}")

    @property
    def oracle_max_order(self) -> int:
        return min(7, self.max_order)

    @property
    def stability_max_order(self) -> int:
        return min(8, self.max_order)

    @property
    def rho_max_order(self) -> int:
        return min(7, self.max_order)

    def to_json_dict(self) -> dict:
        # a JSON array: the report schema rejects a tuple
        return {**dataclasses.asdict(self), "families": list(self.families)}


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    instance: str
    expected: str
    actual: str
    verdict: str
    must_hold: bool
    witness: list | None = None

    def to_json_dict(self) -> dict:
        # shallow on purpose: asdict would deep-copy every witness list
        return dict(vars(self))


@dataclass(frozen=True)
class Claim:
    claim_id: str
    title: str
    must_hold: bool
    runner: Callable[[CorpusConfig], list[ClaimResult]]


def _claim(
    claim_id: str,
    title: str,
    must_hold: bool,
    corpus: Callable[[CorpusConfig], Iterable[tuple[str, Graph, object]]],
    check: Callable[[Graph, object], tuple[bool | str, str, str, list | None]],
) -> Claim:
    """A claim judged by check(graph, context) on every corpus instance."""

    def run(config: CorpusConfig) -> list[ClaimResult]:
        out = []
        for label, g, context in corpus(config):
            ok, expected, actual, witness = check(g, context)
            verdict = SKIPPED if ok == SKIPPED else VERIFIED if ok else COUNTEREXAMPLE
            out.append(ClaimResult(claim_id, label, expected, actual, verdict,
                                   must_hold, witness))
        return out

    return Claim(claim_id, title, must_hold, run)


@functools.lru_cache(maxsize=None)
def _report(g: Graph) -> IndexReport:
    return full_report(g, semantics="all")


def _compat_report(g: Graph) -> IndexReport:
    # the order-1 defaults are part of the observation set
    return full_report(g, paper_compat=True)


def _on_report(
    check: Callable[[IndexReport, object], tuple[bool, str, str, object]],
    report: Callable[[Graph], IndexReport] = _report,
    status: str = "status",
):
    """A check on an engine report of the graph: check(report, context)
    returns (ok, expected, actual, witness), where a str witness names a
    report witness. It runs only when the report's status, and that of an
    IndexReport context (a supergraph's), read exact; otherwise the
    instance is SKIPPED with that status as actual and no witness."""

    def judged(g: Graph, context):
        r = report(g)
        context_status = context.status if isinstance(context, IndexReport) else "exact"
        inexact = [s for s in (getattr(r, status), context_status) if s != "exact"]
        if inexact:
            return SKIPPED, "exact engine values", f"engine status {inexact[0]}", None
        ok, expected, actual, witness = check(r, context)
        if isinstance(witness, str):  # the key of a report witness
            c = r.witnesses.get(witness)
            witness = list(c.assignment) if c is not None else None
        return ok, expected, actual, witness

    return judged


def _fam(kind: str, *sizes: int) -> Graph:
    return generate(FamilySpec(kind, tuple(sizes)))


def _cm(r: IndexReport, k: int) -> str:
    return f"cm{k}=({r.value(f'cm{k}_min')},{r.value(f'cm{k}_max')})"


def _constant(r: IndexReport, k: int, value: int, note: str = ""):
    """Check that cm_k takes the one predicted value over all minimum colorings."""
    ok = r.value(f"cm{k}_min") == r.value(f"cm{k}_max") == value
    return ok, f"cm{k} constant {value}{note}", _cm(r, k), f"cm{k}_min"


# ---------------------------------------------------------------------------
# golden observations

_OBS = (
    # id, family, expected, holds(report)
    ("obs-i", FamilySpec("path", (1,)), "cm1_min=cm1_max=1 > 0=m1",
     lambda r: r.cm1_min == r.cm1_max == 1 and r.m1 == 0),
    ("obs-ii", FamilySpec("path", (2,)), "cm1_min=cm1_max=5 > 2=m1",
     lambda r: r.cm1_min == r.cm1_max == 5 and r.m1 == 2),
    ("obs-iii", FamilySpec("path", (3,)), "cm1_max=9 > 6=m1 and cm1_min=6=m1",
     lambda r: r.cm1_max == 9 and r.cm1_min == 6 and r.m1 == 6),
    ("obs-iv", FamilySpec("complete", (3,)), "cm1_min=cm1_max=14 > 12=m1",
     lambda r: r.cm1_min == r.cm1_max == 14 and r.m1 == 12),
    ("obs-v", FamilySpec("path", (1,)), "cm2_min=cm2_max=0=m2",
     lambda r: r.cm2_min == r.cm2_max == 0 and r.m2 == 0),
    # the companion claim "= m2" does not recompute for this pair of
    # degree-1 endpoints (the edge product is 1); the golden content is
    # the chromatic value
    ("obs-vi", FamilySpec("path", (2,)),
     "cm2_min=cm2_max=2 (m2 recomputes to 1, not the printed 2)",
     lambda r: r.cm2_min == r.cm2_max == 2 and r.m2 == 1),
    ("obs-vii", FamilySpec("path", (3,)), "cm2_min=cm2_max=4=m2",
     lambda r: r.cm2_min == r.cm2_max == 4 and r.m2 == 4),
    ("obs-viii", FamilySpec("complete", (3,)), "cm2_min=cm2_max=11 < 12=m2",
     lambda r: r.cm2_min == r.cm2_max == 11 and r.m2 == 12),
    ("obs-ix", FamilySpec("path", (1,)), "cm3_min=cm3_max=1 > 0=m3",
     lambda r: r.cm3_min == r.cm3_max == 1 and r.m3 == 0),
    ("obs-x", FamilySpec("path", (2,)), "cm3_min=cm3_max=1 > 0=m3",
     lambda r: r.cm3_min == r.cm3_max == 1 and r.m3 == 0),
    ("obs-xi", FamilySpec("path", (3,)), "cm3_min=cm3_max=2=m3",
     lambda r: r.cm3_min == r.cm3_max == 2 and r.m3 == 2),
    ("obs-xii", FamilySpec("complete", (3,)), "cm3_min=cm3_max=4 > 0=m3",
     lambda r: r.cm3_min == r.cm3_max == 4 and r.m3 == 0),
)


def _obs_claim(claim_id: str, spec: FamilySpec, expected: str, holds) -> Claim:
    return _claim(
        claim_id, f"golden value check on {spec.label()}: {expected}", True,
        lambda config: [(spec.label(), generate(spec), None)],
        _on_report(lambda r, _: (holds(r), expected,
                                 f"m1={r.m1} m2={r.m2} m3={r.m3} "
                                 f"{_cm(r, 1)} {_cm(r, 2)} {_cm(r, 3)}", "cm1_min"),
                   report=_compat_report),
    )


# ---------------------------------------------------------------------------
# complete-graph dominance

def _complete_graphs(config: CorpusConfig):
    for n in range(4, config.max_order + 1):
        yield f"complete:{n}", _fam("complete", n), families.complete_graph_forms(n)


def _random_non_complete(n: int, rng: SplitMix64) -> Graph:
    while True:
        g = random_connected_graph(n, rng, 40)
        if g.size < n * (n - 1) // 2:
            return g


def _non_complete_graphs(config: CorpusConfig):
    """Random non-complete graphs; the context is (order, complete-graph forms)."""
    rng = SplitMix64(config.seed * 0x9E37 + 22)
    for n in range(4, config.max_order + 1):
        f = families.complete_graph_forms(n)
        for i in range(config.monotonicity_samples):
            yield f"random:{n}:{i:03d}", _random_non_complete(n, rng), (n, f)


def _below_complete(r: IndexReport, context, k: int):
    n, f = context
    key, bound = f"cm{k}_max", getattr(f, f"cm{k}")
    val = r.value(key)
    return val < bound, f"{key}(G) < {bound} = cm{k}(complete:{n})", f"{key}(G)={val}", key


def _spanning_subgraphs(config: CorpusConfig):
    """Proper connected spanning subgraphs G' of random non-complete graphs;
    the context is the report of G."""
    rng = SplitMix64(config.seed * 0x9E37 + 23)
    for n in range(4, config.max_order + 1):
        for i in range(config.monotonicity_samples):
            g = _random_non_complete(n, rng)
            sub = spanning_connected_subgraph(g, rng)
            if sub is not None:  # trees admit no proper connected spanning subgraph
                yield f"random:{n}:{i:03d}", sub, _report(g)


def _drops(rs: IndexReport, rg: IndexReport, k: int):
    lo_key, hi_key = f"cm{k}_min", f"cm{k}_max"
    lo_g, lo_s = rg.value(lo_key), rs.value(lo_key)
    hi_g, hi_s = rg.value(hi_key), rs.value(hi_key)
    return (lo_s < lo_g and hi_s < hi_g,
            f"{lo_key}(G') < {lo_key}(G) and {hi_key}(G') < {hi_key}(G)",
            f"G'=({lo_s},{hi_s}) G=({lo_g},{hi_g})", lo_key)


# ---------------------------------------------------------------------------
# trees

@functools.lru_cache(maxsize=None)
def _tree_corpus(config: CorpusConfig) -> tuple[tuple[str, Graph, families.TreeForms], ...]:
    """Built once per run (the three thm-3.1 claims share it)."""
    hi = config.tree_max_order
    trees = [(f"{kind}:{n}", _fam(kind, n))
             for n in range(4, hi + 1) for kind in ("path", "star")]
    for n in range(4, hi + 1):
        for profile in caterpillar_profiles(n):
            spec = FamilySpec("caterpillar", profile)
            trees.append((spec.label(), generate(spec)))
    trees += random_tree_corpus(config.random_tree_count, hi, config.seed * 0x9E37 + 31)
    return tuple((label, g, families.tree_forms(g.order)) for label, g in trees)


# ---------------------------------------------------------------------------
# complete multipartite

def _multipartite_graphs(config: CorpusConfig, variant: str = "as_printed"):
    for r in (2, 3, 4):
        for sizes in itertools.combinations_with_replacement((1, 2, 3), r):
            yield ("multipartite:" + ",".join(map(str, sizes)),
                   generate(FamilySpec("complete_multipartite", sizes)),
                   families.multipartite_forms(sizes, variant))


def _equal_multipartite_graphs(config: CorpusConfig):
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            yield (f"equal-multipartite:{n},{r}",
                   generate(FamilySpec("complete_multipartite", (n,) * r)),
                   families.equal_multipartite_forms(n, r))


# ---------------------------------------------------------------------------
# thorn graphs

_THORN_BASES = (
    FamilySpec("path", (4,)),
    FamilySpec("cycle", (4,)),
    FamilySpec("complete", (3,)),
    FamilySpec("star", (4,)),
)


def _thorn_graphs(config: CorpusConfig):
    """Thorn graphs on small bases; the context is their closed forms."""
    for base_spec in _THORN_BASES:
        base = generate(base_spec)
        data = thorn_base_data(base, _report(base))
        for m in (0, 1, 2):
            spec = thorn(base_spec, m)
            yield spec.label(), generate(spec), families.thorn_forms(data, m)


def _thorn_form(r: IndexReport, forms: families.ThornForms, key: str):
    predicted, actual = getattr(forms, key), r.value(key)
    return predicted == actual, f"{key}={predicted}", f"{key}={actual}", key


# ---------------------------------------------------------------------------
# tree minimality over all connected graphs

@functools.lru_cache(maxsize=None)
def _oracle_corpus(config: CorpusConfig) -> tuple[tuple[str, Graph], ...]:
    """The family corpus plus every seeded random graph; random draws that
    happen to repeat a labeled graph stay in (the count is part of the
    corpus contract; the engine and the oracles run once per distinct
    graph). Built once per run (four claims share it)."""
    hi = config.oracle_max_order
    return (*family_corpus(hi, config.families), *random_connected_corpus(
        config.random_graph_count, hi, config.seed * 0x9E37 + 42
    ))


def _distinct_connected(config: CorpusConfig):
    seen = set()
    for label, g in _oracle_corpus(config):
        if g not in seen and g.is_connected():
            seen.add(g)
            yield label, g, None


def _tree_minimal(r: IndexReport, key: str, bound: int):
    val, is_tree = r.value(key), r.size == r.order - 1
    return (val >= bound and (val == bound) == is_tree,
            f"{key} >= {bound}, equality iff tree (tree={is_tree})", f"{key}={val}", key)


# ---------------------------------------------------------------------------
# stability

def _stable_iff_not_complete_bipartite(g: Graph, _):
    stable, cb = is_chromatically_stable(g), is_complete_bipartite(g)
    return (stable == (not cb), "stable iff not complete bipartite",
            f"stable={stable} complete_bipartite={cb}", [list(e) for e in g.edges])


def _closed_rho(r: StabilityReport, g: Graph):
    closed = stability_number_bipartite(g)
    return (closed == r.rho, f"rho = theta1*theta2 - size = {closed}",
            f"exact rho = {r.rho}", [list(e) for e in g.edges])


def _unstable_cycle(g: Graph, _):
    chi, stable = chromatic_number(g), is_chromatically_stable(g)
    return (chi == 2 and stable is False,
            "cycle claimed 2-chromatic and chromatically unstable",
            f"chi={chi} stable={stable}", None)


# ---------------------------------------------------------------------------
# oracle equivalence (must hold)

@functools.lru_cache(maxsize=None)
def _oracle_truth(g: Graph) -> dict:
    return oracle_extrema(g)


def _matches_oracle_extrema(r: IndexReport, g: Graph):
    truth = _oracle_truth(g)
    engine = {1: (r.cm1_min, r.cm1_max), 2: (r.cm2_min, r.cm2_max), 3: (r.cm3_min, r.cm3_max)}
    return (engine == truth,
            f"naive filter extrema {truth[1]} {truth[2]} {truth[3]}",
            f"engine extrema {engine[1]} {engine[2]} {engine[3]}", "cm1_min")


@functools.lru_cache(maxsize=None)
def _stream_pair(g: Graph) -> tuple[bool, int, int, tuple | None]:
    """Whether the engine and naive streams agree, their lengths and the
    engine's first coloring; only one pair of streams is held at a time."""
    naive = list(oracle_min_colorings(g))
    engine = [c.assignment for c in enumerate_min_colorings(g, "all")]
    return engine == naive, len(naive), len(engine), engine[0] if engine else None


def _matches_oracle_stream(g: Graph, _):
    ok, naive, engine, first = _stream_pair(g)
    return (ok, f"{naive} minimum colorings, lexicographic", f"engine emitted {engine}",
            list(first) if first is not None else None)


# ---------------------------------------------------------------------------
# registry

REGISTRY: tuple[Claim, ...] = (
    *(_obs_claim(*row) for row in _OBS),
    _claim(
        "prop-2.1-i", "complete graphs: cm1 is constant n(n+1)(2n+1)/6 and below m1",
        False, _complete_graphs,
        _on_report(lambda r, f: (r.cm1_min == r.cm1_max == f.cm1 < f.m1 == r.m1,
                                 f"cm1 constant {f.cm1} < m1 {f.m1}",
                                 f"{_cm(r, 1)} m1={r.m1}", "cm1_min"))),
    _claim(
        "prop-2.1-ii", "complete graphs: cm2 is constant sum(i*j) and below m2",
        False, _complete_graphs,
        _on_report(lambda r, f: (r.cm2_min == r.cm2_max == f.cm2 < f.m2 == r.m2,
                                 f"cm2 constant {f.cm2} < m2 {f.m2}",
                                 f"{_cm(r, 2)} m2={r.m2}", "cm2_min"))),
    _claim(
        "prop-2.1-iii", "complete graphs: cm3 is constant and above m3 = 0",
        False, _complete_graphs,
        _on_report(lambda r, f: (r.cm3_min == r.cm3_max == f.cm3 > 0 == f.m3 == r.m3,
                                 f"cm3 constant {f.cm3} > 0 = m3",
                                 f"{_cm(r, 3)} m3={r.m3}", "cm3_min"))),
    *(_claim(
        f"thm-2.2-{_ROMAN[k - 1]}",
        f"cm{k}_max of any connected graph is below cm{k} of the complete graph",
        False, _non_complete_graphs, _on_report(functools.partial(_below_complete, k=k)))
      for k in (1, 2, 3)),
    *(_claim(
        f"cor-2.3-{_ROMAN[k - 1]}", f"spanning subgraphs: cm{k} extrema drop strictly",
        False, _spanning_subgraphs, _on_report(functools.partial(_drops, k=k)))
      for k in (1, 2, 3)),
    _claim(
        "thm-3.1-i", "trees: n+3 <= cm1_min <= cm1_max <= 4n-3", False, _tree_corpus,
        _on_report(lambda r, f: (f.cm1_lo <= r.cm1_min <= r.cm1_max <= f.cm1_hi,
                                 f"{f.cm1_lo} <= cm1_min <= cm1_max <= {f.cm1_hi}",
                                 _cm(r, 1), "cm1_min"))),
    _claim(
        "thm-3.1-ii", "trees: cm2 is constant 2(n-1)", False, _tree_corpus,
        _on_report(lambda r, f: (r.cm2_min == r.cm2_max == f.cm2,
                                 f"cm2_min = cm2_max = {f.cm2}", _cm(r, 2), "cm2_min"))),
    _claim(
        "thm-3.1-iii", "trees: cm3 is constant n-1", False, _tree_corpus,
        _on_report(lambda r, f: (r.cm3_min == r.cm3_max == f.cm3,
                                 f"cm3_min = cm3_max = {f.cm3}", _cm(r, 3), "cm3_min"))),
    _claim(
        "lem-3.2-i", "multipartite cm1 extrema match the sorted-part formulas",
        False, _multipartite_graphs,
        _on_report(lambda r, p: (p.cm1_max == r.cm1_max and p.cm1_min == r.cm1_min,
                                 f"cm1_min={p.cm1_min} cm1_max={p.cm1_max}", _cm(r, 1),
                                 "cm1_min"))),
    _claim(
        "lem-3.2-ii-max", "multipartite cm2_max matches the identity-weight formula",
        False, _multipartite_graphs,
        _on_report(lambda r, p: (p.cm2_max == r.cm2_max, f"cm2_max={p.cm2_max}",
                                 f"cm2_max={r.cm2_max}", "cm2_max"))),
    _claim(
        "lem-3.2-ii-min-printed",
        "multipartite cm2_min matches the printed (r-i)(r-j) weights",
        False, _multipartite_graphs,
        _on_report(lambda r, p: (p.cm2_min == r.cm2_min,
                                 f"cm2_min={p.cm2_min} (as printed)",
                                 f"cm2_min={r.cm2_min}", "cm2_min"))),
    _claim(
        "lem-3.2-ii-min-corrected",
        "multipartite cm2_min matches the reversal (r+1-i)(r+1-j) weights",
        False, functools.partial(_multipartite_graphs, variant="corrected"),
        _on_report(lambda r, c: (c.cm2_min == r.cm2_min,
                                 f"cm2_min={c.cm2_min} (reversal weights)",
                                 f"cm2_min={r.cm2_min}", "cm2_min"))),
    _claim(
        "lem-3.2-iii-printed",
        "multipartite cm3 equals the identity pair-sum formula for every labeling",
        False, _multipartite_graphs,
        _on_report(lambda r, p: (p.cm3 == r.cm3_min == r.cm3_max,
                                 f"cm3_min=cm3_max={p.cm3}", _cm(r, 3), "cm3_max"))),
    _claim(
        "lem-3.2-iii-minmax", "multipartite cm3 takes one value across labelings",
        False, _multipartite_graphs,
        _on_report(lambda r, _: (r.cm3_min == r.cm3_max,
                                 "cm3_min = cm3_max over all labelings", _cm(r, 3),
                                 "cm3_max"))),
    _claim(
        "prop-3.3-i", "equal multipartite cm1 = (n/6)r(r+1)(2r+1)",
        False, _equal_multipartite_graphs, _on_report(lambda r, f: _constant(r, 1, f.cm1))),
    _claim(
        "prop-3.3-ii", "equal multipartite cm2 = (n^2/2) sum i^2(i-1)",
        False, _equal_multipartite_graphs, _on_report(lambda r, f: _constant(r, 2, f.cm2))),
    _claim(
        "prop-3.3-iii-printed", "equal multipartite cm3 = n^2 sum i(r-1) as printed",
        False, _equal_multipartite_graphs,
        _on_report(lambda r, f: _constant(r, 3, f.cm3_printed, " (as printed)"))),
    _claim(
        "prop-3.3-iii-corrected", "equal multipartite cm3 = n^2 sum i(r-i) pair sum",
        False, _equal_multipartite_graphs,
        _on_report(lambda r, f: _constant(r, 3, f.cm3_pairsum, " (pair sum)"))),
    *(_claim(f"thm-3.4-{roman}",
             f"thorn formula part {roman} matches the engine on thorns of small bases",
             False, _thorn_graphs, _on_report(functools.partial(_thorn_form, key=key)))
      for roman, key in zip(_ROMAN, EXTREMA_KEYS)),
    _claim(
        "thm-4.2-i", "cm2_min >= 2(n-1) over connected graphs, equality exactly on trees",
        False, _distinct_connected,
        _on_report(lambda r, _: _tree_minimal(r, "cm2_min", 2 * (r.order - 1)))),
    _claim(
        "thm-4.2-ii", "cm3_min >= n-1 over connected graphs, equality exactly on trees",
        False, _distinct_connected,
        _on_report(lambda r, _: _tree_minimal(r, "cm3_min", r.order - 1))),
    _claim(
        "thm-4.4",
        "2-chromatic graphs: stable iff not complete bipartite (exhaustive by order)", False,
        # complete graphs (K2) carry the perfectly-stable flag instead
        lambda config: ((label, g, None)
                        for label, g in connected_bipartite_graphs(config.stability_max_order)
                        if g.size < g.order * (g.order - 1) // 2),
        _stable_iff_not_complete_bipartite),
    _claim(
        "prop-4.6", "bipartite stability number: closed form equals the exact rho", False,
        lambda config: ((label, g, g)
                        for label, g in connected_bipartite_graphs(config.rho_max_order)
                        if not is_complete_bipartite(g)),
        # a lambda, so that a patched or traced stability_report is the one called
        _on_report(_closed_rho, report=lambda g: stability_report(g), status="rho_status")),
    _claim(
        "stability-cycles", "recorded verdicts for the cycle stability remark", False,
        lambda config: ((f"cycle:{n}", _fam("cycle", n), None)
                        for n in range(4, config.max_order + 1)),
        _unstable_cycle),
    _claim(
        "oracle-extrema", "engine extrema equal the naive filter-all-assignments oracle",
        True, lambda config: ((label, g, g) for label, g in _oracle_corpus(config)),
        _on_report(_matches_oracle_extrema)),
    _claim(
        "oracle-enumeration", "engine coloring stream equals the naive filter, order and all",
        True,
        lambda config: ((label, g, None) for label, g in _oracle_corpus(config)
                        if g.order <= min(6, config.oracle_max_order)),
        _matches_oracle_stream),
)
_REGISTRY_IDS = [c.claim_id for c in REGISTRY]
# held here, so that a test patching a corpus name still clears the caches
_RUN_CACHES = (_report, _oracle_corpus, _tree_corpus, _oracle_truth, _stream_pair)


def claim_ids() -> list[str]:
    return list(_REGISTRY_IDS)


def select_claims(selection: str) -> list[Claim]:
    """Resolve a selection string: 'all', ids, prefixes, or 'a..b' ranges."""
    if selection.strip() == "all":
        return list(REGISTRY)
    chosen: dict[str, Claim] = {}
    for token in selection.split(","):
        token = token.strip()
        if not token:
            continue
        matched = []
        if ".." in token:
            lo, _, hi = token.partition("..")
            lo, hi = lo.strip(), hi.strip()
            if lo not in _REGISTRY_IDS or hi not in _REGISTRY_IDS:
                raise UnknownClaimError(f"unknown claim id in range {token!r}")
            i, j = _REGISTRY_IDS.index(lo), _REGISTRY_IDS.index(hi)
            if i > j:
                raise UnknownClaimError(f"range {token!r} runs backwards")
            matched = list(REGISTRY[i:j + 1])
        elif token in _REGISTRY_IDS:
            matched = [REGISTRY[_REGISTRY_IDS.index(token)]]
        else:
            # a token that is no exact id selects everything it prefixes,
            # e.g. 'lem-3.2' or 'thm-3.4'
            matched = [c for c in REGISTRY if c.claim_id.startswith(token)]
            if not matched:
                raise UnknownClaimError(f"unknown claim id {token!r}")
        for c in matched:
            chosen[c.claim_id] = c
    if not chosen:
        raise UnknownClaimError("empty claim selection")
    return [c for c in REGISTRY if c.claim_id in chosen]


def run_claims(config: CorpusConfig, selection: str = "all") -> list[ClaimResult]:
    """Run the selected claims; results ordered by registry position then instance.

    The report and corpus caches are emptied on entry, so they hold one
    run's reports and corpora.
    """
    for cache in _RUN_CACHES:
        cache.cache_clear()
    out: list[ClaimResult] = []
    for claim in select_claims(selection):
        out.extend(sorted(claim.runner(config), key=lambda r: r.instance))
    return out


def build_report(config: CorpusConfig, results: list[ClaimResult]) -> dict:
    verdicts = {"verified": 0, "counterexample": 0, "skipped_budget": 0}
    must_hold_failures = sorted({
        r.claim_id for r in results if r.must_hold and r.verdict != VERIFIED
    })
    for r in results:
        verdicts[r.verdict] += 1
    return {
        "config": config.to_json_dict(),
        "summary": {
            "claims": sorted({r.claim_id for r in results}),
            "instances": len(results),
            "verified": verdicts["verified"],
            "counterexample": verdicts["counterexample"],
            "skipped_budget": verdicts["skipped_budget"],
            "must_hold_failures": must_hold_failures,
        },
        "results": [r.to_json_dict() for r in results],
    }


def report_to_json(report: dict | list) -> str:
    """The JSON text every command writes: two-space indent, sorted keys."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(results: list[ClaimResult]) -> str:
    """A plain header, then one row per result with every cell quoted."""
    import csv  # here, so that importing the package does not load it
    from io import StringIO

    out = StringIO()
    out.write("claim_id,instance,expected,actual,verdict,must_hold\n")
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        [r.claim_id, r.instance, r.expected, r.actual, r.verdict, str(r.must_hold).lower()]
        for r in results)
    return out.getvalue()
