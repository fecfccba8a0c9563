"""Classical and chromatic Zagreb indices, with exact extrema over minimum colorings.

Classical indices are degree sums; chromatic ones replace degrees with
1-based color indices of a minimum coloring and are then minimized /
maximized over the minimum colorings from :mod:`.coloring`. Either
semantics scores chi-partitions and their labelings on the partition
quotient: under ``all`` every chi-partition, under ``permutation`` the
canonical one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from operator import gt, itemgetter, mul, sub
from typing import Literal

from .coloring import (
    Coloring,
    EnumerationBudgetExceeded,
    Semantics,
    canonical_partition,
    is_proper,
    label_partition,
    strengths,
    _iter_chi_partitions,
    _min_coloring,
)
from .families import ThornBaseData
from .graph import Graph


class ImproperColoringError(ValueError):
    pass


EXTREMA_KEYS = ("cm1_min", "cm1_max", "cm2_min", "cm2_max", "cm3_min", "cm3_max")


def zagreb_sums(weights, edges) -> tuple[int, int, int]:
    """The three Zagreb sums of a vertex weighting.

    Returns the sum of squared weights, and over edges the sum of endpoint
    weight products and the sum of absolute endpoint weight differences.
    Degrees as weights give the classical indices, color indices the
    chromatic ones.
    """
    products = differences = 0
    for u, v in edges:
        a, b = weights[u], weights[v]
        products += a * b
        differences += abs(a - b)
    return sum(w * w for w in weights), products, differences


def classical_m1(g: Graph) -> int:
    """Sum of squared degrees."""
    return zagreb_sums(g.degree_sequence(), g.edges)[0]


def classical_m2(g: Graph) -> int:
    """Sum over edges of the endpoint degree product."""
    return zagreb_sums(g.degree_sequence(), g.edges)[1]


def classical_m3(g: Graph) -> int:
    """Sum over edges of the absolute endpoint degree difference."""
    return zagreb_sums(g.degree_sequence(), g.edges)[2]


def _require_proper(g: Graph, c: Coloring) -> None:
    if not is_proper(g, c):
        raise ImproperColoringError("coloring has a monochromatic edge")


def chromatic_m1(g: Graph, c: Coloring) -> int:
    """Sum over vertices of the squared color index."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[0]


def chromatic_m2(g: Graph, c: Coloring) -> int:
    """Sum over edges of the color index product."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[1]


def chromatic_m3(g: Graph, c: Coloring) -> int:
    """Sum over edges of the absolute color index difference."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[2]


# work caps of the extrema search, read by _compute_extrema
MAX_ORDER = 16
MAX_COLORINGS = 10_000_000

ExtremaStatus = Literal["exact", "bounds_only"]


@dataclass(frozen=True)
class ExtremaResult:
    index: int
    minimum: int
    maximum: int
    min_witness: Coloring | None
    max_witness: Coloring | None
    semantics_used: str
    status: ExtremaStatus


def _sweep(g: Graph, colorings) -> dict[int, tuple[int, Coloring, int, Coloring]]:
    """One pass over a coloring stream tracking min/max of all three indices.

    Streams arrive in lexicographic order, so strict comparisons leave the
    lexicographically least witness in place for ties. Exact extrema come
    from :func:`_sweep_partitions`; this scores only the two labelings of
    the bounds-only fallback. It also stays as the coloring-stream
    reference that the least-witness tests check the partition path
    against, and ``perfbench/spans.py`` rebinds it by name to count the
    colorings scored.
    """
    edges = g.edges
    best: list[list] = []  # per index: [min, its witness, max, its witness]
    for c in colorings:
        sums = zagreb_sums(c.assignment, edges)
        if not best:
            best = [[val, c, val, c] for val in sums]
            continue
        for slot, val in zip(best, sums):
            if val < slot[0]:
                slot[0], slot[1] = val, c
            if val > slot[2]:
                slot[2], slot[3] = val, c
    return {k: tuple(slot) for k, slot in enumerate(best, 1)}


def _twin_order(sizes: list[int], between: Counter) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of consecutive twin classes of a quotient.

    Twins have the same size and the same edge count to every third
    class, so swapping their labels changes none of the three sums. Of
    all labelings that differ only on twins, the one that labels each
    twin group in increasing class order is the least, so the others can
    be skipped without losing a value or a least witness.
    """
    ell = len(sizes)
    counts = [[0] * ell for _ in range(ell)]
    for (a, b), e in between.items():
        counts[a][b] = counts[b][a] = e
    order = []
    for j in range(ell):
        for i in range(j - 1, -1, -1):  # twinship is an equivalence: the nearest one will do
            if sizes[i] == sizes[j] and all(
                counts[i][k] == counts[j][k] for k in range(ell) if k != i and k != j
            ):
                order.append((i, j))
                break
    return order


def _labeling_extrema(sizes: list[int], between: Counter):
    """Per index, (min, labels, max, labels) over the l! labelings of one
    partition quotient: class sizes, and edge counts between class pairs.

    Labelings come in lexicographic order and only a strict improvement
    replaces a witness, so each is the least labeling attaining its value.
    """
    # two zero-weight pairs keep itemgetter returning tuples; its keys are
    # unpacked from lists, since a tuple built from an iterator is resized
    # and, once freed, stays on CPython's tuple free list (peak RSS)
    pairs = [*between.items(), ((0, 0), 0), ((0, 0), 0)]
    at_first = itemgetter(*[a for (a, _), _ in pairs])
    at_second = itemgetter(*[b for (_, b), _ in pairs])
    weights = [e for _, e in pairs]
    twins = _twin_order(sizes, between)
    if twins:  # each key twice, for the same reason
        at_lower = itemgetter(*[i for i, _ in twins] * 2)
        at_upper = itemgetter(*[j for _, j in twins] * 2)
    lo1 = lo2 = lo3 = math.inf
    hi1 = hi2 = hi3 = -math.inf
    for p in permutations(range(1, len(sizes) + 1)):
        if twins and any(map(gt, at_lower(p), at_upper(p))):
            continue
        pa, pb = at_first(p), at_second(p)
        s1 = sum(map(mul, sizes, map(mul, p, p)))
        s2 = sum(map(mul, weights, map(mul, pa, pb)))
        s3 = sum(map(mul, weights, map(abs, map(sub, pa, pb))))
        if s1 < lo1:
            lo1, lo1_p = s1, p
        if s1 > hi1:
            hi1, hi1_p = s1, p
        if s2 < lo2:
            lo2, lo2_p = s2, p
        if s2 > hi2:
            hi2, hi2_p = s2, p
        if s3 < lo3:
            lo3, lo3_p = s3, p
        if s3 > hi3:
            hi3, hi3_p = s3, p
    return (lo1, lo1_p, hi1, hi1_p), (lo2, lo2_p, hi2, hi2_p), (lo3, lo3_p, hi3, hi3_p)


def _sweep_partitions(g: Graph, ell: int, partitions):
    """:func:`_sweep` over every labeling of every partition, without
    building the colorings.

    Each partition is reduced once to its quotient, on which a labeling p
    (class i wears color p[i]) scores sum size_i p_i^2, sum e_ab p_a p_b
    and sum e_ab |p_a - p_b|. With the classes in first-vertex order,
    label order is assignment order, so a partition's witnesses are its
    least attaining labelings; across partitions a tie goes to the smaller
    assignment. Only the six witnesses become Coloring objects.
    """
    n = g.order
    # per index: [min, its assignment, max, its assignment]
    best = [[math.inf, None, -math.inf, None] for _ in range(3)]
    for partition in partitions:
        cls = [0] * n
        for i, members in enumerate(partition):
            for v in members:
                cls[v] = i
        between: Counter = Counter()
        for u, v in g.edges:
            a, b = cls[u], cls[v]
            between[(a, b) if a < b else (b, a)] += 1
        sizes = [len(members) for members in partition]
        found = _labeling_extrema(sizes, between)
        for slot, (lo, lo_p, hi, hi_p) in zip(best, found):
            if lo <= slot[0]:
                a = label_partition(partition, lo_p, n)
                if lo < slot[0] or a < slot[1]:
                    slot[0], slot[1] = lo, a
            if hi >= slot[2]:
                a = label_partition(partition, hi_p, n)
                if hi > slot[2] or a < slot[3]:
                    slot[2], slot[3] = hi, a
    # one Coloring per distinct witness, shared between the slots it wins
    witnesses = {a: Coloring(a, ell) for slot in best for a in (slot[1], slot[3])}
    return {
        k: (lo, witnesses[lo_a], hi, witnesses[hi_a])
        for k, (lo, lo_a, hi, hi_a) in enumerate(best, 1)
    }


def _compute_extrema(g: Graph, semantics: Semantics):
    """Extrema of all three indices at once: (per-index results, semantics, status).

    Under ``all`` every chi-partition is scored when the assignment-count
    estimate ell**order stays within MAX_COLORINGS, or the order within
    MAX_ORDER, and the walk stops past MAX_COLORINGS // ell! partitions:
    every chi-partition carries ell! minimum colorings. Within the
    estimate that cap never fires, as the partitions times ell! are at
    most ell**order. Otherwise, and always under ``permutation``, the
    canonical partition's ell! labelings are scored. Past ell! >
    MAX_COLORINGS only its identity and reversed labelings are, which
    still are valid colorings and so give bounds rather than extrema.
    """
    if g.order < 1:
        raise ValueError("extrema need order >= 1")
    if semantics not in ("all", "permutation"):
        raise ValueError(f"unknown semantics {semantics!r}")
    coloring = _min_coloring(g.adjacency_masks, g.order)
    ell = max(coloring)
    if semantics == "all" and (ell ** g.order <= MAX_COLORINGS or g.order <= MAX_ORDER):
        try:
            partitions = _iter_chi_partitions(g, ell, MAX_COLORINGS // math.factorial(ell))
            return _sweep_partitions(g, ell, partitions), "all", "exact"
        except EnumerationBudgetExceeded:
            pass
    partition = canonical_partition(g, coloring)
    if math.factorial(ell) <= MAX_COLORINGS:
        results = _sweep_partitions(g, ell, [partition])
        return results, "permutation", "exact" if semantics == "permutation" else "bounds_only"
    # with the classes in first-vertex order these two are in assignment order
    colorings = [
        Coloring(label_partition(partition, labels, g.order), ell)
        for labels in (tuple(range(1, ell + 1)), tuple(range(ell, 0, -1)))
    ]
    return _sweep(g, colorings), "permutation", "bounds_only"


def chromatic_extrema(
    g: Graph,
    index: int,
    semantics: Semantics = "all",
    paper_compat: bool = False,
) -> ExtremaResult:
    """Min and max of one chromatic index over minimum colorings.

    They are exact unless the search passes the MAX_ORDER / MAX_COLORINGS
    caps of :func:`_compute_extrema`; status then reads ``bounds_only``.
    With paper_compat set, an edgeless input reports the index-3 extrema
    as the conventional default 1 instead of the raw empty edge sum 0;
    no witness evaluates to a defaulted value, so the witness is dropped.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    results, semantics_used, status = _compute_extrema(g, semantics)
    lo, lo_w, hi, hi_w = results[index]
    if paper_compat and g.size == 0 and index == 3:
        return ExtremaResult(index, 1, 1, None, None, semantics_used, status)
    return ExtremaResult(index, lo, hi, lo_w, hi_w, semantics_used, status)


@dataclass(frozen=True)
class IndexReport:
    """Everything the engine knows about one graph's Zagreb indices."""

    order: int
    size: int
    m1: int
    m2: int
    m3: int
    cm1_min: int
    cm1_max: int
    cm2_min: int
    cm2_max: int
    cm3_min: int
    cm3_max: int
    semantics_used: str
    paper_compat_defaults_applied: bool
    connected: bool
    status: str
    witnesses: dict[str, Coloring | None] = field(default_factory=dict)
    label: str | None = None

    CSV_FIELDS = (
        "label", "order", "size", "m1", "m2", "m3",
        "cm1_min", "cm1_max", "cm2_min", "cm2_max", "cm3_min", "cm3_max",
        "semantics_used", "paper_compat_defaults_applied", "connected", "status",
    )

    def value(self, key: str) -> int:
        return getattr(self, key)

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        out = {f: getattr(self, f) for f in self.CSV_FIELDS}
        if include_witnesses:
            out["witnesses"] = {
                key: (list(c.assignment) if c is not None else None)
                for key, c in sorted(self.witnesses.items())
            }
        return out

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def to_csv_row(self) -> str:
        vals = []
        for f in self.CSV_FIELDS:
            v = getattr(self, f)
            if isinstance(v, bool):
                v = "true" if v else "false"
            vals.append("" if v is None else str(v))
        return ",".join(vals)


def full_report(
    g: Graph,
    semantics: Semantics = "all",
    paper_compat: bool = False,
    label: str | None = None,
) -> IndexReport:
    """Aggregate classical values and all six chromatic extrema for one graph.

    Every surviving witness is re-validated (proper, surjective, evaluates
    to its reported value) before the report is emitted.
    """
    results, semantics_used, status = _compute_extrema(g, semantics)
    values: dict[str, int] = {}
    witnesses: dict[str, Coloring | None] = {}
    # the index-2 default 0 coincides with the raw empty sum, so only
    # index 3 actually changes under the compat convention
    compat_applied = paper_compat and g.size == 0
    for index in (1, 2, 3):
        lo, lo_w, hi, hi_w = results[index]
        if compat_applied and index == 3:
            lo = hi = 1
            lo_w = hi_w = None
        values[f"cm{index}_min"] = lo
        values[f"cm{index}_max"] = hi
        witnesses[f"cm{index}_min"] = lo_w
        witnesses[f"cm{index}_max"] = hi_w
    for key, w in witnesses.items():
        if w is None:
            continue
        got = zagreb_sums(w.assignment, g.edges)[int(key[2]) - 1]
        if not is_proper(g, w) or got != values[key]:
            raise AssertionError(f"witness for {key} failed re-validation")
    for index in (1, 2, 3):
        if values[f"cm{index}_min"] > values[f"cm{index}_max"]:
            raise AssertionError(f"extrema inverted for index {index}")
    m1, m2, m3 = zagreb_sums(g.degree_sequence(), g.edges)
    return IndexReport(
        order=g.order,
        size=g.size,
        m1=m1,
        m2=m2,
        m3=m3,
        semantics_used=semantics_used,
        paper_compat_defaults_applied=compat_applied,
        connected=g.is_connected(),
        status=status,
        witnesses=witnesses,
        label=label,
        **values,
    )


def thorn_base_data(g: Graph, report: IndexReport) -> ThornBaseData:
    """Bundle the base-graph inputs the thorn formulas need.

    The three strength vectors come from the report's minimum witnesses,
    sorted descending as the formulas' hypotheses require.
    """
    thetas = {}
    for idx in (1, 2, 3):
        w = report.witnesses.get(f"cm{idx}_min")
        if w is None:
            raise ValueError("thorn base data needs minimum witnesses in the report")
        thetas[idx] = tuple(sorted(strengths(w), reverse=True))
    return ThornBaseData(
        n=g.order,
        ell=len(thetas[1]),
        cm1_min=report.cm1_min,
        cm1_max=report.cm1_max,
        cm2_min=report.cm2_min,
        cm2_max=report.cm2_max,
        cm3_min=report.cm3_min,
        cm3_max=report.cm3_max,
        theta1=thetas[1],
        theta2=thetas[2],
        theta3=thetas[3],
    )
