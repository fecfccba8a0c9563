"""Classical and chromatic Zagreb indices, with exact extrema over minimum colorings.

Classical indices are degree sums; chromatic ones replace degrees with
1-based color indices of a minimum coloring and are then minimized /
maximized over the coloring stream from :mod:`.coloring`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from .coloring import (
    Coloring,
    EnumerationBudgetExceeded,
    Semantics,
    canonical_partition,
    chromatic_number,
    colorings_of_partition,
    first_chi_partition,
    is_proper,
    strengths,
    _iter_all_min_colorings,
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


@dataclass(frozen=True)
class Budget:
    """Work limits for the extrema search.

    Full enumeration runs when the assignment-count estimate chi**order
    stays within max_colorings, or (estimate notwithstanding) when the
    order is at most max_order -- in which case the stream is capped and
    aborts into the permutation fallback if the cap is hit.
    """

    max_order: int = 16
    max_colorings: int = 10_000_000


DEFAULT_BUDGET = Budget()

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
    lexicographically least witness in place for ties.
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


def _sweep_all_semantics(g: Graph, ell: int, budget: Budget):
    """Full-enumeration sweep, or None when the budget rules it out."""
    estimate = ell ** g.order
    if estimate <= budget.max_colorings:
        cap = None
    elif g.order <= budget.max_order:
        cap = budget.max_colorings
    else:
        return None
    try:
        stream = (
            Coloring(a, ell) for a in _iter_all_min_colorings(g, ell, cap)
        )
        return _sweep(g, stream)
    except EnumerationBudgetExceeded:
        return None


def _sweep_permutation_semantics(g: Graph, ell: int, budget: Budget):
    """Sweep over labelings of the canonical partition.

    Returns (results, exact) where exact means the canonical partition was
    confirmed and every one of the ell! labelings was evaluated.
    """
    exact = True
    try:
        partition = canonical_partition(g, ell, max_partitions=budget.max_colorings)
    except EnumerationBudgetExceeded:
        partition = first_chi_partition(g, ell)
        exact = False
    if math.factorial(ell) <= budget.max_colorings:
        colorings = colorings_of_partition(partition, g.order)
    else:
        # identity and reversed labelings only: still valid colorings,
        # so the sweep yields bounds rather than exact extrema
        exact = False
        colorings = []
        for perm in (
            tuple(range(1, ell + 1)),
            tuple(range(ell, 0, -1)),
        ):
            assignment = [0] * g.order
            for idx, members in enumerate(partition):
                for v in members:
                    assignment[v] = perm[idx]
            colorings.append(Coloring(tuple(assignment), ell))
        colorings.sort(key=lambda c: c.assignment)
    return _sweep(g, colorings), exact


def _compute_extrema(g: Graph, semantics: Semantics, budget: Budget):
    """Extrema of all three indices at once: (per-index results, semantics, status)."""
    if g.order < 1:
        raise ValueError("extrema need order >= 1")
    ell = chromatic_number(g)
    if semantics == "all":
        results = _sweep_all_semantics(g, ell, budget)
        if results is not None:
            return results, "all", "exact"
        results, _ = _sweep_permutation_semantics(g, ell, budget)
        return results, "permutation", "bounds_only"
    if semantics == "permutation":
        results, exact = _sweep_permutation_semantics(g, ell, budget)
        return results, "permutation", "exact" if exact else "bounds_only"
    raise ValueError(f"unknown semantics {semantics!r}")


def chromatic_extrema(
    g: Graph,
    index: int,
    semantics: Semantics = "all",
    budget: Budget = DEFAULT_BUDGET,
    paper_compat: bool = False,
) -> ExtremaResult:
    """Exact min and max of one chromatic index over minimum colorings.

    With paper_compat set, an edgeless input reports the index-3 extrema
    as the conventional default 1 instead of the raw empty edge sum 0;
    no witness evaluates to a defaulted value, so the witness is dropped.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    results, semantics_used, status = _compute_extrema(g, semantics, budget)
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
    budget: Budget = DEFAULT_BUDGET,
    label: str | None = None,
) -> IndexReport:
    """Aggregate classical values and all six chromatic extrema for one graph.

    Every surviving witness is re-validated (proper, surjective, evaluates
    to its reported value) before the report is emitted.
    """
    results, semantics_used, status = _compute_extrema(g, semantics, budget)
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
        thetas[idx] = tuple(sorted(strengths(w).theta, reverse=True))
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
