"""Chromatic stability: edge additions that preserve the chromatic number.

A graph is chromatically stable when SOME missing edge can be added
without raising the chromatic number (existential reading; the universal
reading would contradict the 2-chromatic characterization on even cycles
of length >= 6). Complete graphs have no missing edge and are flagged
perfectly stable instead of receiving a verdict.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass

from .coloring import EnumerationBudgetExceeded, Meter
from .coloring import _bipartition, _iter_chi_partitions, _min_coloring
from .graph import Graph


class StabilityBudgetExceeded(Exception):
    """The brute-force stability-number search refused to guess."""


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is bipartite with every cross-partition pair present."""
    if g.order < 2 or not g.is_connected():
        return False
    sides = _bipartition(g.adjacency_masks, g.order)
    if sides is None:
        return False
    return g.size == len(sides[0]) * len(sides[1])


def is_chromatically_stable(g: Graph, coloring: list[int] | None = None) -> bool | None:
    """Stability verdict: True/False, or None for complete graphs.

    True iff there exists a non-edge e with chi(G+e) = chi(G). One
    chi-coloring c of G decides it. A non-edge uv with c(u) != c(v) can be
    added and c stays a proper chi-coloring of G+uv, so the answer is
    True. When c puts every non-edge inside one color class, G is
    complete multipartite on the classes; a non-edge uv inside a class
    then closes a clique of u, v and one vertex of every other class, so
    chi(G+uv) = chi + 1 and the answer is False. A caller that already
    holds a chi-coloring of g (colors 1..chi, as from ``_min_coloring``)
    may pass it.
    """
    n = g.order
    if n < 2:
        raise ValueError("stability needs order >= 2")
    if g.size == n * (n - 1) // 2:
        return None
    masks = g.adjacency_masks
    if coloring is None:
        coloring = _min_coloring(masks, n)
    classes = [0] * (max(coloring) + 1)
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    full = (1 << n) - 1
    # a non-neighbour of v outside v's own class is a bichromatic non-edge
    return any(full & ~(masks[v] | classes[c]) for v, c in enumerate(coloring))


def stability_number_bipartite(g: Graph) -> int:
    """Closed-form stability number for connected 2-chromatic graphs.

    theta(c1) * theta(c2) - size: the number of cross-partition non-edges,
    i.e. the additions that complete the bipartition.
    """
    if not g.is_connected():
        raise ValueError("closed form needs a connected graph")
    sides = _bipartition(g.adjacency_masks, g.order)
    if g.size == 0 or sides is None:  # 2-chromatic: an edge and a bipartition
        raise ValueError("closed form applies to 2-chromatic graphs only")
    cross = len(sides[0]) * len(sides[1])
    if g.size == cross:
        raise ValueError("graph is already complete bipartite (unstable)")
    return cross - g.size


def stability_number_bruteforce(
    g: Graph, max_order: int = 9, max_subsets: int = 200_000
) -> int:
    """Minimum number of added edges that make a stable graph unstable.

    Breadth-first over non-edge subset sizes k = 1, 2, ...; the first k
    whose some k-subset yields an unstable graph is the answer. Inputs
    beyond the order budget, or searches past the subset cap, raise
    StabilityBudgetExceeded rather than guessing.
    """
    if g.order > max_order:
        raise StabilityBudgetExceeded(
            f"order {g.order} exceeds the brute-force budget {max_order}"
        )
    if is_chromatically_stable(g) is not True:
        raise ValueError("stability number is defined for chromatically stable graphs")
    candidates = g.non_edges()
    tested = 0
    for k in range(1, len(candidates) + 1):
        for extra in itertools.combinations(candidates, k):
            tested += 1
            if tested > max_subsets:
                raise StabilityBudgetExceeded(
                    f"subset cap {max_subsets} reached at size {k}"
                )
            if is_chromatically_stable(g.with_extra_edges(extra)) is False:
                return k
    raise AssertionError("completing the graph always removes every non-edge")


def _stability_number(g: Graph, coloring: list[int]) -> tuple[int, str]:
    """(rho, exact | upper_bound) for a stable g and a chi-coloring of it.

    A graph with a non-edge is unstable iff it is complete multipartite, so
    rho = C(n,2) - size - max sum C(|P_i|,2) over partitions of V into
    k = chi..n-1 independent sets, of which the coloring's classes are one;
    k sets hold at most C(n-k+1,2) pairs. The walks of all k charge one
    Meter; past its cap the best partition seen gives an upper bound.
    """
    n = g.order
    sizes = Counter(coloring).values()
    pairs = sum([s * (s - 1) for s in sizes]) // 2
    meter = Meter()
    try:
        for k in range(len(sizes), n):
            if (n - k + 1) * (n - k) // 2 <= pairs:
                break
            for partition in _iter_chi_partitions(g, k, meter):
                pairs = max(pairs, sum([len(c) * (len(c) - 1) for c in partition]) // 2)
    except EnumerationBudgetExceeded:
        return n * (n - 1) // 2 - g.size - pairs, "upper_bound"
    return n * (n - 1) // 2 - g.size - pairs, "exact"


@dataclass(frozen=True)
class StabilityReport:
    """Verdict record: chi, stability, and the stability number rho.

    rho comes from the partition search of :func:`_stability_number`
    (``cluster_deletion`` on the complement); it is an ``upper_bound`` only
    when that search, over all class counts together, met the one work
    cap of the call (WORK_CAP units of a Meter).
    """

    order: int
    size: int
    chi: int
    stable: bool | None
    perfectly_stable: bool
    rho: int | None
    method: str  # cluster_deletion | not_applicable
    rho_status: str  # exact | upper_bound | not_applicable
    connected: bool
    label: str | None = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def verdict_line(self) -> str:
        if self.perfectly_stable:
            middle = "perfectly stable (complete graph)"
        elif self.stable:
            middle = "chromatically stable"
            if self.rho_status == "upper_bound":
                middle += f", rho<={self.rho} ({self.method}, upper bound)"
            else:
                middle += f", rho={self.rho} ({self.method})"
        else:
            middle = "chromatically unstable"
        return f"chi={self.chi}: {middle}"


def stability_report(g: Graph, label: str | None = None) -> StabilityReport:
    """Full stability analysis for one graph.

    Disconnected inputs are still analyzed but flagged via ``connected``.
    """
    if g.order < 2:
        raise ValueError("stability needs order >= 2")
    coloring = _min_coloring(g.adjacency_masks, g.order)
    stable = is_chromatically_stable(g, coloring)
    rho, method, rho_status = None, "not_applicable", "not_applicable"
    if stable:  # not for unstable or complete (None) graphs
        rho, rho_status = _stability_number(g, coloring)
        method = "cluster_deletion"
    return StabilityReport(
        g.order, g.size, max(coloring), stable, stable is None, rho,
        method, rho_status, g.is_connected(), label,
    )
