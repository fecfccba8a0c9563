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
from dataclasses import dataclass

from .coloring import _bipartition, _min_coloring, chromatic_number
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


def is_chromatically_stable(g: Graph) -> bool | None:
    """Stability verdict: True/False, or None for complete graphs.

    True iff there exists a non-edge e with chi(G+e) = chi(G). One
    chi-coloring c of G certifies True: a non-edge uv with c(u) != c(v)
    can be added and c stays a proper chi-coloring of G+uv. Only when c
    puts every non-edge inside one color class is the answer decided by
    recomputing the chromatic number for every candidate addition, so a
    False verdict is always exhaustive (no structural shortcuts, which
    keeps it an independent check of the complete-bipartite
    characterization).
    """
    if g.order < 2:
        raise ValueError("stability needs order >= 2")
    candidates = g.non_edges()
    if not candidates:
        return None
    coloring = _min_coloring(g.adjacency_masks, g.order)
    if any(coloring[u] != coloring[v] for u, v in candidates):
        return True
    chi = max(coloring)
    for e in candidates:
        if chromatic_number(g.with_extra_edges([e])) == chi:
            return True
    return False


def stability_number_bipartite(g: Graph) -> int:
    """Closed-form stability number for connected 2-chromatic graphs.

    theta(c1) * theta(c2) - size: the number of cross-partition non-edges,
    i.e. the additions that complete the bipartition.
    """
    if not g.is_connected():
        raise ValueError("closed form needs a connected graph")
    if chromatic_number(g) != 2:
        raise ValueError("closed form applies to 2-chromatic graphs only")
    if is_complete_bipartite(g):
        raise ValueError("graph is already complete bipartite (unstable)")
    sides = _bipartition(g.adjacency_masks, g.order)
    return len(sides[0]) * len(sides[1]) - g.size


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


@dataclass(frozen=True)
class StabilityReport:
    """Verdict record: chi, stability, and the stability number when known.

    The bipartite closed form counts the cross-partition non-edges, but a
    cheaper route to an unstable graph can leave the bipartite world (the
    smallest case is the order-7 double star, where completing the two
    centers against all leaves yields an unstable complete tripartite
    graph one edge sooner). The closed form is therefore only an upper
    bound until the breadth-first search confirms it, and rho_status says
    which situation applies.
    """

    order: int
    size: int
    chi: int
    stable: bool | None
    perfectly_stable: bool
    rho: int | None
    method: str  # closed_form | brute_force | not_applicable
    rho_status: str  # exact | upper_bound | unknown_budget | not_applicable
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
            elif self.rho is not None:
                middle += f", rho={self.rho} ({self.method})"
            elif self.rho_status == "unknown_budget":
                middle += ", rho unknown (budget)"
        else:
            middle = "chromatically unstable"
        return f"chi={self.chi}: {middle}"


def stability_report(
    g: Graph, rho_order_budget: int = 9, label: str | None = None
) -> StabilityReport:
    """Full stability analysis for one graph.

    Disconnected inputs are still analyzed but flagged via ``connected``.
    For the stability number, the breadth-first search is authoritative
    within its budget; the bipartite closed form is reported as the method
    when the two agree, and as an unconfirmed upper bound when the search
    was out of budget.
    """
    if g.order < 2:
        raise ValueError("stability needs order >= 2")
    chi = chromatic_number(g)
    connected = g.is_connected()
    stable = is_chromatically_stable(g)
    if stable is None:
        return StabilityReport(
            g.order, g.size, chi, None, True, None,
            "not_applicable", "not_applicable", connected, label,
        )
    rho: int | None = None
    method = "not_applicable"
    rho_status = "not_applicable"
    if stable:
        closed = None
        if connected and chi == 2 and not is_complete_bipartite(g):
            closed = stability_number_bipartite(g)
        brute = None
        if g.order <= rho_order_budget:
            try:
                brute = stability_number_bruteforce(g, max_order=rho_order_budget)
            except StabilityBudgetExceeded:
                brute = None
        if brute is not None:
            if closed == brute:
                rho, method, rho_status = closed, "closed_form", "exact"
            else:
                rho, method, rho_status = brute, "brute_force", "exact"
        elif closed is not None:
            rho, method, rho_status = closed, "closed_form", "upper_bound"
        else:
            method, rho_status = "brute_force", "unknown_budget"
    return StabilityReport(
        g.order, g.size, chi, stable, False, rho, method, rho_status, connected, label,
    )
