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
from .coloring import _classes_of, _iter_chi_partitions, _min_coloring, _vertices
from .graph import Graph


class StabilityBudgetExceeded(Exception):
    """The brute-force stability-number search refused to guess."""


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is bipartite with every cross-partition pair present.

    That is, N(0) = B is not empty and, with A the rest, every vertex of A
    has neighbourhood B and every vertex of B has neighbourhood A.
    """
    masks = g.adjacency_masks
    b = masks[0] if masks else 0
    a = ((1 << g.order) - 1) ^ b
    return b != 0 and all(m == (a if b >> v & 1 else b) for v, m in enumerate(masks))


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
        coloring = _min_coloring(g, Meter())
    full = (1 << n) - 1
    classes = _classes_of(coloring, full, max(coloring))
    # a non-neighbour of v outside v's own class is a bichromatic non-edge
    return any(full & ~(masks[v] | classes[c - 1]) for v, c in enumerate(coloring))


def stability_number_bipartite(g: Graph) -> int:
    """Closed-form stability number for connected 2-chromatic graphs.

    theta(c1) * theta(c2) - size: the number of cross-partition non-edges,
    i.e. the additions that complete the bipartition, whose sides are the
    color classes of a chi-coloring.
    """
    if not g.is_connected():
        raise ValueError("closed form needs a connected graph")
    coloring = _min_coloring(g, Meter())
    if max(coloring, default=0) != 2:
        raise ValueError("closed form applies to 2-chromatic graphs only")
    ones = coloring.count(1)
    cross = ones * (g.order - ones)
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


def _independence_number(masks: tuple[int, ...], n: int, meter: Meter) -> int:
    """alpha: the most vertices of an independent set, by branch and bound.

    A node first takes every candidate of degree <= 1 among the candidates,
    since some largest independent set holds it. A greedy clique cover of
    the rest then bounds what the node can still add, since an independent
    set meets each clique at most once. Last it branches on a candidate of
    highest degree, taken or left out. The search keeps an explicit stack
    and charges ``meter`` one unit per node.
    """
    best = 0
    stack = [((1 << n) - 1, 0)]  # (candidates, vertices taken)
    while stack:
        meter.charge(1)
        live, size = stack.pop()
        # taking v drops its neighbour w, so only w's neighbours need a new look
        work = list(_vertices(live))
        while work:
            v = work.pop()
            near = masks[v] & live
            if live >> v & 1 and not near & (near - 1):
                size += 1
                live ^= 1 << v | near
                if near:
                    work.extend(_vertices(masks[near.bit_length() - 1] & live))
        cover, rest = 0, live
        while rest and size + cover <= best:
            clique = rest & -rest
            common = masks[clique.bit_length() - 1] & rest
            while common:
                low = common & -common
                clique |= low
                common &= masks[low.bit_length() - 1]
            rest ^= clique
            cover += 1
        if not live:
            best = max(best, size)
        elif size + cover > best:
            v = max(_vertices(live), key=lambda u: (masks[u] & live).bit_count())
            stack.append((live ^ 1 << v, size))
            stack.append((live & ~(masks[v] | 1 << v), size + 1))
    return best


def _most_pairs(n: int, k: int, alpha: int) -> int:
    """The most of sum C(s_i,2) over k class sizes s_i in 1..alpha summing to n.

    The sum is convex in the sizes, so the most comes from filling classes
    to alpha one after another: q full ones and one of r + 1, with
    q, r = divmod(n - k, alpha - 1), or all k full once q reaches k. It
    falls as k grows. alpha = n gives C(n - k + 1, 2).
    """
    q, r = divmod(n - k, alpha - 1)
    if q >= k:
        return k * alpha * (alpha - 1) // 2
    return q * alpha * (alpha - 1) // 2 + r * (r + 1) // 2


def _stability_number(g: Graph, coloring: list[int], meter: Meter) -> tuple[int, str]:
    """(rho, exact | upper_bound) for a stable g and a chi-coloring of it.

    A graph with a non-edge is unstable iff it is complete multipartite, so
    rho = C(n,2) - size - max sum C(|P_i|,2) over partitions of V into
    k = chi..n-1 independent sets, of which the coloring's classes are one.
    No such set holds more than alpha vertices, so k sets hold at most
    ``_most_pairs(n, k, alpha)`` pairs, which falls as k grows: the walk
    over k stops, or never starts, once that meets the best partition seen.
    The alpha search and the walks of all k charge the report's ``meter``:
    past its cap every partition of fewer classes has been seen and the
    best falls short of the cap at the current k, so it is an upper bound.
    If the alpha search runs out, alpha is taken as n, and the walk, left
    no units, ends at once.
    """
    n = g.order
    sizes = Counter(coloring).values()
    pairs = sum([s * (s - 1) for s in sizes]) // 2
    try:
        alpha = _independence_number(g.adjacency_masks, n, meter)
    except EnumerationBudgetExceeded:
        alpha = n
    try:
        for k in range(len(sizes), n):
            most = _most_pairs(n, k, alpha)
            if most <= pairs:
                break
            for partition in _iter_chi_partitions(g, k, meter):
                pairs = max(pairs, sum([s * (s - 1) for s in map(partition.count, range(k))]) // 2)
                if pairs >= most:  # no partition of k or more classes beats it
                    break
    except EnumerationBudgetExceeded:
        return n * (n - 1) // 2 - g.size - pairs, "upper_bound"
    return n * (n - 1) // 2 - g.size - pairs, "exact"


@dataclass(frozen=True)
class StabilityReport:
    """Verdict record: chi, stability, and the stability number rho.

    rho comes from the partition search of :func:`_stability_number`
    (``cluster_deletion`` on the complement), cut short by an
    independence-number bound; it is an ``upper_bound`` only when the chi
    search, the alpha search and the walks over all class counts met the
    call's work cap (WORK_CAP units of a Meter) before that bound met the
    best partition found, and no report at all if the chi search did.
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
    """Full stability analysis for one graph. Disconnected inputs are still
    analyzed but flagged via ``connected``; a chi search past the work cap
    raises EnumerationBudgetExceeded.
    """
    if g.order < 2:
        raise ValueError("stability needs order >= 2")
    meter = Meter()
    coloring = _min_coloring(g, meter)
    stable = is_chromatically_stable(g, coloring)
    rho, method, rho_status = None, "not_applicable", "not_applicable"
    if stable:  # not for unstable or complete (None) graphs
        rho, rho_status = _stability_number(g, coloring, meter)
        method = "cluster_deletion"
    return StabilityReport(
        g.order, g.size, max(coloring), stable, stable is None, rho,
        method, rho_status, g.is_connected(), label,
    )
