"""Naive brute-force oracle, deliberately independent of the engine.

The assignment space {1..k}^order is tested whole, as one k^order-bit
Python int: bit i stands for the i-th assignment of
``itertools.product(range(1, k + 1), repeat=order)``, so ascending bits
are lexicographic order. Vertex v's colour is one more than digit v of i
in base k, digits counted from the most significant; so the assignments
giving v colour c form runs of k^(order-1-v) bits, one run in every
k^(order-v). An assignment is proper when no edge has both ends in the
runs of one colour.

Only the set bits of the proper mask are decoded: the nonzero bytes of
its little-endian bytes are found with ``itertools.compress``, and each
set bit's index splits by one divmod into its leading order//2 and
trailing order - order//2 base-k digits, so the assignment is the join
of two entries of small ``itertools.product`` tables. Assignments that
are not proper are never built.

This is still the naive filter: every assignment is tested against
every edge in every colour, nothing is pruned, and no search code is
shared with the engine, so it can serve as the reference the engine is
checked against. Only practical for small orders.
"""

from __future__ import annotations

import itertools

from .graph import Graph

# the positions of the set bits of each byte value, ascending
_SET_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def _first_colour_mask(v: int, k: int, n: int, full: int) -> tuple[int, int]:
    """The mask of "vertex v has colour 1" in {1..k}^n, and its run length.

    Colour c's mask is this one shifted left by (c - 1) runs, plus bits
    past k^n that the caller drops.
    """
    run, size = k ** (n - 1 - v), k ** n
    mask, width = (1 << run) - 1, run * k
    while width < size:
        mask |= mask << width
        width <<= 1
    return mask & full, run


def _proper_mask(g: Graph, k: int) -> int:
    """Bit i set iff assignment i of {1..k}^order is proper."""
    n = g.order
    full = (1 << k ** n) - 1
    clash = 0
    for u, v in g.edges:
        # one edge's two masks at a time: all n*k colour masks at once
        # would hold n*k times the k^n bits
        mu, ru = _first_colour_mask(u, k, n, full)
        mv, rv = _first_colour_mask(v, k, n, full)
        for c in range(k):
            clash |= (mu << c * ru) & (mv << c * rv)
    return full & ~clash


def _chi_mask(g: Graph) -> tuple[int, int]:
    """The least k with a proper assignment, and that k's proper mask."""
    if g.order < 1:
        raise ValueError("needs order >= 1")
    for k in range(1, g.order + 1):
        mask = _proper_mask(g, k)
        if mask:
            return k, mask
    raise AssertionError("n colors always suffice")


def _assignments(mask: int, k: int, n: int):
    """The assignments of {1..k}^n whose bits are set, lexicographic."""
    data = mask.to_bytes((k ** n + 7) // 8, "little")
    colours = range(1, k + 1)
    high = list(itertools.product(colours, repeat=n // 2))
    low = list(itertools.product(colours, repeat=n - n // 2))
    width = len(low)
    for j in itertools.compress(itertools.count(), data):
        base = 8 * j
        for b in _SET_BITS[data[j]]:
            hi, lo = divmod(base + b, width)
            yield high[hi] + low[lo]


def oracle_chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper assignment, by exhaustive scan."""
    return _chi_mask(g)[0]


def oracle_min_colorings(g: Graph, ell: int | None = None):
    """Every proper surjective assignment onto 1..ell, lexicographic."""
    n = g.order
    if ell is None:
        # at k = chi every proper assignment uses all chi colours
        ell, mask = _chi_mask(g)
        yield from _assignments(mask, ell, n)
        return
    full = set(range(1, ell + 1))
    for ass in _assignments(_proper_mask(g, ell), ell, n):
        if set(ass) == full:
            yield ass


def oracle_extrema(g: Graph) -> dict[int, tuple[int, int]]:
    """(min, max) of each chromatic index over all minimum colorings."""
    edges = g.edges
    lo = {1: None, 2: None, 3: None}
    hi = {1: None, 2: None, 3: None}
    for ass in oracle_min_colorings(g):
        v1 = sum(s * s for s in ass)
        v2 = sum(ass[u] * ass[v] for u, v in edges)
        v3 = sum(abs(ass[u] - ass[v]) for u, v in edges)
        for k, val in ((1, v1), (2, v2), (3, v3)):
            if lo[k] is None or val < lo[k]:
                lo[k] = val
            if hi[k] is None or val > hi[k]:
                hi[k] = val
    if lo[1] is None:
        raise AssertionError("a graph always has a minimum coloring")
    return {k: (lo[k], hi[k]) for k in (1, 2, 3)}
