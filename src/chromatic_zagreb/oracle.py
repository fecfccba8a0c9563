"""Naive brute-force oracle, deliberately independent of the engine.

The assignment space {1..k}^order is tested whole, as one k^order-bit
Python int: bit i stands for the i-th assignment of
``itertools.product(range(1, k + 1), repeat=order)``, so ascending bits
are lexicographic order. Vertex v's colour is one more than digit v of i
in base k, digits counted from the most significant; so the assignments
giving v colour c form runs of k^(order-1-v) bits, one run in every
k^(order-v). An assignment is proper when no edge has both ends in the
runs of one colour.

Whether u < v wear one colour repeats every k^(order-u) bits, one period
of u's runs, so the mask of assignments giving u the colour of some later
neighbour is built on one period, OR-ed over u's later neighbours, and
only then repeated over all k^order bits by doubling (``_repeat``). The
full-size work is then a few operations per vertex, not per edge and
colour, and still every assignment is tested against every edge: each
edge's block marks all of its clashes, and each vertex's repeated block
covers every period.

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


def _repeat(block: int, period: int, size: int) -> int:
    """``block`` (below 2**period) repeated every ``period`` bits, cut to
    ``size`` bits; by doubling, so log2(size / period) shifts."""
    while period < size:
        block |= block << period
        period <<= 1
    return block & ((1 << size) - 1)


def _proper_mask(g: Graph, k: int) -> int:
    """Bit i set iff assignment i of {1..k}^order is proper."""
    n = g.order
    clash = 0
    # edges are sorted, so each vertex's later neighbours come together
    for u, pairs in itertools.groupby(g.edges, key=lambda e: e[0]):
        # u's run of colour c starts at c*ru of each k*ru-bit period, and
        # within it v wears c on the runs that start at c*rv and every
        # k*rv after; so the period's clashes with v are ``first`` (v
        # wearing colour 1 within one run of u) copied k times, copy c
        # at c*(ru + rv), no copy reaching past its run of u
        ru = k ** (n - 1 - u)
        block = 0
        for _, v in pairs:
            rv = k ** (n - 1 - v)
            first = _repeat((1 << rv) - 1, k * rv, ru)
            block |= _repeat(first, ru + rv, k * (ru + rv))
        clash |= _repeat(block, k * ru, k ** n)
    return ((1 << k ** n) - 1) & ~clash


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
    lo = hi = None
    for ass in oracle_min_colorings(g):
        squares = products = differences = 0
        for c in ass:
            squares += c * c
        for u, v in edges:
            a, b = ass[u], ass[v]
            products += a * b
            differences += abs(a - b)
        if lo is None:
            lo, hi = [squares, products, differences], [squares, products, differences]
            continue
        for i, val in enumerate((squares, products, differences)):
            if val < lo[i]:
                lo[i] = val
            elif val > hi[i]:
                hi[i] = val
    if lo is None:
        raise AssertionError("a graph always has a minimum coloring")
    return {k: (lo[k - 1], hi[k - 1]) for k in (1, 2, 3)}
