"""Deterministic test corpora: seeded random graphs and exhaustive small families.

All randomness flows through SplitMix64, a tiny well-known 64-bit mixer,
so corpora are reproducible from a single integer seed without depending
on any language runtime's generator. The bipartite enumeration yields one
representative per isomorphism class by orderly generation (Read 1978,
McKay 1998): biadjacency matrices are listed as sorted column multisets
in lexicographic order, and one is kept iff no row relabeling (plus a
transpose when the sides have equal size) sorts below it, so each class
is kept at its least member, the first one met, and the canonicity test
stops at the first relabeling that beats it. Connected bipartite graphs
have a unique bipartition, which makes that least member a complete
invariant.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .generators import FamilySpec, generate, thorn
from .graph import Graph


class SplitMix64:
    """SplitMix64: state advances by the golden-gamma constant, output is
    the standard 64-bit xorshift-multiply finalizer."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in 0..n-1 (rejection sampling, unbiased)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def random_tree(n: int, rng: SplitMix64) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError("tree order must be >= 1")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaf_heap = sorted(v for v in range(n) if degree[v] == 1)
    heapq.heapify(leaf_heap)
    for v in seq:
        u = heapq.heappop(leaf_heap)
        edges.append((min(u, v), max(u, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_connected_graph(n: int, rng: SplitMix64, extra_percent: int) -> Graph:
    """Random spanning tree plus each remaining pair with the given percent chance."""
    tree = random_tree(n, rng)
    edges = set(tree.edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.chance(extra_percent):
                edges.add((u, v))
    return Graph(n, sorted(edges))


def spanning_connected_subgraph(g: Graph, rng: SplitMix64) -> Graph | None:
    """A proper connected spanning subgraph of g, or None when g is a tree.

    A random spanning tree (randomized depth-first growth) is kept; every
    other edge survives a fair coin, and one surviving non-tree edge is
    removed if the coin kept them all.
    """
    n = g.order
    if not g.is_connected():
        raise ValueError("subgraph sampling needs a connected input")
    if g.size == n - 1:
        return None
    start = rng.below(n)
    seen = {start}
    stack = [start]
    tree_edges: set[tuple[int, int]] = set()
    while stack:
        u = stack.pop()
        nbrs = list(g.neighbors(u))
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                tree_edges.add((min(u, w), max(u, w)))
                stack.append(w)
    extra = [e for e in g.edges if e not in tree_edges]
    kept = [e for e in extra if rng.chance(50)]
    if len(kept) == len(extra):
        kept.pop(rng.below(len(kept)))
    return Graph(n, sorted(tree_edges) + sorted(kept))


def caterpillar_profiles(n: int):
    """Leaf-count profiles (one entry per spine vertex) covering every
    caterpillar of order n; mirror images are emitted once."""
    for spine in range(1, n + 1):
        leaves_total = n - spine
        for profile in _compositions(leaves_total, spine):
            if profile <= tuple(reversed(profile)):
                yield profile


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def multipartite_size_tuples(max_order: int):
    """All ascending part-size tuples with at least two parts and total
    order at most max_order (integer partitions, ascending)."""
    def partitions(total: int, minimum: int):
        if total == 0:
            yield ()
            return
        for first in range(minimum, total + 1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in range(2, max_order + 1):
        for sizes in partitions(n, 1):
            if len(sizes) >= 2:
                yield sizes


def family_corpus(
    max_order: int, kinds: tuple[str, ...] | None = None
) -> list[tuple[str, Graph]]:
    """Deterministic family instances up to max_order, deduplicated by
    labeled adjacency (several families overlap on small orders).

    ``kinds`` restricts which families contribute; None means all."""
    specs: list[FamilySpec] = []
    for n in range(1, max_order + 1):
        specs.append(FamilySpec("path", (n,)))
        specs.append(FamilySpec("complete", (n,)))
        specs.append(FamilySpec("star", (n,)))
        if n >= 3:
            specs.append(FamilySpec("cycle", (n,)))
    for sizes in multipartite_size_tuples(max_order):
        specs.append(FamilySpec("complete_multipartite", sizes))
    for n in range(2, max_order + 1):
        for profile in caterpillar_profiles(n):
            specs.append(FamilySpec("caterpillar", profile))
    for base in (
        FamilySpec("path", (3,)),
        FamilySpec("complete", (3,)),
        FamilySpec("star", (3,)),
    ):
        for m in (1, 2):
            spec = thorn(base, m)
            if spec.order() <= max_order:
                specs.append(spec)
    out: list[tuple[str, Graph]] = []
    seen: set[Graph] = set()
    for spec in specs:
        if kinds is not None and spec.kind not in kinds:
            continue
        g = generate(spec)
        if g in seen:
            continue
        seen.add(g)
        out.append((spec.label(), g))
    return out


# the least order of the random corpora
RANDOM_MIN_ORDER = 4


def random_connected_corpus(count: int, max_order: int, seed: int) -> list[tuple[str, Graph]]:
    """Seeded random connected graphs with orders cycling
    RANDOM_MIN_ORDER..max_order.

    Extra-edge density cycles through sparse to dense, so trees and
    near-complete graphs both appear. Empty when the order window is.
    """
    if max_order < RANDOM_MIN_ORDER:
        return []
    rng = SplitMix64(seed)
    densities = (0, 15, 30, 50, 80)
    out = []
    for i in range(count):
        n = RANDOM_MIN_ORDER + i % (max_order - RANDOM_MIN_ORDER + 1)
        g = random_connected_graph(n, rng, densities[i % len(densities)])
        out.append((f"random:{n}:{i}", g))
    return out


def random_tree_corpus(count: int, max_order: int, seed: int) -> list[tuple[str, Graph]]:
    """Seeded random trees with orders cycling RANDOM_MIN_ORDER..max_order."""
    if max_order < RANDOM_MIN_ORDER:
        return []
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        n = RANDOM_MIN_ORDER + i % (max_order - RANDOM_MIN_ORDER + 1)
        out.append((f"random-tree:{n}:{i}", random_tree(n, rng)))
    return out


# ---------------------------------------------------------------------------
# exhaustive connected bipartite graphs, one per isomorphism class


def connected_bipartite_graphs(max_order: int):
    """One representative per isomorphism class of connected bipartite
    graphs with 2 <= order <= max_order, orders ascending.

    For each side split (a, b), a <= b, biadjacency matrices are listed as
    column multisets in lexicographic order, and each class is kept at its
    least member under row permutations (and the transpose when a == b).
    Connectivity forces a unique bipartition, so these least members are
    exactly the isomorphism classes.

    The listing is orderly: a multiset grows one column at a time, and a
    prefix is cut once some row permutation sorts it below itself. That
    is sound, since the sorted image of an extension is, position by
    position, at most the sorted image of its prefix, so it then sorts
    below the extension too. The transpose is tried only on full
    multisets: it is not monotone in the prefix.
    """
    for n in range(2, max_order + 1):
        for label, g in _bipartite_classes_of_order(n):
            yield label, g


def _bipartite_classes_of_order(n: int):
    out = []
    for a in range(1, n // 2 + 1):
        b = n - a
        for cols in _row_least_multisets((), a, b):
            if a == b and not _nothing_sorts_below(_transpose(cols, a), cols, a):
                continue
            edges = [
                (i, a + j)
                for j, c in enumerate(cols)
                for i in range(a)
                if c >> i & 1
            ]
            g = Graph(n, edges)
            if g.is_connected():
                out.append((f"bipartite:{a},{b}:#{len(out)}", g))
    return out


@functools.cache
def _relabel_tables(bits: int) -> list[tuple[int, ...]]:
    """Per permutation of ``bits`` bit positions, the table that takes each
    int below 2**bits to its bits permuted (bit i to bit perm[i])."""
    return [
        tuple(sum((c >> i & 1) << perm[i] for i in range(bits)) for c in range(1 << bits))
        for perm in itertools.permutations(range(bits))
    ]


def _row_least_multisets(prefix: tuple[int, ...], a: int, b: int):
    """The sorted multisets of b nonzero columns over a rows that extend
    ``prefix`` and that no row relabeling sorts below, lexicographic; a
    prefix that some relabeling sorts below itself is not extended (see
    connected_bipartite_graphs for why that loses none)."""
    if len(prefix) == b:
        yield prefix
        return
    for c in range(prefix[-1] if prefix else 1, 1 << a):
        cols = prefix + (c,)
        if _nothing_sorts_below(cols, cols, a):
            yield from _row_least_multisets(cols, a, b)


def _transpose(cols: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The columns of the transposed a x len(cols) biadjacency matrix."""
    return tuple(sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(a))


def _nothing_sorts_below(m: tuple[int, ...], cols: tuple[int, ...], a: int) -> bool:
    """Whether no relabeling of the a rows of the columns ``m`` sorts
    below ``cols``; stops at the first that does.

    Multisets come in lexicographic order, so each class is met first at
    its least member and kept once. A class whose least member has an
    empty column (a == b, a transpose of an empty row) is never kept; its
    graph has an isolated vertex, so is not connected.
    """
    for table in _relabel_tables(a):
        if tuple(sorted(map(table.__getitem__, m))) < cols:
            return False
    return True


def labeled_connected_bipartite_graphs(n: int):
    """Every labeled connected bipartite graph on n vertices, exactly once.

    Enumerates cross-edge subsets for every split with vertex 0 on side A;
    a connected bipartite graph has a unique bipartition, so it arises
    from exactly one such split. Practical for n <= 6.
    """
    vertices = list(range(n))
    for a_rest in _subsets(vertices[1:]):
        side_a = [0] + list(a_rest)
        side_b = [v for v in vertices if v not in side_a]
        if not side_b:
            continue
        cross = [(u, v) for u in side_a for v in side_b]
        for bits in range(1 << len(cross)):
            edges = [cross[i] for i in range(len(cross)) if bits >> i & 1]
            g = Graph(n, [(min(u, v), max(u, v)) for u, v in edges])
            if g.is_connected():
                yield g


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)
