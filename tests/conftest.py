"""Shared helpers: tiny graph builders and an inline naive-filter oracle.

The naive functions here re-derive everything from itertools.product so
the engine under test shares no code path with its checks.
"""

from __future__ import annotations

import itertools

import pytest

from chromatic_zagreb.graph import Graph


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def naive_chi(g: Graph) -> int:
    for k in range(1, g.order + 1):
        for ass in itertools.product(range(1, k + 1), repeat=g.order):
            if all(ass[u] != ass[v] for u, v in g.edges):
                return k
    raise AssertionError


def naive_alpha(g: Graph) -> int:
    """The most vertices of a subset with no edge inside it."""
    edges = set(g.edges)
    return max(k for k in range(g.order + 1)
               for subset in itertools.combinations(range(g.order), k)
               if not any(pair in edges for pair in itertools.combinations(subset, 2)))


def naive_dsatur(g: Graph) -> list[int]:
    """DSATUR from its definition: color next the uncolored vertex with the
    most distinct neighbour colors, then the highest degree, then the lowest
    index, with the smallest color its neighbours leave free."""
    colors = [0] * g.order
    for _ in range(g.order):
        def rank(v):
            saturation = len({colors[w] for w in g.neighbors(v)} - {0})
            return (-saturation, -g.degree(v), v)
        v = min((u for u in range(g.order) if not colors[u]), key=rank)
        taken = {colors[w] for w in g.neighbors(v)}
        colors[v] = next(c for c in itertools.count(1) if c not in taken)
    return colors


def naive_bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """The two sides of a breadth-first 2-coloring of every component, each
    opened at its lowest vertex, or None when some edge joins one side."""
    side = [-1] * g.order
    for start in range(g.order):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        for u in queue:
            for w in g.neighbors(u):
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
    if any(side[u] == side[v] for u, v in g.edges):
        return None
    return ([v for v in range(g.order) if side[v] == 0],
            [v for v in range(g.order) if side[v] == 1])


def naive_min_colorings(g: Graph, ell: int | None = None) -> list[tuple[int, ...]]:
    if ell is None:
        ell = naive_chi(g)
    full = set(range(1, ell + 1))
    out = []
    for ass in itertools.product(range(1, ell + 1), repeat=g.order):
        if all(ass[u] != ass[v] for u, v in g.edges) and set(ass) == full:
            out.append(ass)
    return out


def naive_set_partitions(n: int) -> list[list[list[int]]]:
    """Every partition of range(n), classes ascending and in first-vertex order."""
    if n == 0:
        return [[]]
    out = []
    for p in naive_set_partitions(n - 1):
        for i in range(len(p)):
            out.append(p[:i] + [p[i] + [n - 1]] + p[i + 1:])
        out.append(p + [[n - 1]])
    return out


def naive_canonical_partition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The least of the partitions into chi independent classes, compared as
    tuples of ascending classes in first-vertex order."""
    independent = [
        tuple(tuple(cls) for cls in p)
        for p in naive_set_partitions(g.order)
        if not any(g.has_edge(u, v) for cls in p for u, v in itertools.combinations(cls, 2))
    ]
    chi = min(len(p) for p in independent)
    return min(p for p in independent if len(p) == chi)


def naive_extrema(g: Graph) -> dict[int, tuple[int, int]]:
    edges = g.edges
    values = {1: [], 2: [], 3: []}
    for ass in naive_min_colorings(g):
        values[1].append(sum(c * c for c in ass))
        values[2].append(sum(ass[u] * ass[v] for u, v in edges))
        values[3].append(sum(abs(ass[u] - ass[v]) for u, v in edges))
    return {k: (min(v), max(v)) for k, v in values.items()}


def naive_extrema_witnesses(g: Graph) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Each of the six extrema with its lexicographically least witness.

    itertools.product runs in lexicographic order, so the first strict
    improvement is the least assignment attaining each value.
    """
    edges = g.edges
    best: dict[str, tuple[int, tuple[int, ...]]] = {}
    for ass in naive_min_colorings(g):
        values = (
            sum(c * c for c in ass),
            sum(ass[u] * ass[v] for u, v in edges),
            sum(abs(ass[u] - ass[v]) for u, v in edges),
        )
        for k, val in enumerate(values, 1):
            lo, hi = f"cm{k}_min", f"cm{k}_max"
            if lo not in best or val < best[lo][0]:
                best[lo] = (val, ass)
            if hi not in best or val > best[hi][0]:
                best[hi] = (val, ass)
    return best


@pytest.fixture(scope="session")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")

    def validate(instance, schema_name):
        import json
        from importlib import resources

        schema = json.loads(
            resources.files("chromatic_zagreb.schemas")
            .joinpath(schema_name)
            .read_text()
        )
        jsonschema.validate(instance=instance, schema=schema)

    return validate


@pytest.fixture
def meters(monkeypatch):
    """Every Meter a top-level call starts, in order; ``spent`` reads the
    units charged to it."""
    from chromatic_zagreb import coloring, indices, stability

    started = []

    class Recorded(coloring.Meter):
        def __init__(self, cap=None):
            super().__init__(cap)
            self.cap = self.left
            started.append(self)

        @property
        def spent(self):
            return self.cap - self.left

    monkeypatch.setattr(indices, "Meter", Recorded)
    monkeypatch.setattr(stability, "Meter", Recorded)
    return started
