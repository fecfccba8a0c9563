"""Immutable simple undirected graphs on dense 0-based vertex indices."""

from __future__ import annotations

from typing import Iterable


class Graph:
    """Finite simple undirected graph with vertices 0..order-1.

    Adjacency is stored as one integer bitmask per vertex, which keeps
    neighbourhood tests and degree counts cheap inside the exhaustive
    searches built on top, and as ascending neighbour tuples, built on
    first use, which the coloring searches walk. Instances are immutable
    and hashable, by order and masks.
    """

    __slots__ = ("_order", "_masks", "_edges", "_lists", "_hash")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        masks = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._order = order
        self._masks = tuple(masks)
        pairs = []
        for u in range(order):
            rest = masks[u] >> (u + 1)
            while rest:
                low = rest & -rest
                pairs.append((u, u + 1 + low.bit_length() - 1))
                rest ^= low
        self._edges = tuple(pairs)
        self._lists: tuple[tuple[int, ...], ...] | None = None
        self._hash = hash((order, self._masks))

    @property
    def order(self) -> int:
        return self._order

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return self._edges

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks (bit v of mask u set iff uv is an edge)."""
        return self._masks

    @property
    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbours, ascending: built once, on first use."""
        if self._lists is None:
            nbrs: list[list[int]] = [[] for _ in range(self._order)]
            for u, v in self._edges:  # u ascending, so both lists fill in order
                nbrs[u].append(v)
                nbrs[v].append(u)
            self._lists = tuple(map(tuple, nbrs))
        return self._lists

    def degree(self, v: int) -> int:
        if not 0 <= v < self._order:
            raise IndexError(f"vertex {v} out of range for order {self._order}")
        return self._masks[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._masks)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self._order:
            raise IndexError(f"vertex {v} out of range for order {self._order}")
        return self.adjacency_lists[v]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._order and 0 <= v < self._order):
            raise IndexError(f"pair ({u}, {v}) out of range for order {self._order}")
        return bool(self._masks[u] >> v & 1)

    def non_edges(self) -> tuple[tuple[int, int], ...]:
        """All vertex pairs u < v that are not edges."""
        full = (1 << self._order) - 1
        pairs = []
        for u in range(self._order):
            rest = (full & ~self._masks[u]) >> (u + 1)
            while rest:
                low = rest & -rest
                pairs.append((u, u + low.bit_length()))
                rest ^= low
        return tuple(pairs)

    def with_extra_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given pairs added as edges."""
        return Graph(self._order, list(self._edges) + list(extra))

    def is_connected(self) -> bool:
        if self._order <= 1:
            return True
        seen = 1
        frontier = 1
        masks = self._masks
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= masks[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self._order) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._order == other._order and self._masks == other._masks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(order={self._order}, size={self.size})"
