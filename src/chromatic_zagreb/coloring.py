"""Exact chromatic number and exhaustive enumeration of minimum colorings.

Colors are 1-based integers; a minimum coloring of G uses exactly
chi(G) colors and every color at least once. Two enumeration semantics
are provided:

* ``all``: every proper surjective assignment V -> {1..chi}, each exactly
  once, in lexicographic order of the assignment sequence. These are the
  chi! labelings of every chi-partition (partitions of V into chi
  independent classes), merged from one restricted-growth walk over the
  partitions.
* ``permutation``: one canonical chi-partition (lexicographically least
  sorted vertex-set representation over all proper chi-partitions)
  crossed with all chi! color label permutations.

For connected bipartite graphs the proper 2-partition is unique, so the
two semantics emit the same set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Literal

from .graph import Graph

Semantics = Literal["all", "permutation"]


class EnumerationBudgetExceeded(Exception):
    """Raised internally when a search passes its call's work cap."""


# the work cap of one top-level call, an extrema report or a stability
# number, in the units a Meter counts
WORK_CAP = 2**20


class Meter:
    """The work budget of one top-level call, shared by all its searches.

    Each search charges the work it does, in units of a step, a move, an
    edge or a labeling; past the cap, WORK_CAP unless given, a charge
    raises EnumerationBudgetExceeded.
    """

    def __init__(self, cap: float | None = None) -> None:
        self.left = WORK_CAP if cap is None else cap

    def charge(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise EnumerationBudgetExceeded()

    def share(self, units: float) -> Meter:
        """A meter for up to ``units`` of what is left here, taken now."""
        units = min(units, self.left)
        self.left -= units
        return type(self)(units)


@dataclass(frozen=True)
class Coloring:
    """Proper-coloring value object: vertex -> 1-based color index.

    Invariants enforced at construction: every color lies in 1..palette_size
    and every color index in that range is used at least once (surjectivity).
    Properness is relative to a graph and checked by :func:`is_proper`.
    """

    assignment: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        if len(self.assignment) == 0:
            raise ValueError("coloring must cover at least one vertex")
        used = set(self.assignment)
        if min(used) < 1 or max(used) > self.palette_size:
            raise ValueError(
                f"colors must lie in 1..{self.palette_size}, got {sorted(used)}"
            )
        if len(used) != self.palette_size:
            missing = set(range(1, self.palette_size + 1)) - used
            raise ValueError(f"colors {sorted(missing)} unused; coloring must be surjective")

    @classmethod
    def from_assignment(cls, assignment: tuple[int, ...] | list[int]) -> "Coloring":
        seq = tuple(assignment)
        return cls(seq, max(seq) if seq else 0)

    def color(self, v: int) -> int:
        return self.assignment[v]


def strengths(c: Coloring) -> tuple[int, ...]:
    """The color class sizes: entry j-1 counts the vertices wearing color j."""
    counts = [0] * c.palette_size
    for col in c.assignment:
        counts[col - 1] += 1
    return tuple(counts)


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge of g is monochromatic under c."""
    if len(c.assignment) != g.order:
        raise ValueError(
            f"coloring covers {len(c.assignment)} vertices, graph has {g.order}"
        )
    a = c.assignment
    return all(a[u] != a[v] for u, v in g.edges)


# ---------------------------------------------------------------------------
# chromatic number


def _bipartition(masks: tuple[int, ...], n: int) -> tuple[list[int], list[int]] | None:
    """Two-color each component; return the (side0, side1) lists or None."""
    color = [-1] * n
    sides: tuple[list[int], list[int]] = ([], [])
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        sides[0].append(start)
        stack = [start]
        while stack:
            u = stack.pop()
            m = masks[u]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    sides[color[w]].append(w)
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return sides


def _greedy_clique(masks: tuple[int, ...], n: int) -> int:
    """Greedy clique size, used as a lower bound on chi."""
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: -masks[v].bit_count())
    best = 1
    for start in order[: min(n, 8)]:
        clique_mask = 1 << start
        size = 1
        candidates = masks[start]
        while candidates:
            pick = -1
            pick_deg = -1
            m = candidates
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                d = (masks[v] & candidates).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            clique_mask |= 1 << pick
            size += 1
            candidates &= masks[pick]
        best = max(best, size)
    return best


def _greedy_coloring(masks: tuple[int, ...], n: int) -> list[int]:
    """DSATUR greedy coloring; colors 1..k with every one used.

    The next vertex has the most distinct neighbour colors, then the
    highest degree, then the lowest index; score = saturation * n + degree
    orders the first two, and a heap of (-score, v) the three. Scores only
    grow, so a raised score is pushed anew and the entry it outdates, or
    one of a colored vertex, is skipped when popped.
    """
    colors = [0] * n
    forbidden = [0] * n  # bitmask of colors used by colored neighbours (bit c-1)
    score = [m.bit_count() for m in masks]
    heap = [(-s, v) for v, s in enumerate(score)]
    heapq.heapify(heap)
    while heap:
        s, v = heapq.heappop(heap)
        if colors[v] or -s != score[v]:
            continue
        c = 1
        while forbidden[v] >> (c - 1) & 1:
            c += 1
        colors[v] = c
        bit = 1 << (c - 1)
        m = masks[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if not forbidden[w] & bit:
                forbidden[w] |= bit
                score[w] += n
                if not colors[w]:
                    heapq.heappush(heap, (-score[w], w))
    return colors


def _colors_in(mask: int, colors: list[int]) -> int:
    """Bit c-1 set for each color c > 0 that colors gives a vertex of mask."""
    seen = 0
    while mask:
        low = mask & -mask
        seen |= 1 << colors[low.bit_length() - 1] >> 1
        mask ^= low
    return seen


def _search_k_coloring(masks: tuple[int, ...], n: int, k: int) -> list[int] | None:
    """Backtracking: find a proper coloring with at most k colors, else None.

    Vertices are tried component by component, in the order of their
    components' first vertices by descending degree, and each component
    in that order; a connected graph keeps it whole. The first vertex of
    each component is pinned to color 1 and each later one may open at
    most one color new to its component, which breaks color-label
    symmetry without losing completeness. Components share no edge, so
    when a component's first vertex runs out of colors the component has
    no k-coloring, and the search stops there instead of retrying the
    components before it. An explicit stack keeps deep searches clear of
    the recursion limit.
    """
    if n == 0:
        return []
    if k < 1:
        return None
    order = sorted(range(n), key=lambda v: (-masks[v].bit_count(), v))
    first = [-1] * n  # first[v]: the place in order of the first vertex of v's component
    for i, s in enumerate(order):
        if first[s] < 0:
            first[s] = i
            stack = [s]
            while stack:
                for w in _vertices(masks[stack.pop()]):
                    if first[w] < 0:
                        first[w] = i
                        stack.append(w)
    order.sort(key=first.__getitem__)  # stable, so each component keeps its order
    opens = [i == 0 or first[v] != first[order[i - 1]] for i, v in enumerate(order)]
    colors = [0] * n  # at depth i, colors[order[i]] is the color tried last
    banned = [0] * n  # at depth i: the colors of order[i]'s colored neighbours
    opened = [0] * (n + 1)  # opened[i]: colors used by order[:i] in order[i - 1]'s component
    i = 0
    while True:
        v = order[i]
        c = colors[v]
        if not c:  # entering depth i
            banned[i] = _colors_in(masks[v], colors)
        forbidden = banned[i]
        used = 0 if opens[i] else opened[i]
        limit = min(k, used + 1)
        c += 1
        while c <= limit and forbidden >> (c - 1) & 1:
            c += 1
        if c > limit:  # every color at depth i is spent: back up
            if opens[i]:
                return None
            colors[v] = 0
            i -= 1
            continue
        colors[v] = c
        opened[i + 1] = max(used, c)
        i += 1
        if i == n:
            return colors


def _k_coloring(masks: tuple[int, ...] | list[int], n: int, k: int) -> list[int] | None:
    """A proper coloring with at most k colors, or None: the two-coloring
    sweep for k = 2, the backtracking search for any other k."""
    if k == 2:
        sides = _bipartition(masks, n)
        if sides is None:
            return None
        colors = [1] * n
        for v in sides[1]:
            colors[v] = 2
        return colors
    return _search_k_coloring(tuple(masks), n, k)


def find_coloring(g: Graph, k: int) -> Coloring | None:
    """A proper coloring of g using at most k colors, or None if impossible.

    The returned coloring is renumbered so the colors actually used form
    1..l for some l <= k.
    """
    raw = _k_coloring(g.adjacency_masks, g.order, k)
    if raw is None:
        return None
    remap: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in remap:
            remap[c] = len(remap) + 1
        out.append(remap[c])
    return Coloring.from_assignment(out)


def _min_coloring(masks: tuple[int, ...], n: int) -> list[int]:
    """A proper coloring of the graph on masks that uses exactly chi colors.

    Colors are 1..chi, every one used. The witness comes from the
    two-coloring sweep on bipartite inputs, from DSATUR when its count
    meets the lower bound, and otherwise from the first k-coloring the
    backtracking search finds between the clique bound and DSATUR.
    """
    if not any(masks):
        return [1] * n
    two = _k_coloring(masks, n, 2)
    if two is not None:
        return two
    greedy = _greedy_coloring(masks, n)
    upper = max(greedy)
    if upper == 3:  # chi >= 3 without a two-coloring, so DSATUR is optimal
        return greedy
    for k in range(max(3, _greedy_clique(masks, n)), upper):
        found = _search_k_coloring(masks, n, k)
        if found is not None:
            return found
    return greedy


def chromatic_number(g: Graph) -> int:
    """Exact chi(g), for any simple graph of order >= 1.

    The number of colors of the witness :func:`_min_coloring` builds:
    edgeless and bipartite inputs are read off directly; otherwise a DSATUR
    greedy coloring bounds chi from above, 3 and a greedily grown clique
    from below, and exhaustive backtracking closes the gap.
    """
    if g.order < 1:
        raise ValueError("chromatic number needs order >= 1")
    return max(_min_coloring(g.adjacency_masks, g.order))


# ---------------------------------------------------------------------------
# enumeration


def _iter_chi_partitions(
    g: Graph, ell: int, meter: Meter | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every partition of V into exactly ell independent classes.

    Classes are discovered in first-vertex order (restricted-growth
    search), so each set partition appears exactly once, with its classes
    in first-vertex order and each class ascending. The search keeps an
    explicit stack, so its depth is not bounded by the recursion limit.
    It charges ``meter``, when given, one unit per backtrack, dead ends
    too, and n per partition, so it stops where that meter's cap is met.
    """
    meter = meter or Meter(float("inf"))
    n = g.order
    masks = g.adjacency_masks
    class_masks: list[int] = []
    placed = [0] * n  # the class each placed vertex joined or opened
    # next option at each depth: k < len(class_masks) joins class k,
    # k == len(class_masks) opens a new class
    option = [0] * (n + 1)
    v = 0
    while v >= 0:
        if v == n:
            if len(class_masks) == ell:
                meter.charge(n)
                classes: list[list[int]] = [[] for _ in range(ell)]
                for u in range(n):
                    classes[placed[u]].append(u)
                # from a list: a tuple built from an iterator is resized, and
                # CPython's tuple free list then keeps it once freed (peak RSS)
                yield tuple([tuple(members) for members in classes])
        else:
            opened = len(class_masks)
            k = option[v]
            # joining an existing class leaves at most n - v - 1 chances
            # to open the classes still missing
            if opened + n - v - 1 >= ell:
                while k < opened and masks[v] & class_masks[k]:
                    k += 1
            else:
                k = max(k, opened)
            if k < opened or (k == opened and opened < ell):
                option[v] = k + 1
                placed[v] = k
                if k < opened:
                    class_masks[k] |= 1 << v
                else:
                    class_masks.append(1 << v)
                v += 1
                option[v] = 0
                continue
        # every option at v is spent: undo the placement of v - 1
        meter.charge(1)
        v -= 1
        if v >= 0:
            k = placed[v]
            if class_masks[k] == 1 << v:  # v opened this class
                class_masks.pop()
            else:
                class_masks[k] ^= 1 << v


def _vertices(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced(masks: tuple[int, ...], live: int) -> list[int]:
    """The masks of the subgraph induced by live; other vertices isolated."""
    sub = [0] * len(masks)
    for v in _vertices(live):
        sub[v] = masks[v] & live
    return sub


def _classes_of(colors: list[int], live: int, k: int) -> list[int]:
    """Per color 1..k, the bitmask of the vertices of live that wear it."""
    classes = [0] * k
    for v in _vertices(live):
        classes[colors[v] - 1] |= 1 << v
    return classes


def canonical_partition(
    g: Graph, coloring: list[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least proper chi-partition, built class by class.

    Partitions compare as tuples of ascending classes in first-vertex
    order, and a class that is a proper prefix of another is the smaller.
    So each class opens at the smallest unplaced vertex, closes as soon as
    the unplaced rest has a proper coloring with the classes still
    missing, and otherwise takes the smallest later vertex that keeps a
    completion feasible. A vertex skipped there stays out of the class
    with no further check: a completion holding it and later members
    would also complete the members it was refused with.

    Each step is answered first from a witness coloring of the unplaced
    vertices, kept as per-color class bitmasks and started from
    :func:`_min_coloring`: it says yes when its open class holds the
    candidate, or equals the members. Otherwise a candidate asks for a
    k-coloring of the unplaced vertices with the open class's members
    merged into one vertex, and the coloring that answers yes becomes the
    witness. A caller that already holds a chi-coloring of g (colors
    1..chi, as from :func:`_min_coloring`) may pass it; it must use chi
    colors, so that "at most k colors" for the rest means exactly k.
    """
    n = g.order
    masks = g.adjacency_masks
    if coloring is None:
        coloring = _min_coloring(masks, n)
    ell = max(coloring, default=0)
    unplaced = (1 << n) - 1
    witness = _classes_of(coloring, unplaced, ell)
    partition = []
    while unplaced:
        k = ell - len(partition)  # classes still to build, the open one included
        opener = (unplaced & -unplaced).bit_length() - 1
        members = 1 << opener
        blocked = masks[opener]  # the neighbours of the members
        while True:
            open_i = next(i for i, cls in enumerate(witness) if cls >> opener & 1)
            own = witness[open_i]
            rest = unplaced ^ members
            if own == members:
                del witness[open_i]
                break
            if k == 2:  # the rest is edgeless unless own - members has a neighbour in it
                other = rest & ~own
                if not any(masks[v] & other for v in _vertices(own ^ members)):
                    witness = [rest]
                    break
            elif k > 2:
                found = _k_coloring(_induced(masks, rest), n, k - 1)
                if found is not None:
                    witness = _classes_of(found, rest, k - 1)
                    break
            for x in _vertices(unplaced & ~blocked & -(1 << members.bit_length())):
                if own >> x & 1:
                    break
                grown = members | 1 << x
                live = unplaced & ~grown
                sub = _induced(masks, live | 1 << opener)
                merged = (blocked | masks[x]) & live
                sub[opener] = merged
                for v in _vertices(merged):
                    sub[v] |= 1 << opener
                found = _k_coloring(sub, n, k)
                if found is not None:
                    witness = _classes_of(found, live, k)
                    witness[found[opener] - 1] |= grown
                    break
            members |= 1 << x
            blocked |= masks[x]
        partition.append(tuple(_vertices(members)))
        unplaced ^= members
    return tuple(partition)


def label_partition(
    partition: tuple[tuple[int, ...], ...], labels: tuple[int, ...], n: int
) -> tuple[int, ...]:
    """The assignment that gives every vertex of partition[i] color labels[i]."""
    assignment = [0] * n
    for label, members in zip(labels, partition):
        for v in members:
            assignment[v] = label
    return tuple(assignment)


def colorings_of_partition(
    partition: tuple[tuple[int, ...], ...], n: int
) -> Iterator[Coloring]:
    """All ell! labelings of one partition, lazily, in assignment order.

    With the classes in first-vertex order, two labelings first differ at
    the first vertex of the first class they color differently, so the
    lexicographic order of the label permutations is that of the
    assignments.
    """
    classes = sorted(partition, key=min)
    ell = len(classes)
    for labels in itertools.permutations(range(1, ell + 1)):
        yield Coloring(label_partition(classes, labels, n), ell)


def _iter_all_min_colorings(g: Graph, ell: int) -> Iterator[Coloring]:
    """Every minimum coloring of g with ell = chi colors, lexicographic.

    A minimum coloring labels exactly one chi-partition, and the labelings
    of each come in assignment order, so merging the partitions' streams
    orders them all. The first ``next()`` walks, and holds, every
    chi-partition.
    """
    # one call per partition: each stream binds its own partition
    streams = [colorings_of_partition(p, g.order) for p in _iter_chi_partitions(g, ell)]
    yield from heapq.merge(*streams, key=attrgetter("assignment"))


def enumerate_min_colorings(g: Graph, semantics: Semantics = "all") -> Iterator[Coloring]:
    """Stream the minimum colorings of g under the chosen semantics.

    Emission is deterministic (lexicographic by assignment sequence) and
    uncapped. Under ``permutation`` it is lazy. Under ``all`` the first
    coloring comes only after every chi-partition has been walked and held,
    and the stream then runs to chi! colorings per partition; stopping
    early saves the labelings, not the partition walk.
    """
    if g.order < 1:
        raise ValueError("enumeration needs order >= 1")
    coloring = _min_coloring(g.adjacency_masks, g.order)
    ell = max(coloring)
    if semantics == "all":
        yield from _iter_all_min_colorings(g, ell)
    elif semantics == "permutation":
        yield from colorings_of_partition(canonical_partition(g, coloring), g.order)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
