"""Exact chromatic number and exhaustive enumeration of minimum colorings.

Colors are 1-based integers; a minimum coloring of G uses exactly
chi(G) colors and every color at least once. One is found by the only
coloring search here, a DSATUR branch and bound, :func:`_dsatur`, which
also answers every k-colorability question: those of
:func:`find_coloring` and of the canonical partition. Two enumeration
semantics are provided:

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

A partition is always held as its restricted-growth string: a tuple that
gives each vertex its 0-based class, the classes numbered in order of
their first vertex. Labels p_0, p_1, ... of its classes then color vertex
v with p[partition[v]], and label order is assignment order.
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


def _dsatur(masks: tuple[int, ...] | list[int], n: int, k: int, enough: int) -> list[int] | None:
    """DSATUR branch and bound: a proper coloring with at most k colors, or None.

    Each step colors the uncolored vertex with the most distinct neighbour
    colors, then the highest degree, then the lowest index, with the free
    colors in ascending order, at most one past those its component uses:
    a vertex with no colored neighbour opens a component and is pinned to
    color 1. So the first full coloring is DSATUR's greedy one. After a
    full coloring with j colors the search backs up to the first vertex
    that wears j and looks for j - 1. It returns the first coloring with at
    most ``enough`` colors, else the last it found, which is optimal: a
    component's first vertex out of colors means that component has no
    coloring within the bound.

    ``enough`` rises to the largest clique the search meets, a lower bound
    on chi, so a coloring with that many colors is known optimal at once.
    A component's first vertex opens a clique, and each next vertex whose
    saturation equals the clique's size joins it: only the members are
    colored in that component, each with its own color, so it sees them
    all. The first vertex that does not join ends the clique, as does a
    step back. While ``enough`` stays at most chi, the coloring returned
    does not depend on it.

    The next vertex comes from a heap of (-score, v), score = saturation *
    n + degree. Scores only grow on the way down, so a raised score is
    pushed anew and an outdated entry, or one of a colored vertex, is
    skipped when popped; a step back lowers scores, so the heap is rebuilt.
    Colors never pass min(k, max degree + 1), which sizes the color counts.
    """
    if n == 0:
        return []
    nbrs = [list(_vertices(m)) for m in masks]
    score = [len(a) for a in nbrs]
    width = min(k, max(score) + 1) + 1
    seen = [0] * (n * width)  # seen[v * width + c]: v's colored neighbours that wear c
    colors = [0] * n
    order = [0] * n  # order[d]: the vertex colored at depth d
    top = [0] * n  # top[d]: the colors order[d]'s component wears above depth d
    best = None
    bound = k
    heap: list[tuple[int, int]] | None = None
    d = c = 0  # c: the color last tried at depth d, 0 on entering it
    run = 0  # the clique of the current component's first vertices, 0 once ended
    while True:
        if not c:
            if heap is None:
                heap = [(-score[v], v) for v in range(n) if not colors[v]]
                heapq.heapify(heap)
            s, v = heapq.heappop(heap)
            while colors[v] or -s != score[v]:
                s, v = heapq.heappop(heap)
            order[d] = v
            if s > -n:  # no colored neighbour: v opens a component
                top[d] = 0
                run = 1
            else:
                top[d] = max(top[d - 1], colors[order[d - 1]])
                run = run + 1 if run == -s // n else 0
            enough = max(enough, run)
        v = order[d]
        limit = min(bound, top[d] + 1)
        c += 1
        while c <= limit and seen[v * width + c]:
            c += 1
        if c <= limit:
            colors[v] = c
            for w in nbrs[v]:
                i = w * width + c
                seen[i] += 1
                if seen[i] == 1:
                    score[w] += n
                    if heap is not None and not colors[w]:
                        heapq.heappush(heap, (-score[w], w))
            d += 1
            c = 0
            if d < n:
                continue
            best = colors[:]
            bound = max(best) - 1
            if bound < enough:
                return best
            back = next(i for i, u in enumerate(order) if colors[u] > bound)
        elif not top[d]:
            return best
        else:
            back = d - 1
        heap = None
        run = 0
        while d > back:  # uncolor the vertices below back and the one at it
            d -= 1
            v = order[d]
            c = colors[v]
            colors[v] = 0
            for w in nbrs[v]:
                i = w * width + c
                seen[i] -= 1
                if not seen[i]:
                    score[w] -= n


def find_coloring(g: Graph, k: int) -> Coloring | None:
    """A proper coloring of g using at most k colors, or None if impossible.

    It is the DSATUR search's first coloring within k colors, so the colors
    it uses are 1..l for some l <= k.
    """
    raw = _dsatur(g.adjacency_masks, g.order, k, k)
    return None if raw is None else Coloring.from_assignment(raw)


def _min_coloring(masks: tuple[int, ...], n: int) -> list[int]:
    """A proper coloring of the graph on masks that uses exactly chi colors.

    Colors are 1..chi, every one used: the DSATUR branch and bound's first
    coloring with as many colors as its clique bound, or its last, which is
    optimal. Edgeless and bipartite inputs take its first, greedy, coloring.
    """
    return _dsatur(masks, n, n, 1)


def chromatic_number(g: Graph) -> int:
    """Exact chi(g), for any simple graph of order >= 1.

    The number of colors of the witness :func:`_min_coloring` builds: a
    DSATUR branch and bound improves on its greedy first coloring until it
    meets the largest clique it saw, or proves that it cannot.
    """
    if g.order < 1:
        raise ValueError("chromatic number needs order >= 1")
    return max(_min_coloring(g.adjacency_masks, g.order))


# ---------------------------------------------------------------------------
# enumeration


def _iter_chi_partitions(
    g: Graph, ell: int, meter: Meter | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every partition of V into exactly ell independent classes.

    Classes are discovered in first-vertex order (restricted-growth
    search), so each set partition appears exactly once, as its
    restricted-growth string, in lexicographic order of the strings. The
    search keeps an explicit stack, so its depth is not bounded by the
    recursion limit.
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
                yield tuple(placed)
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


def canonical_partition(g: Graph, coloring: list[int] | None = None) -> tuple[int, ...]:
    """The lexicographically least proper chi-partition, built class by
    class, as its restricted-growth string.

    Partitions compare as tuples of ascending classes in first-vertex
    order, and a class that is a proper prefix of another is the smaller;
    that is not the order of their strings. So each class opens at the
    smallest unplaced vertex, closes as soon as the unplaced rest has a
    proper coloring with the classes still missing, and otherwise takes
    the smallest later vertex that keeps a completion feasible. A vertex
    skipped there stays out of the class with no further check: a
    completion holding it and later members would also complete the
    members it was refused with.

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
    partition = [0] * n
    for built in range(ell):
        k = ell - built  # classes still to build, the open one included
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
                found = _dsatur(_induced(masks, rest), n, k - 1, k - 1)
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
                found = _dsatur(sub, n, k, k)
                if found is not None:
                    witness = _classes_of(found, live, k)
                    witness[found[opener] - 1] |= grown
                    break
            members |= 1 << x
            blocked |= masks[x]
        for v in _vertices(members):
            partition[v] = built
        unplaced ^= members
    return tuple(partition)


def label_partition(partition: tuple[int, ...], labels: tuple[int, ...]) -> tuple[int, ...]:
    """The assignment that gives every vertex of class i color labels[i]."""
    return tuple([labels[i] for i in partition])


def colorings_of_partition(partition: tuple[int, ...]) -> Iterator[Coloring]:
    """All ell! labelings of one partition, lazily, in assignment order.

    With the classes in first-vertex order, two labelings first differ at
    the first vertex of the first class they color differently, so the
    lexicographic order of the label permutations is that of the
    assignments.
    """
    ell = max(partition) + 1
    for labels in itertools.permutations(range(1, ell + 1)):
        yield Coloring(label_partition(partition, labels), ell)


def _iter_all_min_colorings(g: Graph, ell: int) -> Iterator[Coloring]:
    """Every minimum coloring of g with ell = chi colors, lexicographic.

    A minimum coloring labels exactly one chi-partition, and the labelings
    of each come in assignment order, so merging the partitions' streams
    orders them all. The first ``next()`` walks, and holds, every
    chi-partition.
    """
    # one call per partition: each stream binds its own partition
    streams = [colorings_of_partition(p) for p in _iter_chi_partitions(g, ell)]
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
        yield from colorings_of_partition(canonical_partition(g, coloring))
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
