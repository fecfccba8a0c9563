"""Exact chromatic number and exhaustive enumeration of minimum colorings.

Colors are 1-based integers; a minimum coloring of G uses exactly
chi(G) colors and every color at least once. Every coloring question,
chi, k-colorability and the walks over partitions, runs on one metered
search, :func:`_search`, but for a minimum coloring of a graph with
chi <= 2: a linear walk gives the search's coloring at its charge. Two
enumeration semantics are provided:

* ``all``: every proper surjective assignment V -> {1..chi}, each exactly
  once, in lexicographic order of the assignment sequence. These are the
  chi! labelings of every chi-partition (partitions of V into chi
  independent classes), merged into one stream.
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
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Literal

from .graph import Graph

Semantics = Literal["all", "permutation"]


class EnumerationBudgetExceeded(Exception):
    """Raised past a meter's work cap, or on a result it left inexact that must be exact."""


# the cap of one Meter, in the units it counts. A stability report or a
# chromatic number runs on one meter; an extrema report that falls back to
# the canonical partition builds it on a fresh one, so one full_report can
# spend two caps
WORK_CAP = 2**20


class Meter:
    """A work budget, shared by all the searches that charge it (see WORK_CAP).

    Each search charges the work it does, in units of a search node, a
    vertex, a move, an edge or a labeling; past the cap, WORK_CAP unless
    given, a charge raises EnumerationBudgetExceeded.
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
# the coloring search


def _vertices(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(
    nbrs: tuple[tuple[int, ...], ...], live: int, k: int, pin: bool, meter: Meter, fixed: int = 0
) -> Iterator[list[int]]:
    """The coloring search: yield proper colorings of ``live`` within k
    colors, each as one list of every vertex's color (-1 off live), valid
    until the next ``next()``; ``fixed`` wears color 1 throughout.

    Each step colors the uncolored vertex with the most distinct neighbour
    colors, then the highest degree, then the lowest index (DSATUR), with
    the free colors ascending, at most one past those used (restricted
    growth). Its state counts per vertex and color the neighbours wearing
    it. ``pin`` is the one switch between the kinds of caller:

    * set, deciding: a vertex with no colored neighbour opens a component
      and is pinned to color 1, and growth counts its component's colors.
      After a coloring with j colors the search backs up to the first
      vertex wearing j and looks for j - 1. It ends when a component's
      first vertex runs out of colors, which proves the last coloring
      optimal, or at once when that first vertex wearing j sits at depth
      j - 1: each vertex above it then opened a color and wears the
      largest color growth allows, so none has one left to try. That stop
      assumes no ``fixed`` vertices; their caller takes only the first
      coloring.
    * clear, enumerating: growth counts the colors of the whole graph, as
      a class may span components, and a vertex joins a used color only
      while the vertices left can still open the rest, so every partition
      into exactly k independent classes comes once.

    The next vertex comes from a heap of (-score, v), score = saturation *
    n + degree: a raised score is pushed anew, a stale entry skipped, and a
    step back rebuilds it from the uncolored vertices, ``order[d:]``. It
    charges ``meter`` the live vertices, then a unit per vertex colored.
    """
    n = len(nbrs)
    colors = [0 if live >> v & 1 else -1 for v in range(n)]
    order = [v for v in range(n) if not colors[v]]  # order[d]: the vertex colored at depth d
    count = len(order)
    meter.charge(count)
    floor = 0 if pin else k  # the colors a full coloring must use
    if count < floor:
        return
    if not count:
        yield colors
        return
    place = {v: d for d, v in enumerate(order)}
    score = [len(a) for a in nbrs]
    # colors never pass k, nor, when pinned, max degree + 1; that sizes the counts
    width = (min(k, max(score) + 1) if pin else k) + 1
    seen = [0] * (n * width)  # seen[v * width + c]: v's colored neighbours that wear c
    for v in _vertices(fixed):
        colors[v] = 1
        for w in nbrs[v]:
            seen[w * width + 1] += 1
            if seen[w * width + 1] == 1:
                score[w] += n
    # top[d]: the colors used above depth d, by its component if pinned
    top = [1 if fixed else 0] + [0] * count
    bound = k
    heap: list[tuple[int, int]] | None = None
    d = c = 0  # c: the color last tried at depth d, 0 on entering it
    while True:
        if not c:
            if heap is None:
                heap = [(-score[v], v) for v in order[d:]]
                heapq.heapify(heap)
            s, v = heapq.heappop(heap)
            while colors[v] or -s != score[v]:
                s, v = heapq.heappop(heap)
            u = order[d]  # swap v into place d
            order[place[v]], place[u] = u, place[v]
            order[d], place[v] = v, d
            if pin and s > -n:  # no colored neighbour: v opens a component
                top[d] = 0
        v = order[d]
        used = top[d]
        limit = used + 1 if used < bound else bound
        c += 1
        if used + count - d <= floor and c < limit:  # each vertex left must open a color
            c = limit
        base = v * width
        while c <= limit and seen[base + c]:
            c += 1
        if c <= limit:
            meter.charge(1)
            colors[v] = c
            for w in nbrs[v]:
                i = w * width + c
                seen[i] += 1
                if seen[i] == 1:
                    score[w] += n
                    if heap is not None and not colors[w]:
                        heapq.heappush(heap, (-score[w], w))
            d += 1
            top[d] = c if c > used else used
            c = 0
            if d < count:
                continue
            yield colors
            back = d - 1
            if pin:
                bound = max(colors) - 1
                back = next(i for i, u in enumerate(order) if colors[u] > bound)
                if back == bound:
                    return
        elif not (d and used):  # the search's first vertex, or a pinned opener
            return
        else:
            back = d - 1
        heap = None
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
    """A proper coloring of g using at most k colors, or None if impossible:
    the deciding search's first, on a fresh Meter, so it uses 1..l, l <= k."""
    raw = next(_search(g.adjacency_lists, (1 << g.order) - 1, k, True, Meter()), None)
    return None if raw is None else Coloring.from_assignment(raw)


def _two_coloring(g: Graph) -> list[int] | None:
    """DSATUR's coloring of g when chi <= 2, else None.

    Each component is walked level by level on the adjacency masks; an
    edge inside a level closes an odd cycle, so g is not 2-colorable
    (Koenig) and the walk stops. Otherwise the component's vertex of
    highest degree, lowest index on ties, wears color 1 and the other
    side 2: DSATUR pins the vertex that opens a component to color 1,
    colors that component before it opens the next and, on a bipartite
    graph, never backtracks.
    """
    masks = g.adjacency_masks
    colors = [2] * g.order
    rest = (1 << g.order) - 1
    while rest:
        frontier = rest & -rest
        sides = [0, 0]  # the even and the odd levels
        level = 0
        top = opener = -1  # the highest degree so far, and its vertex
        while frontier:
            sides[level] |= frontier
            rest ^= frontier
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                v = low.bit_length() - 1
                nxt |= masks[v]
                degree = masks[v].bit_count()
                if degree > top or degree == top and v < opener:
                    top, opener = degree, v
                m ^= low
            if nxt & frontier:
                return None
            frontier = nxt & rest
            level ^= 1
        for v in _vertices(sides[0] if sides[0] >> opener & 1 else sides[1]):
            colors[v] = 1
    return colors


def _min_coloring(g: Graph, meter: Meter) -> list[int]:
    """A proper coloring of g that uses exactly chi colors, 1..chi, charged
    to ``meter``. A graph with chi <= 2 takes :func:`_two_coloring`'s, the
    deciding search's first coloring, at the search's charge of 2n: n live
    vertices, then a unit per vertex colored. Any other input takes the
    search's last."""
    colors = _two_coloring(g)
    if colors is not None:
        meter.charge(2 * g.order)
        return colors
    best: list[int] = []
    for colors in _search(g.adjacency_lists, (1 << g.order) - 1, g.order, True, meter):
        best = colors[:]
    return best


def chromatic_number(g: Graph) -> int:
    """Exact chi(g), for any simple graph of order >= 1: the colors of
    :func:`_min_coloring`'s witness on a fresh Meter, past whose cap it
    raises EnumerationBudgetExceeded."""
    if g.order < 1:
        raise ValueError("chromatic number needs order >= 1")
    return max(_min_coloring(g, Meter()))


# ---------------------------------------------------------------------------
# enumeration


def _iter_chi_partitions(
    g: Graph, ell: int, meter: Meter | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every partition of V into exactly ell independent classes,
    each once, in the enumerating search's order, renumbered as its
    restricted-growth string. It charges ``meter``, when given, the
    search's units and n per partition.
    """
    meter = meter or Meter(math.inf)
    n = g.order
    for colors in _search(g.adjacency_lists, (1 << n) - 1, ell, False, meter):
        meter.charge(n)
        first: dict[int, int] = {}  # per color, its class's place in first-vertex order
        yield tuple([first.setdefault(c, len(first)) for c in colors])


def _classes_of(colors: list[int], live: int, k: int) -> list[int]:
    """Per color 1..k, the bitmask of the vertices of live that wear it."""
    classes = [0] * k
    for v in _vertices(live):
        classes[colors[v] - 1] |= 1 << v
    return classes


def canonical_partition(
    g: Graph, coloring: list[int] | None = None, meter: Meter | None = None
) -> tuple[int, ...]:
    """The lexicographically least proper chi-partition, built class by
    class, as its restricted-growth string.

    Partitions compare as tuples of ascending classes in first-vertex
    order, a proper prefix the smaller; that is not the order of their
    strings. So each class opens at the smallest unplaced vertex, closes
    as soon as the unplaced rest has a proper coloring with the classes
    still missing, and otherwise takes the smallest later vertex that
    keeps a completion feasible. A vertex skipped there stays out with no
    further check: a completion holding it and later members would also
    complete the members it was refused with.

    Each step is answered first from a witness coloring of the unplaced
    vertices, kept as per-color class bitmasks: it says yes when its open
    class holds the candidate, or equals the members. Otherwise the
    deciding search looks for a k-coloring of the unplaced vertices with
    the members fixed to one color, which becomes the witness. The first
    witness is a chi-coloring of g (colors 1..chi, all used, so that "at
    most k colors" for the rest means exactly k): the caller's, or
    :func:`_min_coloring`'s. Every search charges ``meter``, a fresh one
    unless given.
    """
    n = g.order
    masks = g.adjacency_masks
    nbrs = g.adjacency_lists
    meter = meter or Meter()
    if coloring is None:
        coloring = _min_coloring(g, meter)
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
                found = next(_search(nbrs, rest, k - 1, True, meter), None)
                if found is not None:
                    witness = _classes_of(found, rest, k - 1)
                    break
            for x in _vertices(unplaced & ~blocked & -(1 << members.bit_length())):
                if own >> x & 1:
                    break
                grown = members | 1 << x
                live = unplaced & ~grown
                found = next(_search(nbrs, live, k, True, meter, grown), None)
                if found is not None:
                    witness = _classes_of(found, live, k)
                    witness[0] |= grown
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
    uncapped = Meter(math.inf)
    coloring = _min_coloring(g, uncapped)
    ell = max(coloring)
    if semantics == "all":
        yield from _iter_all_min_colorings(g, ell)
    elif semantics == "permutation":
        yield from colorings_of_partition(canonical_partition(g, coloring, uncapped))
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
