"""Classical and chromatic Zagreb indices, with exact extrema over minimum colorings.

Classical indices are degree sums; chromatic ones replace degrees with
1-based color indices of a minimum coloring and are then minimized /
maximized over the minimum colorings from :mod:`.coloring`. Under
``all`` a graph with a narrow frontier in its identity order takes a
dynamic program over that order, whose states are the colors of the
frontier and the set of colors used. Otherwise either semantics scores
chi-partitions on their quotient, the class sizes and the edge counts
between classes: under ``all`` every chi-partition, under
``permutation`` the canonical one. On a quotient the cm1 extrema are a
sort (the rearrangement inequality), the cm3 extrema a DP over the sets
of classes labelled so far (a linear arrangement), and the cm2 extrema,
up to PACKED_CLASSES classes, a few big-int operations on tables that
pack each class pair's label product under every labeling. Only a larger
quotient, one whose cm2 sums could pass a 4-byte field, or one with few
twin-ordered labelings walks them.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from operator import add, itemgetter, mul
from typing import Literal

from .coloring import (
    Coloring,
    EnumerationBudgetExceeded,
    Meter,
    Semantics,
    canonical_partition,
    is_proper,
    label_partition,
    strengths,
    _iter_chi_partitions,
    _min_coloring,
)
from .families import ThornBaseData
from .graph import Graph


class ImproperColoringError(ValueError):
    pass


EXTREMA_KEYS = ("cm1_min", "cm1_max", "cm2_min", "cm2_max", "cm3_min", "cm3_max")


def zagreb_sums(weights, edges) -> tuple[int, int, int]:
    """The three Zagreb sums of a vertex weighting.

    Returns the sum of squared weights, and over edges the sum of endpoint
    weight products and the sum of absolute endpoint weight differences.
    Degrees as weights give the classical indices, color indices the
    chromatic ones.
    """
    products = differences = 0
    for u, v in edges:
        a, b = weights[u], weights[v]
        products += a * b
        differences += abs(a - b)
    return sum(w * w for w in weights), products, differences


def classical_m1(g: Graph) -> int:
    """Sum of squared degrees."""
    return zagreb_sums(g.degree_sequence(), g.edges)[0]


def classical_m2(g: Graph) -> int:
    """Sum over edges of the endpoint degree product."""
    return zagreb_sums(g.degree_sequence(), g.edges)[1]


def classical_m3(g: Graph) -> int:
    """Sum over edges of the absolute endpoint degree difference."""
    return zagreb_sums(g.degree_sequence(), g.edges)[2]


def _require_proper(g: Graph, c: Coloring) -> None:
    if not is_proper(g, c):
        raise ImproperColoringError("coloring has a monochromatic edge")


def chromatic_m1(g: Graph, c: Coloring) -> int:
    """Sum over vertices of the squared color index."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[0]


def chromatic_m2(g: Graph, c: Coloring) -> int:
    """Sum over edges of the color index product."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[1]


def chromatic_m3(g: Graph, c: Coloring) -> int:
    """Sum over edges of the absolute color index difference."""
    _require_proper(g, c)
    return zagreb_sums(c.assignment, g.edges)[2]


# the frontier DP runs when ell**width * 2**ell, its bound on the states of
# one layer, stays within FRONTIER_STATES
FRONTIER_STATES = 2**14
# quotients of at most PACKED_CLASSES classes score cm2 on packed pair
# tables, C(ell, 2) ints of ell! 4-byte fields each, held for the process:
# 21 * 7! * 4 B = 423 KB at ell = 7, where ell = 8 would hold
# 28 * 8! * 4 B = 4.5 MB, near a quarter of a typical ~19 MB peak RSS.
# One walked labeling costs about PACKED_WALK_RATIO packed fields (about
# 3 us against 0.15-0.2 us at ell = 6, 7), so a quotient with at most
# ell! / PACKED_WALK_RATIO twin-ordered labelings walks them instead,
# which builds no table: a clique quotient has one
PACKED_CLASSES = 7
PACKED_WALK_RATIO = 16

ExtremaStatus = Literal["exact", "bounds_only"]


@dataclass(frozen=True)
class ExtremaResult:
    index: int
    minimum: int
    maximum: int
    min_witness: Coloring | None
    max_witness: Coloring | None
    semantics_used: str
    status: ExtremaStatus


def _sweep(g: Graph, colorings) -> dict[int, tuple[int, Coloring, int, Coloring]]:
    """One pass over a coloring stream tracking min/max of all three indices.

    Streams arrive in lexicographic order, so strict comparisons leave the
    lexicographically least witness in place for ties. Exact extrema come
    from :func:`_frontier_extrema` and :func:`_sweep_partitions`; this
    scores only the identity and reversed labelings of the canonical
    partition, whose scoring passed its work cap. It also stays as the
    coloring-stream reference that the least-witness tests check the
    partition path against, and ``perfbench/spans.py`` rebinds it by name
    to count the colorings scored.
    """
    edges = g.edges
    best: list[list] = []  # per index: [min, its witness, max, its witness]
    for c in colorings:
        sums = zagreb_sums(c.assignment, edges)
        if not best:
            best = [[val, c, val, c] for val in sums]
            continue
        for slot, val in zip(best, sums):
            if val < slot[0]:
                slot[0], slot[1] = val, c
            if val > slot[2]:
                slot[2], slot[3] = val, c
    return {k: tuple(slot) for k, slot in enumerate(best, 1)}


def _edge_counts(ell: int, between: Counter) -> list[list[int]]:
    """A quotient's edge counts between class pairs as a symmetric matrix."""
    counts = [[0] * ell for _ in range(ell)]
    for (a, b), e in between.items():
        counts[a][b] = counts[b][a] = e
    return counts


def _twin_lower(sizes: list[int], counts: list[list[int]]) -> list[int]:
    """Per class of a quotient, the nearest earlier class it is twin to, or -1.

    Twins have the same size and the same edge count (``counts``, from
    :func:`_edge_counts`) to every third class, so swapping their labels
    changes none of the three sums. Of all labelings that differ only on
    twins, the one that labels each twin group in increasing class order
    is the least, so the others can be left out without losing a value or
    a least witness.
    """
    ell = len(sizes)
    lower = [-1] * ell
    for j in range(ell):
        for i in range(j - 1, -1, -1):  # twinship is an equivalence: the nearest one will do
            if sizes[i] == sizes[j] and all(
                counts[i][k] == counts[j][k] for k in range(ell) if k != i and k != j
            ):
                lower[j] = i
                break
    return lower


def _labeling_count(lower: list[int]) -> int:
    """The number of twin-ordered labelings, l! / prod(twin group size!)."""
    rank = []  # rank[j]: j's place in its twin group, from 1
    for i in lower:
        rank.append(rank[i] + 1 if i >= 0 else 1)
    return math.factorial(len(lower)) // math.prod(rank)


def _twin_ordered(lower: list[int]):
    """The labelings p (class i wears p[i]) in which every class wears a
    larger label than its lower twin, in lexicographic order.

    A depth-first walk over the classes with an explicit stack. Each class
    takes the free labels above its lower twin's, up to the one that
    leaves too few free labels above it for the rest of its twin group.
    """
    ell = len(lower)
    later = [0] * ell  # later[i]: the classes after i in its twin group
    for j in range(ell - 1, -1, -1):
        if lower[j] >= 0:
            later[lower[j]] = later[j] + 1
    labels = [0] * ell
    free = (1 << ell + 1) - 2  # bit c: no class wears label c
    i = 0
    while i >= 0:
        c = labels[i]
        if c:
            free |= 1 << c
        elif lower[i] >= 0:
            c = labels[lower[i]]
        above = free >> c + 1
        if above:
            c += (above & -above).bit_length()
        if not above or (free >> c + 1).bit_count() < later[i]:
            labels[i] = 0  # class i has no label left: back up
            i -= 1
            continue
        labels[i] = c
        free ^= 1 << c
        if i == ell - 1:
            yield tuple(labels)
        else:
            i += 1


def _labelings(lower: list[int]):
    """The twin-ordered labelings of a quotient, lexicographic: all l!
    from :func:`itertools.permutations` when it has no twins."""
    if max(lower, default=-1) < 0:
        return permutations(range(1, len(lower) + 1))
    return _twin_ordered(lower)


def _square_extrema(sizes: list[int]):
    """(min, labels, max, labels) of sum size_i p_i^2 over the labelings.

    By the rearrangement inequality, strict between different sizes, the
    min labels the classes largest first and the max smallest first; equal
    sizes take ascending labels, which makes each the least labeling
    attaining its value.
    """
    found = []
    for sign in (-1, 1):
        order = sorted(range(len(sizes)), key=lambda i: (sign * sizes[i], i))
        labels = [0] * len(sizes)
        for label, i in enumerate(order, 1):
            labels[i] = label
        found += [sum(map(mul, sizes, map(mul, labels, labels))), tuple(labels)]
    return tuple(found)


def _cut_extrema(counts: list[list[int]], lower: list[int], meter: Meter):
    """(min, labels, max, labels) of sum e_ab |p_a - p_b| over the
    twin-ordered labelings, by a DP over prefix sets.

    The sum equals sum over k of cut(S_k), S_k the classes labelled <= k,
    so it is a linear arrangement of the quotient (``counts``, from
    :func:`_edge_counts`). Classes are placed in label order, each only
    after its lower twin: a twin group of size g gives g + 1 prefix sets,
    not 2^g. Per set the DP keeps the min and max of the cuts so far and
    the least partial labeling (0 where unplaced) attaining each. Two
    chains into one set share every completion, so their full labelings
    compare as their partial ones, and the least partial labeling on a
    tie gives the least full one. Each set charges ``meter`` its moves.
    """
    ell = len(lower)
    need = [1 << i if i >= 0 else 0 for i in lower]  # the set bit of i's lower twin
    unplaced = (0,) * ell
    # set: (its cut, (min, labels), (-max, labels)), so both ends keep the least
    layer = {0: (0, (0, unplaced), (0, unplaced))}
    for label in range(1, ell + 1):
        reached: dict[int, tuple] = {}
        for placed, (cut, (lo, lo_p), (hi, hi_p)) in layer.items():
            free = [i for i in range(ell) if not placed >> i & 1 and placed & need[i] == need[i]]
            meter.charge(len(free))
            for i in free:
                # i's edges into the placed classes leave the cut, the rest join it
                row = counts[i]
                after = cut + sum(row) - 2 * sum([e for j, e in enumerate(row) if placed >> j & 1])
                low = (lo + after, (*lo_p[:i], label, *lo_p[i + 1:]))
                high = (hi - after, (*hi_p[:i], label, *hi_p[i + 1:]))
                old = reached.get(placed | 1 << i)
                if old is not None:
                    low, high = min(low, old[1]), min(high, old[2])
                reached[placed | 1 << i] = (after, low, high)
        layer = reached
    (_, (lo, lo_p), (hi, hi_p)), = layer.values()
    return lo, lo_p, -hi, hi_p


@cache
def _pair_tables(ell: int) -> tuple[tuple[int, ...], ...]:
    """T[a][b], for classes a != b: p_a p_b for every labeling p of ell
    classes, in lexicographic order, one 4-byte unsigned field each,
    packed into one int. Cached per ell for the process."""
    assert array("I").itemsize == 4
    columns = list(zip(*permutations(range(1, ell + 1))))  # columns[a]: p_a per labeling
    tables = [[0] * ell for _ in range(ell)]
    for a in range(ell):
        for b in range(a + 1, ell):
            products = array("I", map(mul, columns[a], columns[b]))
            tables[a][b] = tables[b][a] = int.from_bytes(products.tobytes(), sys.byteorder)
    return tuple(map(tuple, tables))


def _nth_labeling(ell: int, k: int) -> tuple[int, ...]:
    """The k-th labeling of ell classes in lexicographic order (from 0),
    read off k's factorial-base digits, its Lehmer code."""
    free = list(range(1, ell + 1))
    labels = []
    for place in range(ell - 1, -1, -1):
        digit, k = divmod(k, math.factorial(place))
        labels.append(free.pop(digit))
    return tuple(labels)


def _packed_product_extrema(between: Counter, ell: int):
    """(min, labels, max, labels) of sum e_ab p_a p_b over all ell!
    labelings at once, on :func:`_pair_tables`.

    sum e_ab T_ab holds each labeling's sum in that labeling's field, as
    long as no sum reaches 2**32, which the caller checks. The first field
    attaining each end is the least labeling attaining it, and that one is
    twin-ordered: were two twins out of order, swapping them would keep
    the sum and give a smaller labeling. So values and labelings are those
    of the twin-ordered walk.
    """
    tables = _pair_tables(ell)
    packed = sum(e * tables[a][b] for (a, b), e in between.items())
    sums = array("I")
    sums.frombytes(packed.to_bytes(4 * math.factorial(ell), sys.byteorder))
    lo, hi = min(sums), max(sums)
    return lo, _nth_labeling(ell, sums.index(lo)), hi, _nth_labeling(ell, sums.index(hi))


def _product_extrema(between: Counter, lower: list[int], meter: Meter):
    """(min, labels, max, labels) of sum e_ab p_a p_b over the twin-ordered
    labelings.

    A quotient of at most PACKED_CLASSES classes goes to
    :func:`_packed_product_extrema` when its bound on a sum,
    sum e_ab * ell (ell - 1), stays below 2**32 and it has more than
    ell! / PACKED_WALK_RATIO twin-ordered labelings. Any other walks its
    labelings, scoring each in turn; they come in lexicographic order and
    only a strict improvement replaces a witness, so each is the least
    labeling attaining its value. ``meter`` is charged the labelings
    packed or walked before they are.
    """
    ell = len(lower)
    count = _labeling_count(lower)
    if (ell <= PACKED_CLASSES and sum(between.values()) * ell * (ell - 1) < 1 << 32
            and count * PACKED_WALK_RATIO > math.factorial(ell)):
        meter.charge(math.factorial(ell))
        return _packed_product_extrema(between, ell)
    meter.charge(count)
    # two zero-weight pairs keep itemgetter returning tuples; its keys are
    # unpacked from lists, since a tuple built from an iterator is resized
    # and, once freed, stays on CPython's tuple free list (peak RSS)
    pairs = [*between.items(), ((0, 0), 0), ((0, 0), 0)]
    at_first = itemgetter(*[a for (a, _), _ in pairs])
    at_second = itemgetter(*[b for (_, b), _ in pairs])
    weights = [e for _, e in pairs]
    lo = math.inf
    hi = -math.inf
    for p in _labelings(lower):
        s = sum(map(mul, weights, map(mul, at_first(p), at_second(p))))
        if s < lo:
            lo, lo_p = s, p
        if s > hi:
            hi, hi_p = s, p
    return lo, lo_p, hi, hi_p


def _labeling_extrema(sizes: list[int], between: Counter, meter: Meter):
    """Per index, (min, labels, max, labels) over the labelings of one
    partition quotient: class sizes, and edge counts between class pairs.

    Each labels is the least labeling attaining its value. cm1 is a sort,
    cm3 a DP over prefix sets and cm2, up to PACKED_CLASSES classes, a few
    operations on packed ints. Only a cm2 of more classes, one whose sums
    could pass 2**32, or one with few twin-ordered labelings walks them.
    The DP and the cm2 labelings charge ``meter``.
    """
    counts = _edge_counts(len(sizes), between)
    lower = _twin_lower(sizes, counts)
    cuts = _cut_extrema(counts, lower, meter)
    return _square_extrema(sizes), _product_extrema(between, lower, meter), cuts


def _quotient(g: Graph, partition) -> tuple[list[int], Counter]:
    """A partition's class sizes, and its edge counts between class pairs."""
    cls = [0] * g.order
    for i, members in enumerate(partition):
        for v in members:
            cls[v] = i
    between: Counter = Counter()
    for u, v in g.edges:
        a, b = cls[u], cls[v]
        between[(a, b) if a < b else (b, a)] += 1
    return [len(members) for members in partition], between


def _sweep_partitions(g: Graph, ell: int, partitions, meter: Meter):
    """:func:`_sweep` over every labeling of every partition, without
    building the colorings.

    Each partition is reduced once to its quotient, on which a labeling p
    (class i wears color p[i]) scores sum size_i p_i^2, sum e_ab p_a p_b
    and sum e_ab |p_a - p_b|; :func:`_labeling_extrema` gives their
    extrema and least labelings. With the classes in first-vertex order,
    label order is assignment order, so a partition's witnesses are its
    least attaining labelings; across partitions a tie goes to the smaller
    assignment. Only the six witnesses become Coloring objects. Each
    quotient charges ``meter`` its edges, then its scoring.
    """
    n = g.order
    # per index: [min, its assignment, max, its assignment]
    best = [[math.inf, None, -math.inf, None] for _ in range(3)]
    for partition in partitions:
        meter.charge(g.size)
        found = _labeling_extrema(*_quotient(g, partition), meter)
        for slot, (lo, lo_p, hi, hi_p) in zip(best, found):
            if lo <= slot[0]:
                a = label_partition(partition, lo_p, n)
                if lo < slot[0] or a < slot[1]:
                    slot[0], slot[1] = lo, a
            if hi >= slot[2]:
                a = label_partition(partition, hi_p, n)
                if hi > slot[2] or a < slot[3]:
                    slot[2], slot[3] = hi, a
    # one Coloring per distinct witness, shared between the slots it wins
    witnesses = {a: Coloring(a, ell) for slot in best for a in (slot[1], slot[3])}
    return {
        k: (lo, witnesses[lo_a], hi, witnesses[hi_a])
        for k, (lo, lo_a, hi, hi_a) in enumerate(best, 1)
    }


def _frontier_width(masks: tuple[int, ...], n: int) -> int:
    """The widest frontier of the identity order, in O(n + m): after
    placing 0..v, the placed vertices that have a neighbour past v."""
    leaving = [0] * n  # leaving[v]: frontier vertices whose last neighbour is v
    width = widest = 0
    for v in range(n):
        last = masks[v].bit_length() - 1
        if last > v:
            width += 1
            leaving[last] += 1
        width -= leaving[v]
        widest = max(widest, width)
    return widest


def _frontier_steps(masks: tuple[int, ...], n: int):
    """Per vertex v of the identity order: the frontier positions of its
    earlier neighbours, the positions that stay on the frontier, and
    whether v joins it, the frontier kept ascending."""
    steps = []
    frontier: list[int] = []
    for v in range(n):
        later = -1 << v + 1  # the vertices past v
        steps.append((
            [k for k, u in enumerate(frontier) if masks[v] >> u & 1],
            [k for k, u in enumerate(frontier) if masks[u] & later],
            bool(masks[v] & later),
        ))
        frontier = [u for u in frontier if masks[u] & later]
        if masks[v] & later:
            frontier.append(v)
    return steps


def _frontier_extrema(g: Graph, ell: int, meter: Meter):
    """All six extrema and their least witnesses by a DP over the identity
    order, in the shape of :func:`_sweep_partitions`.

    Vertex v in color c adds c^2 to cm1 and, per earlier neighbour u,
    c c(u) to cm2 and |c - c(u)| to cm3; every earlier neighbour is on the
    frontier, the placed vertices with a later neighbour. A state is the
    frontier's colors and the mask of colors used; one whose missing
    colors outnumber the vertices still to place is dropped. A forward
    pass collects the reachable states and their moves, a backward pass
    stores each state's six suffix optima, and each witness is walked
    forward taking the smallest color from which its optimum is still
    reached: the lexicographically least assignment attaining it. Each
    layer charges ``meter`` its moves before it is held, so the layers
    held never pass the meter's cap.
    """
    n = g.order
    colors = range(1, ell + 1)
    # frontier colorings are numbered per layer, and a state is the key
    # front << ell | used-color mask
    fronts: dict[tuple[int, ...], int] = {(): 0}
    states = {0: 0}  # the reachable states of the layer, numbered
    moves = []  # per vertex, per state: (next state's number, terms) per color it may take
    for v, (earlier, keep, joins) in enumerate(_frontier_steps(g.adjacency_masks, n)):
        need = ell - (n - v - 1)  # colors that must be used once v is placed
        next_fronts: dict[tuple[int, ...], int] = {}
        front_moves = []  # per frontier coloring: (color bit, next front, terms) per color
        for f in fronts:
            seen = [f[k] for k in earlier]
            kept = [f[k] for k in keep]
            total = sum(seen)
            out = []
            for c in colors:
                if c in seen:
                    continue
                d3 = sum([abs(c - x) for x in seen])
                nxt = (*kept, c) if joins else tuple(kept)
                # the terms, twice to line up with the suffix's minima and
                # maxima, then the color, which map(add, ...) stops short of
                out.append((1 << c - 1, next_fronts.setdefault(nxt, len(next_fronts)),
                            (c * c, c * total, d3, c * c, c * total, d3, c)))
            front_moves.append(out)
        reached: dict[int, int] = {}
        layer = []
        for key in states:
            used = key & (1 << ell) - 1
            # tuples, not lists: every layer is held until the witnesses are walked
            layer.append(tuple([
                (reached.setdefault(nxt << ell | used | bit, len(reached)), terms)
                for bit, nxt, terms in front_moves[key >> ell]
                if (used | bit).bit_count() >= need
            ]))
        meter.charge(sum(map(len, layer)))
        moves.append(layer)
        fronts, states = next_fronts, reached
    # per layer, per state: the suffix's (cm1, cm2, cm3 minima, cm1, cm2, cm3 maxima), or None
    suffix = [[(0,) * 6] * len(states)]
    for layer in reversed(moves):
        after = suffix[-1]
        here = []
        for out in layer:
            options = [tuple(map(add, terms, after[j])) for j, terms in out
                       if after[j] is not None]
            if len(options) > 1:
                lo1, lo2, lo3, hi1, hi2, hi3 = zip(*options)
                options = [(min(lo1), min(lo2), min(lo3), max(hi1), max(hi2), max(hi3))]
            here.append(options[0] if options else None)
        suffix.append(here)
    suffix.reverse()
    targets = suffix[0][0]
    witnesses: dict[tuple[int, ...], Coloring] = {}
    found = []
    for slot, target in enumerate(targets):
        i = done = 0
        assignment = []
        for v in range(n):
            after = suffix[v + 1]
            for j, terms in moves[v][i]:
                if after[j] is not None and done + terms[slot] + after[j][slot] == target:
                    break
            assignment.append(terms[6])
            i, done = j, done + terms[slot]
        a = tuple(assignment)
        found.append(witnesses.setdefault(a, Coloring(a, ell)))
    return {k: (targets[k - 1], found[k - 1], targets[k + 2], found[k + 2]) for k in (1, 2, 3)}


def _compute_extrema(g: Graph, semantics: Semantics):
    """Extrema of all three indices at once: (per-index results, semantics, status).

    Under ``all``, a graph whose identity order keeps the frontier DP's
    bound ell**width * 2**ell on the states of a layer within
    FRONTIER_STATES goes to :func:`_frontier_extrema`, at any order, and
    any other has every chi-partition scored, either on one Meter. Past
    its cap, and always under ``permutation``, the canonical partition is
    scored on a fresh meter; past that one too, only its identity and
    reversed labelings are: valid colorings, so bounds, not extrema.
    """
    if g.order < 1:
        raise ValueError("extrema need order >= 1")
    if semantics not in ("all", "permutation"):
        raise ValueError(f"unknown semantics {semantics!r}")
    coloring = _min_coloring(g.adjacency_masks, g.order)
    ell = max(coloring)
    if semantics == "all":
        meter = Meter()
        try:
            if ell ** _frontier_width(g.adjacency_masks, g.order) << ell <= FRONTIER_STATES:
                return _frontier_extrema(g, ell, meter), "all", "exact"
            partitions = _iter_chi_partitions(g, ell, meter)
            return _sweep_partitions(g, ell, partitions, meter), "all", "exact"
        except EnumerationBudgetExceeded:
            pass
    partition = canonical_partition(g, coloring)
    try:
        results = _sweep_partitions(g, ell, [partition], Meter())
        return results, "permutation", "exact" if semantics == "permutation" else "bounds_only"
    except EnumerationBudgetExceeded:
        # with the classes in first-vertex order these two are in assignment order
        labelings = (tuple(range(1, ell + 1)), tuple(range(ell, 0, -1)))
        colorings = [Coloring(label_partition(partition, p, g.order), ell) for p in labelings]
        return _sweep(g, colorings), "permutation", "bounds_only"


def chromatic_extrema(
    g: Graph,
    index: int,
    semantics: Semantics = "all",
    paper_compat: bool = False,
) -> ExtremaResult:
    """Min and max of one chromatic index over minimum colorings.

    They are exact unless the frontier DP or the partition walk, whichever
    the input takes, meets the call's work cap (WORK_CAP units of a
    Meter; see :func:`_compute_extrema`); status then reads
    ``bounds_only``.
    With paper_compat set, an edgeless input reports the index-3 extrema
    as the conventional default 1 instead of the raw empty edge sum 0;
    no witness evaluates to a defaulted value, so the witness is dropped.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    results, semantics_used, status = _compute_extrema(g, semantics)
    lo, lo_w, hi, hi_w = results[index]
    if paper_compat and g.size == 0 and index == 3:
        return ExtremaResult(index, 1, 1, None, None, semantics_used, status)
    return ExtremaResult(index, lo, hi, lo_w, hi_w, semantics_used, status)


@dataclass(frozen=True)
class IndexReport:
    """Everything the engine knows about one graph's Zagreb indices."""

    order: int
    size: int
    m1: int
    m2: int
    m3: int
    cm1_min: int
    cm1_max: int
    cm2_min: int
    cm2_max: int
    cm3_min: int
    cm3_max: int
    semantics_used: str
    paper_compat_defaults_applied: bool
    connected: bool
    status: str
    witnesses: dict[str, Coloring | None] = field(default_factory=dict)
    label: str | None = None

    CSV_FIELDS = (
        "label", "order", "size", "m1", "m2", "m3",
        "cm1_min", "cm1_max", "cm2_min", "cm2_max", "cm3_min", "cm3_max",
        "semantics_used", "paper_compat_defaults_applied", "connected", "status",
    )

    def value(self, key: str) -> int:
        return getattr(self, key)

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        out = {f: getattr(self, f) for f in self.CSV_FIELDS}
        if include_witnesses:
            out["witnesses"] = {
                key: (list(c.assignment) if c is not None else None)
                for key, c in sorted(self.witnesses.items())
            }
        return out

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def to_csv_row(self) -> str:
        vals = []
        for f in self.CSV_FIELDS:
            v = getattr(self, f)
            if isinstance(v, bool):
                v = "true" if v else "false"
            vals.append("" if v is None else str(v))
        return ",".join(vals)


def full_report(
    g: Graph,
    semantics: Semantics = "all",
    paper_compat: bool = False,
    label: str | None = None,
) -> IndexReport:
    """Aggregate classical values and all six chromatic extrema for one graph.

    Every surviving witness is re-validated (proper, surjective, evaluates
    to its reported value) before the report is emitted.
    """
    results, semantics_used, status = _compute_extrema(g, semantics)
    values: dict[str, int] = {}
    witnesses: dict[str, Coloring | None] = {}
    # the index-2 default 0 coincides with the raw empty sum, so only
    # index 3 actually changes under the compat convention
    compat_applied = paper_compat and g.size == 0
    for index in (1, 2, 3):
        lo, lo_w, hi, hi_w = results[index]
        if compat_applied and index == 3:
            lo = hi = 1
            lo_w = hi_w = None
        values[f"cm{index}_min"] = lo
        values[f"cm{index}_max"] = hi
        witnesses[f"cm{index}_min"] = lo_w
        witnesses[f"cm{index}_max"] = hi_w
    for key, w in witnesses.items():
        if w is None:
            continue
        got = zagreb_sums(w.assignment, g.edges)[int(key[2]) - 1]
        if not is_proper(g, w) or got != values[key]:
            raise AssertionError(f"witness for {key} failed re-validation")
    for index in (1, 2, 3):
        if values[f"cm{index}_min"] > values[f"cm{index}_max"]:
            raise AssertionError(f"extrema inverted for index {index}")
    m1, m2, m3 = zagreb_sums(g.degree_sequence(), g.edges)
    return IndexReport(
        order=g.order,
        size=g.size,
        m1=m1,
        m2=m2,
        m3=m3,
        semantics_used=semantics_used,
        paper_compat_defaults_applied=compat_applied,
        connected=g.is_connected(),
        status=status,
        witnesses=witnesses,
        label=label,
        **values,
    )


def thorn_base_data(g: Graph, report: IndexReport) -> ThornBaseData:
    """Bundle the base-graph inputs the thorn formulas need.

    The three strength vectors come from the report's minimum witnesses,
    sorted descending as the formulas' hypotheses require.
    """
    thetas = {}
    for idx in (1, 2, 3):
        w = report.witnesses.get(f"cm{idx}_min")
        if w is None:
            raise ValueError("thorn base data needs minimum witnesses in the report")
        thetas[idx] = tuple(sorted(strengths(w), reverse=True))
    return ThornBaseData(
        n=g.order,
        ell=len(thetas[1]),
        cm1_min=report.cm1_min,
        cm1_max=report.cm1_max,
        cm2_min=report.cm2_min,
        cm2_max=report.cm2_max,
        cm3_min=report.cm3_min,
        cm3_max=report.cm3_max,
        theta1=thetas[1],
        theta2=thetas[2],
        theta3=thetas[3],
    )
