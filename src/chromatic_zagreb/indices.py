"""Classical and chromatic Zagreb indices, with exact extrema over minimum colorings.

Classical indices are degree sums; chromatic ones replace degrees with
1-based color indices of a minimum coloring and are then minimized /
maximized over the minimum colorings from :mod:`.coloring`. A connected
bipartite graph has two, its bipartition and the swap of it, whose
extrema are a closed form in its order, size and side sizes. Otherwise
either semantics scores chi-partitions, as restricted-growth strings, on
their quotient, the class sizes and the edge counts between classes:
under ``all`` every chi-partition, under ``permutation`` the canonical
one. Under ``all`` a walk that does not finish within the frontier DP's
bound on its states hands over to one forward dynamic program over a
greedy vertex order, whose states are the colors of the frontier, each
keeping one int per extremum that packs its value above the coloring so
far. On a quotient the cm1 extrema are a sort (the rearrangement
inequality), and up to PACKED_CLASSES classes the cm2 and cm3 extrema
are a few big-int operations on tables that pack each class pair's
label product and label difference under every labeling. A larger
quotient, one whose sums could pass a 4-byte field, or one with few
twin-ordered labelings takes cm3 from a DP over the sets of classes
labelled so far (a linear arrangement) on int keys that pack a sum
above its labeling, and walks the labelings for cm2: label sets for the
twin groups, then every order of the labels left for the twin-free
classes. Under ``all`` each partition after the first scores only what
can reach the extrema found so far: an end of cm2 or cm3 whose
rearrangement bounds lie strictly inside them is not read, nor is a
cm2 label set whose own bounds do, and labels are decoded only for a
value that reaches them. Every route hands its witnesses over as
assignment tuples, and :func:`full_report` alone makes each distinct
one a Coloring and checks it, once.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import cache
from heapq import heappop, heappush
from itertools import combinations, permutations
from operator import add, itemgetter, mul, sub
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


# quotients of at most PACKED_CLASSES classes score cm2 and cm3 on packed
# pair tables, C(ell, 2) ints of 2 ell! 4-byte fields each, held for the
# process: 21 * 7! * 8 B = 847 KB at ell = 7, where ell = 8 would hold
# 28 * 8! * 8 B = 9 MB, near half of a typical ~19 MB peak RSS.
# One walked labeling costs about PACKED_WALK_RATIO packed ones (about
# 3.6 us against 0.23 us at ell = 7), so a quotient with at most
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


Witness = tuple[int, ...]  # an assignment: vertex v wears color witness[v]
Extrema = dict[int, tuple[int, Witness, int, Witness]]  # per index: min, witness, max, witness


def _sweep(g: Graph, assignments) -> Extrema:
    """One pass over a stream of assignments tracking min/max of all three
    indices.

    Streams arrive in lexicographic order, so strict comparisons leave the
    lexicographically least witness in place for ties. It scores the
    labelings in hand of the canonical partition when scoring that
    partition passed its work cap (:func:`_canonical_bounds`). It also
    stays as the coloring-stream reference that the least-witness tests
    check the partition path and the connected bipartite closed form
    against, and ``perfbench/spans.py`` rebinds it by name to count the
    assignments scored.
    """
    edges = g.edges
    best: list[list] = []  # per index: [min, its witness, max, its witness]
    for a in assignments:
        sums = zagreb_sums(a, edges)
        if not best:
            best = [[val, a, val, a] for val in sums]
            continue
        for slot, val in zip(best, sums):
            if val < slot[0]:
                slot[0], slot[1] = val, a
            if val > slot[2]:
                slot[2], slot[3] = val, a
    return {k: tuple(slot) for k, slot in enumerate(best, 1)}


def _twin_lower(sizes: list[int], counts: list[list[int]]) -> list[int]:
    """Per class of a quotient, the nearest earlier class it is twin to, or -1.

    Twins have the same size and the same edge count (``counts``, from
    :func:`_quotient`) to every third class, so swapping their labels
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


def _twin_groups(lower: list[int]) -> list[list[int]]:
    """The twin groups of two or more classes of a quotient, each in
    increasing class order, from :func:`_twin_lower`."""
    first = []  # first[j]: the first class of j's twin group
    groups: dict[int, list[int]] = {}
    for j, i in enumerate(lower):
        first.append(first[i] if i >= 0 else j)
        groups.setdefault(first[j], []).append(j)
    return [group for group in groups.values() if len(group) > 1]


def _group_label_sets(groups: list[list[int]], labels):
    """Every way to give each of ``groups`` its own set of ``labels``, as
    (the labels of the groups' classes in turn, each group's ascending,
    the labels left)."""
    def sets(k, free):
        if k == len(groups) - 1:  # the last group: one level of generator less
            for chosen in combinations(free, len(groups[k])):
                yield chosen, [x for x in free if x not in chosen]
            return
        for chosen in combinations(free, len(groups[k])):
            for rest, left in sets(k + 1, [x for x in free if x not in chosen]):
                yield chosen + rest, left
    return sets(0, labels) if groups else iter([((), labels)])


def _pair_terms(classes: list[int], counts: list[list[int]]):
    """(weights, first, second) such that
    sum(map(mul, weights, map(mul, first(q), second(q)))) is
    sum e_ab q_a q_b over the pairs of ``classes`` joined by an edge, where
    q gives the classes their labels in turn."""
    if not classes:
        return [], tuple, tuple  # q is empty
    pairs = [(x, y, counts[a][b]) for y, b in enumerate(classes) for x, a in enumerate(classes[:y])
             if counts[a][b]]
    # two zero-weight pairs keep itemgetter returning tuples; its keys are
    # unpacked from lists, since a tuple built from an iterator is resized
    # and, once freed, stays on CPython's tuple free list (peak RSS)
    pairs += [(0, 0, 0)] * 2
    return ([e for _, _, e in pairs], itemgetter(*[x for x, _, _ in pairs]),
            itemgetter(*[y for _, y, _ in pairs]))


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
    :func:`_quotient`). Classes are placed in label order, each only
    after its lower twin: a twin group of size g gives g + 1 prefix sets,
    not 2^g. Per set the DP keeps the min and max of the cuts so far and
    the least partial labeling (0 where unplaced) attaining each. Two
    chains into one set share every completion, so their full labelings
    compare as their partial ones, and the least partial labeling on a
    tie gives the least full one.

    Each end is one int key, value << (w ell) | labels, with w bits per
    class and class 0 in the top field, so int order is (value, labeling)
    order; the max keeps -value. A move adds its label to both keys and
    compares; a set's cut, cut(S) + deg(i) - 2 e(i, S), is computed when
    the set is first reached and added to its keys once. Each set charges
    ``meter`` its moves.
    """
    ell = len(lower)
    width = ell.bit_length()
    top = width * ell
    shift = [width * (ell - 1 - i) for i in range(ell)]
    need = [1 << i if i >= 0 else 0 for i in lower]  # the set bit of i's lower twin
    degree = [sum(row) for row in counts]
    # set: [its cut, min key, -max key], the keys without the set's own cut
    layer = {0: [0, 0, 0]}
    for label in range(1, ell + 1):
        reached: dict[int, list[int]] = {}
        for placed, (cut, lo, hi) in layer.items():
            lo += cut << top
            hi -= cut << top
            free = [i for i in range(ell) if not placed >> i & 1 and placed & need[i] == need[i]]
            meter.charge(len(free))
            for i in free:
                low, high = lo + (label << shift[i]), hi + (label << shift[i])
                old = reached.get(placed | 1 << i)
                if old is None:
                    # i's edges into the placed classes leave the cut, the rest join it
                    into = sum([e for j, e in enumerate(counts[i]) if placed >> j & 1])
                    reached[placed | 1 << i] = [cut + degree[i] - 2 * into, low, high]
                else:
                    if low < old[1]:
                        old[1] = low
                    if high < old[2]:
                        old[2] = high
        layer = reached
    (_, lo, hi), = layer.values()  # every class placed: the cut is 0
    mask = (1 << width) - 1
    return (lo >> top, tuple(lo >> s & mask for s in shift),
            -(hi >> top), tuple(hi >> s & mask for s in shift))


@cache
def _pair_tables(ell: int) -> tuple[tuple[int, ...], ...]:
    """T[a][b], for classes a != b: for every labeling p of ell classes, in
    lexicographic order, two 4-byte unsigned fields, p_a p_b and then
    |p_a - p_b|, packed into one int. Cached per ell for the process."""
    assert array("I").itemsize == 4
    columns = list(zip(*permutations(range(1, ell + 1))))  # columns[a]: p_a per labeling
    tables = [[0] * ell for _ in range(ell)]
    fields = array("I", bytes(8 * math.factorial(ell)))
    for a in range(ell):
        for b in range(a + 1, ell):
            fields[0::2] = array("I", map(mul, columns[a], columns[b]))
            fields[1::2] = array("I", map(abs, map(sub, columns[a], columns[b])))
            tables[a][b] = tables[b][a] = int.from_bytes(fields.tobytes(), sys.byteorder)
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


# (min, max) targets of an index: OPEN, which every value reaches, and DEAD, which none does
OPEN, DEAD = (math.inf, -math.inf), (-math.inf, math.inf)


def _packed_extrema(counts: list[list[int]], ell: int, targets=(OPEN, OPEN)):
    """Per index, cm2 and then cm3, (min, labels, max, labels) of
    sum e_ab p_a p_b and sum e_ab |p_a - p_b| over all ell! labelings at
    once, on :func:`_pair_tables`.

    sum e_ab T_ab holds each labeling's two sums in that labeling's two
    fields, as long as no sum reaches 2**32, which the caller checks. The
    first field attaining each end is the least labeling attaining it, and
    that one is twin-ordered: were two twins out of order, swapping them
    would keep the sum and give a smaller labeling. So values and
    labelings are those of the twin-ordered walk and the cut DP.

    ``targets`` gives per index the (min, max) that a value must reach, at
    or below and at or above, to be of use; -inf and inf mark an end that
    no labeling reaches. Such an end is not read (inf for a min, -inf for
    a max), an index with neither is None, and the labels of a value that
    misses its target are None, not decoded.
    """
    tables = _pair_tables(ell)
    packed = sum(counts[a][b] * tables[a][b] for a, b in combinations(range(ell), 2))
    fields = array("I")
    fields.frombytes(packed.to_bytes(8 * math.factorial(ell), sys.byteorder))
    found = []
    for k, (lo_to, hi_to) in enumerate(targets):
        if (lo_to, hi_to) == DEAD:
            found.append(None)
            continue
        sums = fields[k::2]
        lo = min(sums) if lo_to > -math.inf else math.inf
        hi = max(sums) if hi_to < math.inf else -math.inf
        found.append((lo, _nth_labeling(ell, sums.index(lo)) if lo <= lo_to else None,
                      hi, _nth_labeling(ell, sums.index(hi)) if hi >= hi_to else None))
    return found


def _order_bounds(base: int, weights: list[int], pair_counts: list[int], left) -> tuple[int, int]:
    """(low, high) bounds on base + sum w_a q_a + sum e_ab q_a q_b over
    the orders q of the ascending labels ``left``, for classes of
    ``weights`` and class-pair edge counts ``pair_counts`` (ascending,
    zeros included). By the rearrangement inequality each part lies
    between its sorted terms paired in opposite and in the same order:
    weights with labels, and edge counts with label-pair products.
    """
    weights = sorted(weights)
    products = sorted([x * y for x, y in combinations(left, 2)])
    return (base + sum(map(mul, weights, reversed(left)))
            + sum(map(mul, pair_counts, reversed(products))),
            base + sum(map(mul, weights, left)) + sum(map(mul, pair_counts, products)))


def _walked_product_extrema(counts: list[list[int]], lower: list[int], targets=OPEN):
    """(min, labels, max, labels) of sum e_ab p_a p_b over the twin-ordered
    labelings, walked.

    Each twin group of two or more classes takes a label set from
    :func:`_group_label_sets`, and the twin-free classes every permutation
    of the labels left. Per label set the pairs within the groups sum
    once, and each twin-free class gets its weight, the sum of e_ab p_b
    over the group classes b, so a labeling costs one dot product and the
    twin-free pairs. The walk is not lexicographic, so a labeling that
    ties a witness's value replaces it when it is smaller: each is the
    least labeling attaining its value.

    A label set whose :func:`_order_bounds` lie strictly inside
    ``targets`` (see :func:`_packed_extrema`) is not walked, so an end
    that misses its target may read past its value (inf or -inf, labels
    None, when nothing is walked). Bounds are worked out only for targets
    other than OPEN and two or more twin-free classes: with fewer a label
    set costs no more to walk than to bound.
    """
    ell = len(lower)
    groups = _twin_groups(lower)
    tied = [a for group in groups for a in group]
    single = [a for a in range(ell) if a not in tied]
    tied_weights, tied_first, tied_second = _pair_terms(tied, counts)
    single_weights, single_first, single_second = _pair_terms(single, counts)
    rows = [[counts[a][b] for b in tied] for a in single]
    walked = tied + single  # the classes that t + q label, in turn
    labels = [0] * ell  # the labeling, filled in only when it may be a witness
    lo = math.inf
    hi = -math.inf
    lo_p = hi_p = None
    lo_to, hi_to = targets
    bounded = targets != OPEN and len(single) > 1
    if bounded:
        pair_counts = sorted([counts[a][b] for a, b in combinations(single, 2)])
    for t, left in _group_label_sets(groups, range(1, ell + 1)):
        base = sum(map(mul, tied_weights, map(mul, tied_first(t), tied_second(t))))
        weights = [sum(map(mul, row, t)) for row in rows]
        if bounded:
            low, high = _order_bounds(base, weights, pair_counts, left)
            if low > lo_to and high < hi_to:
                continue
        for q in permutations(left):
            s = base + sum(map(mul, weights, q)) + sum(
                map(mul, single_weights, map(mul, single_first(q), single_second(q))))
            if s <= lo or s >= hi:
                for a, x in zip(walked, t + q):
                    labels[a] = x
                p = tuple(labels)
                if s < lo or s == lo and p < lo_p:
                    lo, lo_p = s, p
                if s > hi or s == hi and p < hi_p:
                    hi, hi_p = s, p
    return lo, lo_p, hi, hi_p


def _labeling_extrema(sizes: list[int], counts: list[list[int]], meter: Meter, incumbent=None):
    """Per index, (min, labels, max, labels) over the labelings of one
    partition quotient from :func:`_quotient`: class sizes, and the
    symmetric matrix of edge counts between class pairs.

    Each labels is the least labeling attaining its value. cm1 is a sort.
    An ``incumbent`` gives per cm2 and cm3 the (min, max) found so far; an
    end of either is live when its :func:`_pair_bounds` reach it, at or
    below the min or at or above the max. Only live ends are scored, and
    an index with none is None, found before any twin analysis. An end
    that misses its incumbent, dead or not, may read any value that
    misses it (inf for an unread min, -inf for an unread max), and its
    labels may be None. Without an incumbent every end is scored in full.

    A quotient of at most PACKED_CLASSES classes reads cm2 and cm3 off
    :func:`_packed_extrema` when its bound on a cm2 sum,
    sum e_ab * ell (ell - 1), stays below 2**32 (a cm3 sum is smaller) and
    it has more than ell! / PACKED_WALK_RATIO twin-ordered labelings,
    charging ``meter`` the ell! labelings packed; cm3 alone takes the
    tables only below PACKED_CLASSES classes, where they beat the DP. Any
    other walks its twin-ordered labelings for cm2, skipping label sets
    that the incumbent rules out, and takes cm3 from the DP over prefix
    sets, charging the labelings walked, skipped ones too, and the DP's
    moves, each before the work.
    """
    targets = (OPEN, OPEN)
    if incumbent:
        targets = [(best_lo if lo <= best_lo else -math.inf, best_hi if hi >= best_hi else math.inf)
                   for (lo, hi), (best_lo, best_hi) in zip(_pair_bounds(counts), incumbent)]
    cm2, cm3 = [ends != DEAD for ends in targets]
    if not (cm2 or cm3):
        return _square_extrema(sizes), None, None
    lower = _twin_lower(sizes, counts)
    ell = len(lower)
    count = _labeling_count(lower)
    if (ell <= PACKED_CLASSES and sum(map(sum, counts)) // 2 * ell * (ell - 1) < 1 << 32
            and count * PACKED_WALK_RATIO > math.factorial(ell)
            and (cm2 or ell < PACKED_CLASSES)):
        meter.charge(math.factorial(ell))
        return (_square_extrema(sizes), *_packed_extrema(counts, ell, targets))
    if cm2:  # first, so a refused walk has run no DP
        meter.charge(count)
    cuts = _cut_extrema(counts, lower, meter) if cm3 else None
    products = _walked_product_extrema(counts, lower, targets[0]) if cm2 else None
    return _square_extrema(sizes), products, cuts


@cache
def _label_pair_values(ell: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The products x y and the gaps y - x over the label pairs x < y of
    1..ell, each sorted. Cached per ell for the process."""
    pairs = list(combinations(range(1, ell + 1), 2))
    return tuple(sorted([x * y for x, y in pairs])), tuple(sorted([y - x for x, y in pairs]))


def _pair_bounds(counts: list[list[int]]):
    """(lower, upper) bounds on sum e_ab p_a p_b and on sum e_ab |p_a - p_b|
    over the labelings of a quotient (``counts``, from :func:`_quotient`).

    A labeling maps the class pairs one-to-one onto the label pairs, so
    each sum pairs the edge counts with the label pairs' products, or
    gaps, in some order; by the rearrangement inequality it lies between
    the opposite-order and the same-order pairing of the sorted lists.
    """
    weights = sorted([e for a, row in enumerate(counts) for e in row[a + 1:]])
    return [(sum(map(mul, weights, reversed(values))), sum(map(mul, weights, values)))
            for values in _label_pair_values(len(counts))]


def _quotient(g: Graph, partition, ell: int) -> tuple[list[int], list[list[int]]]:
    """The class sizes of a partition of ell classes, and the symmetric
    matrix of its edge counts between class pairs, 0 on the diagonal:
    classes are independent."""
    counts = [[0] * ell for _ in range(ell)]
    for u, v in g.edges:
        a, b = partition[u], partition[v]
        counts[a][b] += 1
        counts[b][a] += 1
    return [partition.count(i) for i in range(ell)], counts


def _sweep_partitions(g: Graph, ell: int, partitions, meter: Meter) -> Extrema:
    """:func:`_sweep` over every labeling of every partition of ell
    classes, without building the assignments.

    Each partition is reduced once to its quotient, on which a labeling p
    (class i wears color p[i]) scores sum size_i p_i^2, sum e_ab p_a p_b
    and sum e_ab |p_a - p_b|; :func:`_labeling_extrema` gives their
    extrema and least labelings. With the classes in first-vertex order,
    label order is assignment order, so a partition's witnesses are its
    least attaining labelings; across partitions a tie goes to the smaller
    assignment, built only for a labeling that may win.

    Each quotient after the first gets the cm2 and cm3 extrema found so
    far, its incumbent, and scores only what can reach it: an end that its
    :func:`_pair_bounds` do not reach, or a cm2 label set whose
    :func:`_order_bounds` lie strictly inside it, is left out, and a value
    that misses it comes back without labels. As the best values only get
    better, what is left out can neither attain nor tie a final extremum,
    so no least witness moves. Each quotient charges ``meter`` its edges,
    then the scoring it does.
    """
    # per index: [min, its assignment, max, its assignment]
    best = [[math.inf, None, -math.inf, None] for _ in range(3)]
    incumbent = None  # the first partition is scored in full
    for partition in partitions:
        meter.charge(g.size)
        found = _labeling_extrema(*_quotient(g, partition, ell), meter, incumbent)
        for slot, ends in zip(best, found):
            if ends is None:
                continue
            lo, lo_p, hi, hi_p = ends
            if lo <= slot[0]:
                a = label_partition(partition, lo_p)
                if lo < slot[0] or a < slot[1]:
                    slot[0], slot[1] = lo, a
            if hi >= slot[2]:
                a = label_partition(partition, hi_p)
                if hi > slot[2] or a < slot[3]:
                    slot[2], slot[3] = hi, a
        incumbent = [(slot[0], slot[2]) for slot in best[1:]]
    return {k: tuple(slot) for k, slot in enumerate(best, 1)}


def _greedy_order(g: Graph, ell: int = 2, room: float = math.inf) -> tuple[list[int], int]:
    """A vertex order that keeps the frontier narrow, and its width: the
    most vertices on the frontier, the placed vertices with an unplaced
    neighbour, after any prefix of the order. It stops short once
    ell**width * n, the bound on the frontier DP's states, reaches ``room``.

    Next comes the unplaced neighbour of the placed vertices whose placing
    leaves the smallest frontier, ties to the lower index; when no
    unplaced vertex touches the placed ones, the lowest unplaced vertex.
    Per vertex, ``grow`` is how much placing it changes the frontier's
    size: 1 if it has an unplaced neighbour, less 1 per placed neighbour
    whose last unplaced neighbour it is. It only falls, so a heap that
    skips stale entries gives the next vertex, in O((n + m) log n) in all.
    """
    n = g.order
    nbrs = g.adjacency_lists
    left = [len(a) for a in nbrs]  # per vertex: its unplaced neighbours
    grow = [1 if k else 0 for k in left]
    placed = [False] * n
    heap: list[tuple[int, int]] = []  # (grow, vertex) of the unplaced neighbours of placed ones
    order = []
    size = width = lowest = 0
    for _ in range(n):
        while heap and (placed[heap[0][1]] or heap[0][0] != grow[heap[0][1]]):
            heappop(heap)
        if heap:
            v = heappop(heap)[1]
        else:
            while placed[lowest]:
                lowest += 1
            v = lowest
        placed[v] = True
        order.append(v)
        size += grow[v]
        if size > width:
            width = size
            if ell ** width * n >= room:
                break
        for u in nbrs[v]:
            left[u] -= 1
            if not placed[u]:
                if not left[u]:  # placing u no longer adds it to the frontier
                    grow[u] -= 1
                if left[v] == 1:  # placing u takes v off the frontier
                    grow[u] -= 1
                heappush(heap, (grow[u], u))
            elif left[u] == 1:  # u leaves the frontier with its last unplaced neighbour
                w = next(w for w in nbrs[u] if not placed[w])
                grow[w] -= 1
                heappush(heap, (grow[w], w))
    return order, width


def _frontier_extrema(g: Graph, ell: int, order: list[int], meter: Meter) -> Extrema:
    """All six extrema and their least witnesses by one forward DP over
    ``order``, in the shape of :func:`_sweep_partitions`.

    Vertex v in color c adds c^2 to cm1 and, per placed neighbour u,
    c c(u) to cm2 and |c - c(u)| to cm3; every placed neighbour is on the
    frontier, the placed vertices with an unplaced neighbour. A state is
    the frontier's colors alone: every proper coloring into 1..chi uses
    all chi colors, else chi colors would not be needed, so each state
    has a completion and none needs the colors used so far.

    Each state keeps six int keys, one per extremum, value << (w n) plus
    c_v << w (n - 1 - v) per placed vertex v, with w bits per color; the
    maxima keep -value. The color fields sit by vertex index, not by place
    in ``order``, so int order is (value, assignment) order in any order
    of placing, and two states merged into one share every completion. A
    move adds one precomputed term to each key, and a merge keeps the
    least; over the last layer the least key per extremum gives its value
    and its lexicographically least witness. Only one layer is alive at a
    time, and each charges ``meter`` its moves.
    """
    n = g.order
    masks = g.adjacency_masks
    bits = ell.bit_length()
    top = bits * n  # the values sit above every color field
    unplaced = (1 << n) - 1
    frontier: list[int] = []  # in the order the vertices were placed
    states: dict[tuple[int, ...], list[int]] = {(): [0] * 6}
    for v in order:
        unplaced ^= 1 << v
        earlier = [k for k, u in enumerate(frontier) if masks[v] >> u & 1]
        keep = [k for k, u in enumerate(frontier) if masks[u] & unplaced]
        joins = bool(masks[v] & unplaced)
        frontier = [frontier[k] for k in keep] + [v] * joins
        shift = bits * (n - 1 - v)
        # per colors of v's placed neighbours: (color, terms) per color v may take
        options: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
        reached: dict[tuple[int, ...], list[int]] = {}
        moves = 0
        for front, keys in states.items():
            seen = tuple([front[k] for k in earlier])
            colored = options.get(seen)
            if colored is None:
                colored = options[seen] = []
                for c in range(1, ell + 1):
                    if c not in seen:
                        field = c << shift
                        lifted = [t << top for t in
                                  (c * c, c * sum(seen), sum([abs(c - x) for x in seen]))]
                        colored.append((c, [field + t for t in lifted] + [field - t for t in lifted]))
            kept = tuple([front[k] for k in keep])
            moves += len(colored)
            for c, terms in colored:
                at = (*kept, c) if joins else kept
                new = list(map(add, keys, terms))
                old = reached.get(at)
                reached[at] = new if old is None else list(map(min, old, new))
        meter.charge(moves)
        states = reached
    (best,) = states.values()
    values = [key >> top for key in best[:3]] + [-(key >> top) for key in best[3:]]
    mask = (1 << bits) - 1
    witnesses = {code: tuple([code >> bits * (n - 1 - v) & mask for v in range(n)])
                 for code in {key & (1 << top) - 1 for key in best}}
    found = [witnesses[key & (1 << top) - 1] for key in best]
    return {k: (values[k - 1], found[k - 1], values[k + 2], found[k + 2]) for k in (1, 2, 3)}


def _compute_extrema(g: Graph, semantics: Semantics) -> tuple[Extrema, int, str, str]:
    """Extrema of all three indices at once, with witness assignments:
    (per-index results, chi, semantics, status).

    The chi search charges the call's Meter. A connected graph with
    chi = 2 has two minimum colorings, its bipartition and the swap, and
    :func:`_bipartite_extrema` reads theirs off a closed form, which
    :func:`full_report` re-validates; the canonical partition is the
    bipartition. Otherwise, under ``all``, every chi-partition is scored on
    a share of the meter, ell**width * n units, the greedy order's bound on
    the frontier DP's states, which then runs on the rest, if any. Past
    both, and always under ``permutation``, the canonical partition is
    built and scored on a fresh meter; past that :func:`_canonical_bounds`
    gives bounds, not extrema.
    """
    if g.order < 1:
        raise ValueError("extrema need order >= 1")
    if semantics not in ("all", "permutation"):
        raise ValueError(f"unknown semantics {semantics!r}")
    meter = Meter()
    coloring = _min_coloring(g, meter)
    ell = max(coloring)
    if ell == 2 and g.is_connected():
        return _bipartite_extrema(g, coloring), 2, semantics, "exact"
    if semantics == "all":
        order, width = _greedy_order(g, ell, meter.left)
        walk = meter.share(ell ** width * g.order)
        try:
            partitions = _iter_chi_partitions(g, ell, walk)
            return _sweep_partitions(g, ell, partitions, walk), ell, "all", "exact"
        except EnumerationBudgetExceeded:
            pass
        if meter.left:  # else the walk took the whole meter, and the order is cut short
            try:
                return _frontier_extrema(g, ell, order, meter), ell, "all", "exact"
            except EnumerationBudgetExceeded:
                pass
    meter = Meter()
    partition = canonical_partition(g, coloring, meter)
    status = "exact" if semantics == "permutation" else "bounds_only"
    left = meter.left
    try:
        return _sweep_partitions(g, ell, [partition], meter), ell, "permutation", status
    except EnumerationBudgetExceeded:
        return _canonical_bounds(g, ell, partition, Meter(left)), ell, "permutation", "bounds_only"


def _bipartite_extrema(g: Graph, coloring: list[int]) -> Extrema:
    """The extrema of a connected graph with chi = 2 over its two minimum
    colorings: a, the one of ``coloring`` and its swap in which vertex 0
    wears 1, then b, the other, in lexicographic order. Every edge joins
    a 1 to a 2, so cm2 = 2m and cm3 = m under both, and a is their
    witness. With ones the 1s of a, cm1 is 4n - 3 ones for a and
    n + 3 ones for b; a witnesses a tie.
    """
    a = tuple(coloring) if coloring[0] == 1 else tuple([3 - c for c in coloring])
    b = tuple([3 - c for c in a])
    n, m, ones = g.order, g.size, a.count(1)
    cm1 = [(4 * n - 3 * ones, a), (n + 3 * ones, b)]
    lo = min(cm1, key=itemgetter(0))
    hi = max(cm1, key=itemgetter(0))
    return {1: (*lo, *hi), 2: (2 * m, a, 2 * m, a), 3: (m, a, m, a)}


def _canonical_bounds(g: Graph, ell: int, partition, meter: Meter) -> Extrema:
    """The canonical partition's extrema where its labelings are refused,
    in the shape of :func:`_sweep_partitions`, on the units that scoring
    had.

    cm1 is the sort and cm3 the DP over prefix sets, each kept if it fits
    ``meter`` with the quotient's edges. Any index left takes the best of
    the labelings in hand, identity and reversed and the witnesses found:
    valid colorings, so bounds, not extrema.
    """
    found = [None, None, None]
    try:
        meter.charge(g.size)
        sizes, counts = _quotient(g, partition, ell)
        found[0] = _square_extrema(sizes)
        found[2] = _cut_extrema(counts, _twin_lower(sizes, counts), meter)
    except EnumerationBudgetExceeded:
        pass
    labelings = [tuple(range(1, ell + 1)), tuple(range(ell, 0, -1))]
    labelings += [p for ends in found if ends for p in ends[1::2]]
    swept = _sweep(g, sorted({label_partition(partition, p) for p in labelings}))
    for k, ends in enumerate(found, 1):
        if ends:
            lo, lo_p, hi, hi_p = ends
            swept[k] = lo, label_partition(partition, lo_p), hi, label_partition(partition, hi_p)
    return swept


def chromatic_extrema(
    g: Graph,
    index: int,
    semantics: Semantics = "all",
    paper_compat: bool = False,
) -> ExtremaResult:
    """Min and max of one chromatic index over minimum colorings.

    The values, witnesses and status of :func:`full_report`, so they are
    exact unless the partition walk meets its share of the call's work
    cap and the frontier DP the rest (WORK_CAP units of a Meter; see
    :func:`_compute_extrema`); status then reads ``bounds_only``.
    With paper_compat set, an edgeless input reports the index-3 extrema
    as the conventional default 1 instead of the raw empty edge sum 0;
    no witness evaluates to a defaulted value, so the witness is dropped.
    """
    if index not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    r = full_report(g, semantics, paper_compat)
    lo, hi = f"cm{index}_min", f"cm{index}_max"
    return ExtremaResult(index, r.value(lo), r.value(hi), r.witnesses[lo], r.witnesses[hi],
                         r.semantics_used, r.status)


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


def full_report(
    g: Graph,
    semantics: Semantics = "all",
    paper_compat: bool = False,
    label: str | None = None,
) -> IndexReport:
    """Aggregate classical values and all six chromatic extrema for one graph.

    The routes hand over witnesses as assignments; here each distinct one
    becomes a Coloring (so surjective onto 1..chi) and is re-validated
    once: proper, and its three sums, which must give every value it is a
    witness to. A chi search or canonical partition past its meter's cap
    leaves no coloring to report: EnumerationBudgetExceeded is raised.
    """
    results, ell, semantics_used, status = _compute_extrema(g, semantics)
    values: dict[str, int] = {}
    witnesses: dict[str, Coloring | None] = {}
    checked: dict[Witness, tuple[Coloring, tuple[int, int, int] | None]] = {}  # witness: sums
    # the index-2 default 0 coincides with the raw empty sum, so only
    # index 3 actually changes under the compat convention
    compat_applied = paper_compat and g.size == 0
    for index in (1, 2, 3):
        lo, lo_a, hi, hi_a = results[index]
        if compat_applied and index == 3:
            lo = hi = 1
            lo_a = hi_a = None
        if lo > hi:
            raise AssertionError(f"extrema inverted for index {index}")
        for key, value, a in ((f"cm{index}_min", lo, lo_a), (f"cm{index}_max", hi, hi_a)):
            values[key], witnesses[key] = value, None
            if a is None:
                continue
            if a not in checked:
                w = Coloring(a, ell)
                checked[a] = w, zagreb_sums(a, g.edges) if is_proper(g, w) else None
            witnesses[key], sums = checked[a]
            if sums is None or sums[index - 1] != value:
                raise AssertionError(f"witness for {key} failed re-validation")
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
    sorted descending as the formulas' hypotheses require. They rest on
    exact extrema: an inexact report raises EnumerationBudgetExceeded.
    """
    if report.status != "exact":
        raise EnumerationBudgetExceeded(
            f"the thorn base's extrema are {report.status}; the thorn forms need exact ones")
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
