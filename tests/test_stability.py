"""Chromatic stability: verdicts, stability numbers, exhaustive small corpora."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import coloring, generate, parse_family_spec
from chromatic_zagreb.coloring import Meter, chromatic_number
from chromatic_zagreb.corpus import (
    connected_bipartite_graphs,
    labeled_connected_bipartite_graphs,
)
from chromatic_zagreb.graph import Graph
from chromatic_zagreb.stability import (
    StabilityBudgetExceeded,
    _independence_number,
    _most_pairs,
    is_chromatically_stable,
    is_complete_bipartite,
    stability_number_bipartite,
    stability_number_bruteforce,
    stability_report,
)

from conftest import (
    complete,
    cycle,
    naive_alpha,
    naive_bipartition,
    naive_chi,
    path,
    star,
)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


def canonical_bipartite_classes(n: int) -> list[tuple[str, list[tuple[int, int]]]]:
    """(label, edges) of the connected bipartite graphs of order n, one per
    class: each biadjacency column multiset (sides a <= b) is reduced to
    its least sorted image under every row permutation, and under every
    row permutation of its transpose when a == b; a seen set keeps the
    first multiset of each image."""
    out = []
    for a in range(1, n // 2 + 1):
        b = n - a
        seen = set()
        for cols in itertools.combinations_with_replacement(range(1, 1 << a), b):
            rows = [[c >> i & 1 for c in cols] for i in range(a)]
            matrices = [rows, [list(col) for col in zip(*rows)]] if a == b else [rows]
            canon = min(
                tuple(sorted(sum(m[p][j] << i for i, p in enumerate(perm))
                             for j in range(b)))
                for m in matrices
                for perm in itertools.permutations(range(a))
            )
            if canon in seen:
                continue
            seen.add(canon)
            g = Graph(n, [(i, a + j) for j, c in enumerate(canon)
                          for i in range(a) if c >> i & 1])
            if g.is_connected():
                out.append((f"bipartite:{a},{b}:#{len(out)}", g.edges))
    return out


def double_star_3_4() -> Graph:
    """Two adjacent centers, one with three leaves, one with two."""
    return Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 6), (2, 6)])


def inward_path(n: int) -> Graph:
    """A path whose two leaves are its lowest vertices: the even vertices
    ascending, then the odd ones descending."""
    walk = list(range(0, n, 2)) + list(range(n - 1 - n % 2, 0, -2))
    return Graph(n, list(zip(walk, walk[1:])))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def grotzsch() -> Graph:
    """The Mycielskian of C5: each v + 5 has the neighbours of v, and 10
    joins every v + 5; triangle-free with chi = 4 and alpha = 5."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(u, v + 5) for u, v in c5] + [(u + 5, v) for u, v in c5]
    return Graph(11, c5 + shadows + [(v + 5, 10) for v in range(5)])


class TestCompleteBipartite:
    @pytest.mark.parametrize("g,expected", [
        (cycle(4), True),        # C4 is the balanced complete bipartite graph on 4
        (path(4), False),
        (Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]), True),  # K_{2,3}
        (complete(3), False),
        (star(5), True),         # stars are complete bipartite
        (Graph(4, [(0, 1), (2, 3)]), False),
        (Graph(1), False),
    ])
    def test_known(self, g, expected):
        assert is_complete_bipartite(g) == expected

    @given(graphs(max_n=8))
    @example(Graph(1))
    @example(Graph(2))
    @example(complete(2))
    @example(cycle(4))
    @example(cycle(5))
    @example(Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]))  # K_{2,3}
    @example(Graph(4, [(0, 1), (2, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_definition(self, g):
        # connected, 2-colorable, and every pair across the sides an edge
        sides = naive_bipartition(g)
        expected = (g.order >= 2 and g.is_connected() and sides is not None
                    and g.size == len(sides[0]) * len(sides[1]))
        assert is_complete_bipartite(g) == expected


class TestStabilityVerdict:
    def test_complete_bipartite_unstable(self):
        for a, b in [(1, 3), (2, 2), (2, 3), (3, 3), (1, 6)]:
            g = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
            assert is_chromatically_stable(g) is False

    def test_p4_stable(self):
        assert is_chromatically_stable(path(4)) is True

    def test_complete_minus_edge_unstable(self):
        for n in (3, 4, 5):
            g = Graph(n, [e for e in complete(n).edges if e != (0, 1)])
            assert is_chromatically_stable(g) is False

    def test_complete_returns_none(self):
        assert is_chromatically_stable(complete(4)) is None

    def test_even_cycles_stable_odd_not_two_chromatic(self):
        assert is_chromatically_stable(cycle(4)) is False  # = K_{2,2}
        assert is_chromatically_stable(cycle(6)) is True
        assert chromatic_number(cycle(5)) == 3

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            is_chromatically_stable(Graph(1))

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_definition(self, g):
        non_edges = [(u, v) for u in range(g.order) for v in range(u + 1, g.order)
                     if (u, v) not in g.edges]
        chi = naive_chi(g)
        expected = (any(naive_chi(g.with_extra_edges([e])) == chi for e in non_edges)
                    if non_edges else None)
        assert is_chromatically_stable(g) is expected


class TestStabilityNumber:
    @pytest.mark.parametrize("g,rho", [(path(4), 1), (path(5), 2), (cycle(6), 3)])
    def test_closed_form(self, g, rho):
        assert stability_number_bipartite(g) == rho

    @pytest.mark.parametrize("g,rho", [(path(4), 1), (path(5), 2), (cycle(6), 3)])
    def test_bruteforce(self, g, rho):
        assert stability_number_bruteforce(g) == rho

    def test_closed_form_preconditions(self):
        with pytest.raises(ValueError):
            stability_number_bipartite(cycle(4))  # already complete bipartite
        with pytest.raises(ValueError):
            stability_number_bipartite(complete(3))  # not 2-chromatic
        with pytest.raises(ValueError):
            stability_number_bipartite(Graph(4, [(0, 1), (2, 3)]))  # disconnected
        with pytest.raises(ValueError):
            stability_number_bipartite(Graph(1))  # connected, but chi = 1

    def test_bruteforce_preconditions(self):
        with pytest.raises(ValueError):
            stability_number_bruteforce(star(4))  # unstable input
        with pytest.raises(StabilityBudgetExceeded):
            stability_number_bruteforce(path(12))
        with pytest.raises(StabilityBudgetExceeded):
            stability_number_bruteforce(path(7), max_subsets=3)

    def test_double_star_breaks_the_closed_form(self):
        # completing the two centers against all leaves yields the
        # unstable complete tripartite graph after 5 additions, one
        # fewer than the cross-partition count 3*4 - 6 = 6
        g = double_star_3_4()
        assert stability_number_bipartite(g) == 6
        assert stability_number_bruteforce(g) == 5

    def test_closed_form_never_below_bruteforce(self):
        for _, g in connected_bipartite_graphs(6):
            if is_complete_bipartite(g):
                continue
            brute = stability_number_bruteforce(g)
            assert stability_number_bipartite(g) >= brute
            # the rho that prop-4.6 compares the closed form with
            r = stability_report(g)
            assert (r.rho, r.rho_status) == (brute, "exact")


class TestIndependenceBound:
    @given(graphs(max_n=10))
    @example(cycle(5))
    @example(cycle(7))
    @example(petersen())
    @example(Graph(7, [(i, j) for i in range(3) for j in range(3, 7)]))  # K_{3,4}
    @example(grotzsch())
    @example(Graph(3))
    @example(inward_path(8))
    @example(Graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8)]))
    @settings(max_examples=150, deadline=None)
    def test_alpha_matches_naive(self, g):
        masks = g.adjacency_masks
        assert _independence_number(masks, g.order, Meter(float("inf"))) == naive_alpha(g)

    @pytest.mark.parametrize("n", [41, 42])
    def test_trees_end_at_the_first_node(self, n):
        # the work list of degree <= 1 candidates reaches the leaves last;
        # each leaf taken exposes the next one only through the work list
        g = inward_path(n)
        assert _independence_number(g.adjacency_masks, n, Meter(1)) == (n + 1) // 2

    def test_most_pairs_matches_every_composition(self):
        # alpha = 1 is left out: only a complete graph has it, and it has no rho
        for n in range(1, 13):
            for k in range(1, n + 1):
                # the compositions of n into k parts, cut at k - 1 points
                compositions = [
                    [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
                    for cuts in itertools.combinations(range(1, n), k - 1)
                ]
                for alpha in range(2, n + 1):
                    fits = [sum(s * (s - 1) // 2 for s in c)
                            for c in compositions if max(c) <= alpha]
                    if fits:
                        assert _most_pairs(n, k, alpha) == max(fits), (n, k, alpha)

    @given(graphs(max_n=7))
    @example(double_star_3_4())
    @example(path(7))
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_bruteforce(self, g):
        assume(is_chromatically_stable(g) is True)
        n = g.order
        most = _most_pairs(n, naive_chi(g), naive_alpha(g))
        assert n * (n - 1) // 2 - g.size - most <= stability_number_bruteforce(g)


class TestExhaustiveCorpora:
    def test_bipartite_class_counts(self):
        # counts cross-checked below against a labeled enumeration
        counts = {}
        for label, g in connected_bipartite_graphs(8):
            counts[g.order] = counts.get(g.order, 0) + 1
            assert g.is_connected()
            assert naive_bipartition(g) is not None
        assert counts == {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}

    def test_class_enumeration_matches_labeled_dedup(self):
        # independent route: every labeled connected bipartite graph, one
        # kept per isomorphism class by networkx, within buckets of equal
        # size and degree sequence
        import networkx as nx  # a test extra; a missing one fails, not skips, this check
        found = []
        for n in range(2, 7):
            buckets: dict[tuple, list] = {}
            for g in labeled_connected_bipartite_graphs(n):
                h = nx.Graph(g.edges)
                bucket = buckets.setdefault((g.size, tuple(sorted(g.degree_sequence()))), [])
                if not any(nx.is_isomorphic(h, k) for k in bucket):
                    bucket.append(h)
            found.append(sum(map(len, buckets.values())))
            ours = sum(1 for _, g in connected_bipartite_graphs(n) if g.order == n)
            assert found[-1] == ours
        assert found == [1, 1, 3, 5, 17]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_classes_match_canonicalize_everything(self, n):
        # the orderly enumeration must keep the same representatives, in
        # the same order and under the same labels, as the rule it stands
        # for: every column multiset canonicalized, the first of each form kept
        ours = [(label, g.edges) for label, g in connected_bipartite_graphs(n) if g.order == n]
        assert ours == canonical_bipartite_classes(n)

    def test_characterization_exhaustive_to_order_8(self):
        for label, g in connected_bipartite_graphs(8):
            if g.size == g.order * (g.order - 1) // 2:
                continue  # K2: no non-edge to test
            assert is_chromatically_stable(g) == (not is_complete_bipartite(g)), label

    def test_intra_partition_addition_forces_chi_3(self):
        for _, g in connected_bipartite_graphs(7):
            sides = naive_bipartition(g)
            for side in sides:
                for u, v in itertools.combinations(sorted(side), 2):
                    if not g.has_edge(u, v):
                        assert chromatic_number(g.with_extra_edges([(u, v)])) == 3


class TestStabilityReport:
    def test_p4(self):
        r = stability_report(path(4))
        assert (r.stable, r.rho, r.method, r.rho_status) == \
            (True, 1, "cluster_deletion", "exact")

    def test_complete(self):
        r = stability_report(complete(5))
        assert r.perfectly_stable and r.stable is None
        assert r.method == "not_applicable" and r.rho is None

    def test_double_star_reports_true_value(self):
        # the partition search finds the tripartite route the closed form misses
        r = stability_report(double_star_3_4())
        assert (r.rho, r.method, r.rho_status) == (5, "cluster_deletion", "exact")

    @pytest.mark.parametrize("spec,rho", [
        ("path:9", 12), ("cycle:9", 15), ("thorn(path:4;1)", 9),
        ("path:10", 16), ("cycle:10", 15), ("cycle:7", 8),
        # the alpha bound proves each of these without a walk past chi classes
        ("path:13", 30), ("path:14", 36), ("path:16", 49), ("cycle:13", 35),
        ("caterpillar:2,0,3,1,2", 24), ("path:24", 121), ("cycle:25", 143),
    ])
    def test_exact_values(self, spec, rho):
        r = stability_report(generate(parse_family_spec(spec)))
        assert (r.rho, r.method, r.rho_status) == (rho, "cluster_deletion", "exact")

    @given(graphs(max_n=6))
    @example(double_star_3_4())
    @settings(max_examples=80, deadline=None)
    def test_rho_matches_bruteforce(self, g):
        assume(is_chromatically_stable(g) is True)
        r = stability_report(g)
        assert (r.rho, r.rho_status) == (stability_number_bruteforce(g), "exact")

    def test_unstable_has_no_rho(self):
        r = stability_report(star(4))
        assert r.stable is False and r.rho is None

    def test_chi3_stable_is_exact(self):
        # odd cycle: chi = 3; some addition preserves 3, so it is stable
        r = stability_report(cycle(5))
        assert r.chi == 3 and r.stable is True
        assert (r.rho, r.method, r.rho_status) == \
            (stability_number_bruteforce(cycle(5)), "cluster_deletion", "exact")

    def test_budget_degrades_to_upper_bound(self, monkeypatch):
        # the chi search takes the whole cap, 14 units, so the walk stops at
        # once, leaving the chi-coloring's bound: here the bipartition, that
        # is the closed form
        monkeypatch.setattr(coloring, "WORK_CAP", 14)
        r = stability_report(double_star_3_4())
        assert (r.rho, r.method, r.rho_status) == (6, "cluster_deletion", "upper_bound")
        # here too (18 units), so the bound (exact rho is 12) comes from the
        # classes of the chi-coloring, DSATUR's greedy one: sizes 5, 3 and 1
        monkeypatch.setattr(coloring, "WORK_CAP", 18)
        r = stability_report(generate(parse_family_spec("thorn(complete:3;2)")))
        assert (r.rho, r.rho_status) == (14, "upper_bound")

    def test_one_cap_covers_every_class_count(self, monkeypatch, meters):
        # thorn(complete:3;2): the chi search takes 18 units, the alpha
        # search 1, and the walk 714 units at k = 3 and 7,025 at k = 4,
        # where a partition meets the alpha bound of 15 pairs: each k within
        # the cap, all together past it, so the walk stops at the cap (exact
        # rho is 12)
        monkeypatch.setattr(coloring, "WORK_CAP", 7_500)
        r = stability_report(generate(parse_family_spec("thorn(complete:3;2)")))
        assert (r.rho, r.rho_status) == (14, "upper_bound")
        (meter,) = meters
        assert 7_500 < meter.spent <= 7_500 + 9  # one charge past it at most

    @pytest.mark.parametrize("spec,rho", [
        ("path:1500", 561_001),
        ("cycle:1501", 562_499),
    ])
    def test_alpha_bound_closes_large_inputs(self, spec, rho, schema_validator):
        # the chi-coloring's classes meet the alpha bound, so nothing is walked
        start = time.perf_counter()
        r = stability_report(generate(parse_family_spec(spec)))
        assert time.perf_counter() - start < 1
        assert (r.rho, r.rho_status) == (rho, "exact")
        schema_validator(r.to_json_dict(), "stability_report.schema.json")

    def test_work_cap_bounds_large_inputs(self, schema_validator):
        # the alpha bound at k = chi = 3 leaves a gap (rho >= 143), so the walk
        # runs to the cap
        r = stability_report(generate(parse_family_spec("thorn(cycle:9;2)")))
        assert (r.rho, r.rho_status) == (167, "upper_bound")
        schema_validator(r.to_json_dict(), "stability_report.schema.json")

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.5])
    def test_random_graphs_stop_within_seconds(self, p):
        # the alpha search and the walk share one cap: 0.5 s at p = 0.05 and
        # 0.1, and 3.3-4.4 s at p = 0.5 on 2 cores, most of it the chi search
        # and the walk up to the cap; the alpha search takes 5-459 nodes
        rng = random.Random(60)
        g = Graph(60, [(u, v) for u in range(60) for v in range(u + 1, 60)
                       if rng.random() < p])
        start = time.perf_counter()
        r = stability_report(g)
        assert time.perf_counter() - start < 15
        assert r.rho_status in ("exact", "upper_bound")

    def test_disconnected_flagged(self):
        r = stability_report(Graph(4, [(0, 1), (2, 3)]))
        assert not r.connected

    def test_json_schema(self, schema_validator):
        for g in (path(4), complete(4), star(5), cycle(5)):
            schema_validator(stability_report(g).to_json_dict(),
                             "stability_report.schema.json")

    def test_verdict_lines(self):
        assert "perfectly stable" in stability_report(complete(4)).verdict_line()
        assert "unstable" in stability_report(star(4)).verdict_line()
        assert "rho=1" in stability_report(path(4)).verdict_line()

    def test_verdict_line_prints_an_upper_bound_as_a_bound(self, monkeypatch):
        assert stability_report(double_star_3_4()).verdict_line() == \
            "chi=2: chromatically stable, rho=5 (cluster_deletion)"
        monkeypatch.setattr(coloring, "WORK_CAP", 14)  # all of it for the chi search
        r = stability_report(double_star_3_4())
        assert r.verdict_line() == \
            "chi=2: chromatically stable, rho<=6 (cluster_deletion, upper bound)"
        assert r.to_json_dict()["rho"] == 6
