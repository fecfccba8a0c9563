"""Chromatic stability: verdicts, stability numbers, exhaustive small corpora."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import coloring, generate, parse_family_spec
from chromatic_zagreb.coloring import chromatic_number, _bipartition
from chromatic_zagreb.corpus import (
    connected_bipartite_graphs,
    labeled_connected_bipartite_graphs,
)
from chromatic_zagreb.graph import Graph
from chromatic_zagreb.stability import (
    StabilityBudgetExceeded,
    is_chromatically_stable,
    is_complete_bipartite,
    stability_number_bipartite,
    stability_number_bruteforce,
    stability_report,
)

from conftest import complete, cycle, naive_chi, path, star


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


def double_star_3_4() -> Graph:
    """Two adjacent centers, one with three leaves, one with two."""
    return Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 6), (2, 6)])


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


class TestExhaustiveCorpora:
    def test_bipartite_class_counts(self):
        # counts cross-checked below against a labeled enumeration
        counts = {}
        for label, g in connected_bipartite_graphs(8):
            counts[g.order] = counts.get(g.order, 0) + 1
            assert g.is_connected()
            assert _bipartition(g.adjacency_masks, g.order) is not None
        assert counts == {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}

    def test_class_enumeration_matches_labeled_dedup(self):
        # independent route: every labeled connected bipartite graph,
        # canonicalized by minimizing over all vertex permutations
        for n in range(2, 7):
            classes = set()
            for g in labeled_connected_bipartite_graphs(n):
                canon = min(
                    tuple(sorted(
                        tuple(sorted((p[u], p[v]))) for u, v in g.edges))
                    for p in itertools.permutations(range(n)))
                classes.add(canon)
            ours = sum(1 for _, g in connected_bipartite_graphs(n) if g.order == n)
            assert len(classes) == ours

    def test_characterization_exhaustive_to_order_8(self):
        for label, g in connected_bipartite_graphs(8):
            if g.size == g.order * (g.order - 1) // 2:
                continue  # K2: no non-edge to test
            assert is_chromatically_stable(g) == (not is_complete_bipartite(g)), label

    def test_intra_partition_addition_forces_chi_3(self):
        for _, g in connected_bipartite_graphs(7):
            sides = _bipartition(g.adjacency_masks, g.order)
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
        # the walk stops at once, leaving the chi-coloring's bound: here the
        # bipartition, that is the closed form
        monkeypatch.setattr(coloring, "WORK_CAP", 1)
        r = stability_report(double_star_3_4())
        assert (r.rho, r.method, r.rho_status) == (6, "cluster_deletion", "upper_bound")
        # here the search backtracks before its first partition, so the
        # bound (exact rho is 8) comes from the chi-coloring's classes
        g = Graph(8, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (2, 5), (2, 6),
                      (3, 5), (3, 6), (3, 7), (5, 6)])
        r = stability_report(g)
        assert (r.rho, r.rho_status) == (9, "upper_bound")

    def test_one_cap_covers_every_class_count(self, monkeypatch, meters):
        # path:10 walks k = 2, 3 and 4 in 21, 3,062 and 34,920 units: each
        # k within the cap, all three past it, so the walk stops at the cap
        monkeypatch.setattr(coloring, "WORK_CAP", 35_000)
        r = stability_report(path(10))
        assert (r.rho, r.rho_status) == (16, "upper_bound")
        (meter,) = meters
        assert 35_000 < meter.spent <= 35_000 + 10  # one charge past it at most

    def test_work_cap_bounds_large_inputs(self, schema_validator):
        # capped; the chi-coloring is the bipartition, so the bound is the closed form
        r = stability_report(path(1500))
        assert (r.rho, r.rho_status) == (750 * 750 - 1499, "upper_bound")
        schema_validator(r.to_json_dict(), "stability_report.schema.json")

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
        monkeypatch.setattr(coloring, "WORK_CAP", 1)
        r = stability_report(double_star_3_4())
        assert r.verdict_line() == \
            "chi=2: chromatically stable, rho<=6 (cluster_deletion, upper bound)"
        assert r.to_json_dict()["rho"] == 6
