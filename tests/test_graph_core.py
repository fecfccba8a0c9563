"""Graph type, parsers, serializers and family generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_zagreb.generators import (
    FamilySpec,
    FamilySpecError,
    generate,
    parse_family_spec,
    thorn,
)
from chromatic_zagreb.graph import Graph
from chromatic_zagreb.io import (
    GraphParseError,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)

from conftest import complete, cycle, path, star


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.order == 4
        assert g.size == 3
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.degree(1) == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert g.degree_sequence() == (1, 2, 2, 1)

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])

    def test_connectivity(self):
        assert path(5).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
        assert Graph(1).is_connected()

    def test_non_edges_and_extension(self):
        g = path(3)
        assert g.non_edges() == ((0, 2),)
        assert g.with_extra_edges([(0, 2)]) == cycle(3)

    @given(graphs())
    def test_adjacency_symmetric_irreflexive(self, g):
        for u in range(g.order):
            assert not g.has_edge(u, u) if g.order else True
            for v in g.neighbors(u):
                assert g.has_edge(v, u)
            read_off = sorted({v for e in g.edges if u in e for v in e} - {u})
            assert g.adjacency_lists[u] == g.neighbors(u) == tuple(read_off)
        assert len(g.adjacency_lists) == g.order
        assert 2 * g.size == sum(g.degree_sequence())

    @given(graphs())
    def test_non_edges_complement_edges(self, g):
        pairs = [(u, v) for u in range(g.order) for v in range(u + 1, g.order)]
        assert g.non_edges() == tuple(p for p in pairs if p not in g.edges)
        assert g.degree_sequence() == tuple(len(g.neighbors(v)) for v in range(g.order))


class TestGraph6:
    def test_known_vectors(self):
        k5 = parse_graph6("D~{")
        assert (k5.order, k5.size) == (5, 10)
        assert k5 == complete(5)
        tri = parse_graph6("Bw")
        assert (tri.order, tri.size) == (3, 3)
        assert parse_graph6("@") == Graph(1)

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<D~{") == complete(5)

    def test_encode_known(self):
        assert to_graph6(complete(5)) == "D~{"
        assert to_graph6(Graph(1)) == "@"

    def test_bad_character_offset(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6("D~\x1f")
        assert exc.value.offset == 2

    def test_truncated(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D~")

    def test_trailing_bytes(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D~{{")

    def test_long_form_order(self):
        g = Graph(100, [(0, 99)])
        assert parse_graph6(to_graph6(g)) == g

    @given(graphs())
    @settings(max_examples=60)
    def test_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_cross_check_against_networkx(self):
        nx = pytest.importorskip("networkx")
        instances = [path(6), cycle(7), complete(6), star(8),
                     generate(FamilySpec("complete_multipartite", (2, 3))),
                     generate(thorn(FamilySpec("complete", (3,)), 2))]
        for g in instances:
            h = nx.from_graph6_bytes(to_graph6(g).encode("ascii"))
            assert set(h.nodes) == set(range(g.order))
            assert {tuple(sorted(e)) for e in h.edges} == set(g.edges)


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == path(3)

    def test_header_preserves_isolated(self):
        g = parse_edge_list("n=4\n0 1")
        assert (g.order, g.size) == (4, 1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n1 0")
        assert exc.value.line == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n2 2")
        assert exc.value.line == 2

    def test_non_integer_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0 x")

    def test_vertex_beyond_declared_order(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("n=2\n0 2")

    def test_blank_lines_ignored(self):
        assert parse_edge_list("\n0 1\n\n1 2\n") == path(3)

    @given(graphs())
    @settings(max_examples=60)
    def test_roundtrip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g

    def test_roundtrip_every_family_up_to_order_12(self):
        from chromatic_zagreb.corpus import caterpillar_profiles, multipartite_size_tuples

        specs = []
        for n in range(1, 13):
            specs += [FamilySpec("path", (n,)), FamilySpec("complete", (n,)),
                      FamilySpec("star", (n,))]
            if n >= 3:
                specs.append(FamilySpec("cycle", (n,)))
        specs += [FamilySpec("complete_multipartite", s)
                  for s in multipartite_size_tuples(12)]
        for n in range(2, 13):
            specs += [FamilySpec("caterpillar", p) for p in caterpillar_profiles(n)]
        for base in (FamilySpec("path", (4,)), FamilySpec("complete", (3,)),
                     FamilySpec("cycle", (4,)), FamilySpec("star", (4,))):
            for m in (0, 1, 2):
                spec = thorn(base, m)
                if spec.order() <= 12:
                    specs.append(spec)
        assert len(specs) > 1000
        for spec in specs:
            g = generate(spec)
            assert g.order <= 12
            assert parse_edge_list(to_edge_list(g)) == g, spec
            assert parse_graph6(to_graph6(g)) == g, spec


class TestDimacs:
    def test_basic(self):
        text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
        assert parse_dimacs(text) == path(3)

    def test_both_directions_collapse(self):
        text = "p edge 2 2\ne 1 2\ne 2 1\n"
        assert parse_dimacs(text).size == 1

    def test_errors(self):
        with pytest.raises(GraphParseError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p edge 2 1\ne 1 3\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p col 2 1\ne 1 2\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p edge 2 1\nq 1 2\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p edge -3 0\n")


class TestGenerators:
    def test_family_sizes(self):
        assert generate(FamilySpec("complete", (6,))).size == 15
        assert generate(FamilySpec("path", (6,))).size == 5
        assert generate(FamilySpec("cycle", (6,))).size == 6
        assert generate(FamilySpec("star", (6,))).size == 5

    def test_multipartite_size_formula(self):
        for sizes in [(1, 1, 1), (1, 2, 3), (2, 2), (1, 1, 2, 3)]:
            g = generate(FamilySpec("complete_multipartite", sizes))
            expected = sum(
                sizes[i] * sizes[j]
                for i in range(len(sizes))
                for j in range(i + 1, len(sizes))
            )
            assert g.size == expected
            assert g.order == sum(sizes)

    def test_multipartite_k3(self):
        assert generate(FamilySpec("complete_multipartite", (1, 1, 1))) == complete(3)

    def test_thorn_arithmetic(self):
        # uniform pendants: order n(1+m), size grows by n*m
        bases = [FamilySpec("path", (4,)), FamilySpec("cycle", (5,)),
                 FamilySpec("complete", (4,)), FamilySpec("star", (8,)),
                 FamilySpec("complete_multipartite", (2, 3))]
        for base in bases:
            bg = generate(base)
            assert bg.order <= 8
            for m in range(0, 4):
                tg = generate(thorn(base, m))
                assert tg.order == bg.order + bg.order * m
                assert tg.size == bg.size + bg.order * m

    def test_thorn_m0_is_base(self):
        base = FamilySpec("cycle", (4,))
        assert generate(thorn(base, 0)) == generate(base)

    def test_thorn_pendant_blocks_contiguous(self):
        g = generate(thorn(FamilySpec("path", (3,)), 2))
        assert (g.order, g.size) == (9, 8)
        # base vertex i keeps index i; its pendants sit at 3+2i, 4+2i
        for i in range(3):
            for k in range(2):
                assert g.has_edge(i, 3 + 2 * i + k)

    def test_thorn_per_vertex_counts(self):
        spec = FamilySpec("thorn", (0, 2, 1), base=FamilySpec("path", (3,)))
        g = generate(spec)
        assert (g.order, g.size) == (6, 5)
        assert g.degree(0) == 1 and g.degree(1) == 4 and g.degree(2) == 2

    def test_caterpillar(self):
        g = generate(FamilySpec("caterpillar", (2, 0, 1)))
        assert (g.order, g.size) == (6, 5)
        assert g.degree(0) == 3  # spine end with two leaves
        assert g.is_connected() and g.size == g.order - 1

    def test_validation(self):
        with pytest.raises(FamilySpecError):
            FamilySpec("complete_multipartite", (3, 1))  # unsorted
        with pytest.raises(FamilySpecError):
            FamilySpec("complete_multipartite", (2,))  # one part
        with pytest.raises(FamilySpecError):
            FamilySpec("wheel", (4,))
        with pytest.raises(FamilySpecError):
            FamilySpec("path", (0,))
        with pytest.raises(FamilySpecError):
            FamilySpec("cycle", (2,))
        with pytest.raises(FamilySpecError):
            FamilySpec("thorn", (-1,), base=FamilySpec("path", (3,)))
        with pytest.raises(FamilySpecError):
            FamilySpec("thorn", (1,), base=thorn(FamilySpec("path", (3,)), 1))


class TestFamilySpecGrammar:
    def test_simple_kinds(self):
        assert parse_family_spec("complete:4") == FamilySpec("complete", (4,))
        assert parse_family_spec("path:1") == FamilySpec("path", (1,))
        assert parse_family_spec("star:5") == FamilySpec("star", (5,))

    def test_multipartite_spellings(self):
        assert parse_family_spec("multipartite:1,1,1") == FamilySpec(
            "complete_multipartite", (1, 1, 1))
        assert parse_family_spec("complete-bipartite:3,2") == FamilySpec(
            "complete_multipartite", (2, 3))
        assert parse_family_spec("equal-multipartite:2,3") == FamilySpec(
            "complete_multipartite", (2, 2, 2))

    def test_thorn_nesting(self):
        spec = parse_family_spec("thorn(path:4;2)")
        assert spec.kind == "thorn" and spec.sizes == (2,)
        assert spec.base == FamilySpec("path", (4,))
        assert spec.order() == 12
        assert spec.label() == "thorn(path:4;2)"

    def test_errors(self):
        for bad in ("nonsense:3", "complete", "complete:x", "thorn(path:4)",
                    "equal-multipartite:3", "thorn(thorn(path:3;1);1)"):
            with pytest.raises(FamilySpecError):
                parse_family_spec(bad)
