"""The bit-parallel oracle against conftest's tuple-by-tuple filter."""

from __future__ import annotations

import ast
import itertools
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromatic_zagreb import oracle
from chromatic_zagreb.graph import Graph
from chromatic_zagreb.indices import full_report
from chromatic_zagreb.oracle import (
    oracle_chromatic_number,
    oracle_extrema,
    oracle_min_colorings,
)

from conftest import complete, naive_chi, naive_extrema, naive_min_colorings, path, star


@st.composite
def numbered_graphs(draw):
    """A graph of order 1..6 under a random numbering of its vertices."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for (u, v), keep in zip(pairs, picks) if keep])


class TestAgainstNaiveFilter:
    @given(numbered_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_tuple_by_tuple_filter(self, g):
        chi = naive_chi(g)
        assert oracle_chromatic_number(g) == chi
        for ell in (None, chi, chi + 1):
            assert list(oracle_min_colorings(g, ell)) == naive_min_colorings(g, ell)
        assert oracle_extrema(g) == naive_extrema(g)


@st.composite
def masks(draw):
    """(mask, k, n): any subset of the k^n assignments of {1..k}^n."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    return draw(st.integers(min_value=0, max_value=(1 << k ** n) - 1)), k, n


class TestDecoder:
    @given(masks())
    @example((1, 1, 1))
    @example((0, 3, 4))  # empty mask
    @example(((1 << 4 ** 5) - 1, 4, 5))  # full mask
    @example((1 << 8, 3, 2))  # 9 bits: the top one alone in its byte
    @example(((1 << 26) | 5, 3, 3))  # 27 bits, top bit set
    @settings(max_examples=200, deadline=None)
    def test_set_bits_decode_to_product_order(self, case):
        mask, k, n = case
        product = itertools.product(range(1, k + 1), repeat=n)
        expected = [a for i, a in enumerate(product) if mask >> i & 1]
        assert list(oracle._assignments(mask, k, n)) == expected


class TestProperMask:
    @given(numbered_graphs(), st.integers(min_value=1, max_value=4))
    # k below chi, a single edge and no edge, at every k up to 5
    @example(path(2), 1)
    @example(path(2), 2)
    @example(path(2), 3)
    @example(path(2), 4)
    @example(path(2), 5)
    @example(Graph(3), 1)
    @example(Graph(3), 2)
    @example(Graph(3), 3)
    @example(Graph(3), 4)
    @example(Graph(3), 5)
    @example(complete(4), 1)
    @example(complete(4), 2)
    @example(complete(4), 3)
    @example(complete(4), 4)
    @example(complete(4), 5)
    @settings(max_examples=100, deadline=None)
    def test_matches_product_bit_by_bit(self, g, k):
        product = itertools.product(range(1, k + 1), repeat=g.order)
        expected = [all(a[u] != a[v] for u, v in g.edges) for a in product]
        mask = oracle._proper_mask(g, k)
        assert [bool(mask >> i & 1) for i in range(k ** g.order)] == expected
        assert mask >> k ** g.order == 0


class TestEdgeCases:
    def test_order_one(self):
        g = Graph(1)
        assert oracle_chromatic_number(g) == 1
        assert list(oracle_min_colorings(g)) == [(1,)]
        assert list(oracle_min_colorings(g, 2)) == []
        assert oracle_extrema(g) == {1: (1, 1), 2: (0, 0), 3: (0, 0)}

    @pytest.mark.parametrize("n", [2, 5])
    def test_edgeless(self, n):
        g = Graph(n)
        assert oracle_chromatic_number(g) == 1
        assert list(oracle_min_colorings(g)) == [(1,) * n]
        assert list(oracle_min_colorings(g, 2)) == naive_min_colorings(g, 2)
        assert oracle_extrema(g) == {1: (n, n), 2: (0, 0), 3: (0, 0)}

    @pytest.mark.parametrize("g", [path(4), star(5), complete(4)])
    def test_palette_below_chi_yields_nothing(self, g):
        chi = oracle_chromatic_number(g)
        for ell in range(1, chi):
            assert list(oracle_min_colorings(g, ell)) == []

    def test_order_zero_raises(self):
        g = Graph(0)
        with pytest.raises(ValueError):
            oracle_chromatic_number(g)
        with pytest.raises(ValueError):
            list(oracle_min_colorings(g))
        with pytest.raises(ValueError):
            oracle_extrema(g)

    def test_complete_seven(self):
        g = complete(7)
        assert sum(1 for _ in oracle_min_colorings(g)) == 5040
        r = full_report(g)
        assert oracle_extrema(g) == {
            1: (r.cm1_min, r.cm1_max),
            2: (r.cm2_min, r.cm2_max),
            3: (r.cm3_min, r.cm3_max),
        }


def test_oracle_imports_nothing_of_the_engine():
    """The oracle checks the engine, so it may share no code with it: its
    imports are the standard library and the graph type alone."""
    source = resources.files("chromatic_zagreb").joinpath("oracle.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "graph"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)
