"""Chromatic Zagreb indices: exact engine, closed forms, stability, verification."""

from .coloring import (
    Coloring,
    chromatic_number,
    enumerate_min_colorings,
    find_coloring,
    is_proper,
    strengths,
)
from .generators import FamilySpec, generate, parse_family_spec, thorn
from .graph import Graph
from .indices import (
    IndexReport,
    chromatic_extrema,
    chromatic_m1,
    chromatic_m2,
    chromatic_m3,
    classical_m1,
    classical_m2,
    classical_m3,
    full_report,
)
from .io import (
    GraphParseError,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from .stability import (
    StabilityReport,
    is_chromatically_stable,
    is_complete_bipartite,
    stability_number_bipartite,
    stability_number_bruteforce,
    stability_report,
)
from .verify import ClaimResult, CorpusConfig, claim_ids, run_claims

__all__ = [
    "ClaimResult",
    "Coloring",
    "CorpusConfig",
    "FamilySpec",
    "Graph",
    "GraphParseError",
    "IndexReport",
    "StabilityReport",
    "claim_ids",
    "run_claims",
    "chromatic_extrema",
    "chromatic_m1",
    "chromatic_m2",
    "chromatic_m3",
    "chromatic_number",
    "classical_m1",
    "classical_m2",
    "classical_m3",
    "enumerate_min_colorings",
    "find_coloring",
    "full_report",
    "generate",
    "is_chromatically_stable",
    "is_complete_bipartite",
    "is_proper",
    "load_graph",
    "parse_dimacs",
    "parse_edge_list",
    "parse_family_spec",
    "parse_graph6",
    "stability_number_bipartite",
    "stability_number_bruteforce",
    "stability_report",
    "strengths",
    "thorn",
    "to_edge_list",
    "to_graph6",
]
