"""Span values, optimal walk pairs, and structure checks for connected graphs.

Two players walk on a graph, each visiting every vertex (or traversing
every edge), while keeping at least a prescribed distance from one another
at every step.  The span of the graph is the largest distance they can
maintain; it comes in six variants (vertex or edge cover, crossed with the
traditional, active, and lazy movement rules).  The package computes all
six, reconstructs shortest optimal walk pairs, analyses the structure of
span-1 graphs (cut sets, lobes, interval representations), and fuzzes the
inequalities that tie everything together.
"""

from .errors import CapacityError, GraphParseError, SpanlabError
from .families import (FIXTURES, complete_graph, cycle_graph, fixture,
                       generate_family, path_graph, random_connected_graph,
                       random_interval_graph, star_graph, subdivided_star)
from .graphs import (INFINITY, Graph, Metrics, components, fresh_labels, girth,
                     induced_subgraph, is_connected, metrics, parse_edgelist,
                     parse_graph6, to_graph6)
from .oracle import brute_force_span
from .products import EDGE, KINDS, RULES, VERTEX, Rule, as_rule
from .spans import Certificate, edge_span, rule_spans, vertex_span
from .structure import (ChordalityResult, CutSet, CutSetCatalog,
                        IntervalCertificate, augment, end_cliques,
                        find_asteroidal_triple, interval_certificate,
                        is_chordal, is_interval, maximal_cliques,
                        minimal_cut_sets, s_lobes)
from .theorems import (Check, check_interval_theorems, check_span1_structure,
                       check_span_inequalities)
from .walks import (MinWalkResult, WalkPair, WalkValidation, min_steps,
                    reroot_walk_pair, validate_walk_pair)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "Certificate", "Check", "ChordalityResult", "CutSet",
    "CutSetCatalog", "EDGE", "FIXTURES", "Graph", "GraphParseError",
    "INFINITY", "IntervalCertificate", "KINDS", "Metrics", "MinWalkResult",
    "RULES", "Rule", "SpanlabError", "VERTEX", "WalkPair", "WalkValidation",
    "as_rule", "augment", "brute_force_span", "check_interval_theorems",
    "check_span1_structure", "check_span_inequalities", "complete_graph",
    "components", "cycle_graph", "edge_span", "end_cliques",
    "find_asteroidal_triple", "fixture", "fresh_labels", "generate_family",
    "girth", "induced_subgraph", "interval_certificate", "is_chordal",
    "is_connected", "is_interval", "maximal_cliques", "metrics", "min_steps",
    "minimal_cut_sets", "parse_edgelist", "parse_graph6", "path_graph",
    "random_connected_graph", "random_interval_graph", "reroot_walk_pair",
    "rule_spans", "s_lobes", "star_graph", "subdivided_star", "to_graph6",
    "validate_walk_pair", "vertex_span",
]
