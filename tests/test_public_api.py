"""The package's public surface: what ``spanlab`` exports, the layer
functions that stay on their own modules, and the README's quick start."""

import re
from pathlib import Path

import spanlab
import spanlab.graphs
import spanlab.products
import spanlab.spans
import spanlab.walks

PUBLIC = [
    "CapacityError", "Certificate", "Check", "ChordalityResult", "CutSet",
    "CutSetCatalog", "EDGE", "FIXTURES", "Graph", "GraphParseError",
    "INFINITY", "IntervalCertificate", "KINDS", "Metrics", "MinWalkResult",
    "RULES", "Rule", "SpanlabError", "TheoremReport", "VERTEX", "WalkPair",
    "WalkValidation", "as_rule", "augment", "brute_force_span",
    "check_interval_theorems", "check_span1_structure",
    "check_span_inequalities", "complete_graph", "components", "cycle_graph",
    "edge_span", "end_cliques", "find_asteroidal_triple", "fixture",
    "fresh_labels", "generate_family", "induced_subgraph",
    "interval_certificate", "is_chordal", "is_connected", "is_interval",
    "maximal_cliques", "metrics", "min_steps", "minimal_cut_sets",
    "parse_edgelist", "parse_graph6", "path_graph", "random_connected_graph",
    "random_interval_graph", "reroot_walk_pair", "rule_spans", "s_lobes",
    "star_graph", "subdivided_star", "to_graph6", "validate_walk_pair",
    "vertex_span",
]

# the per-threshold reference layer: not exported by the package, but kept
# on the modules that define or import it, where the tests read it and
# bench/tracing.py wraps it
REFERENCE_LAYER = {
    spanlab.products: ("ProductGraph", "build_product", "safety_subgraph"),
    spanlab.spans: ("product_components", "good_components", "edge_good_components"),
    spanlab.graphs: ("distance_matrix",),
    spanlab.walks: ("build_product", "shortest_covering_walk"),
}


def test_all_is_the_public_list():
    assert spanlab.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in spanlab.__all__:
        assert getattr(spanlab, name) is not None, name


def test_reference_layer_stays_on_its_modules():
    for module, names in REFERENCE_LAYER.items():
        for name in names:
            assert name not in spanlab.__all__
            assert callable(getattr(module, name)), (module.__name__, name)
    assert spanlab.walks.build_product is spanlab.products.build_product


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
