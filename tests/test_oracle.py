"""Reachability oracle: spot values and agreement with the span solver.

The oracle never touches the product-graph machinery; it searches joint
configuration states directly, so agreement here is meaningful evidence.
The exhaustive sweep over n <= 6 lives in the acceptance suite; the one over
all connected 7-vertex graphs lives here.
"""

import pytest

from helpers import connected_atlas, random_graphs
from spanlab import (CapacityError, brute_force_span, complete_graph,
                     cycle_graph, edge_span, path_graph, star_graph,
                     vertex_span)


def test_spot_values():
    cases = [
        (complete_graph(1), "traditional", "vertex", 0),
        (complete_graph(2), "traditional", "vertex", 1),
        (complete_graph(2), "traditional", "edge", 1),
        (complete_graph(2), "lazy", "vertex", 0),
        (path_graph(3), "traditional", "vertex", 1),
        (cycle_graph(4), "traditional", "vertex", 2),
        (cycle_graph(4), "lazy", "vertex", 1),
        (cycle_graph(5), "active", "vertex", 2),
        (star_graph(3), "traditional", "vertex", 1),
    ]
    for g, rule, kind, expected in cases:
        assert brute_force_span(g, rule, kind) == expected, (rule, kind)


def test_agreement_with_solver_on_random_graphs():
    for g in random_graphs(25, 2, 6, seed=61):
        for rule in ("traditional", "active", "lazy"):
            for kind in ("vertex", "edge"):
                solve = vertex_span if kind == "vertex" else edge_span
                assert brute_force_span(g, rule, kind) == solve(g, rule)[0], (
                    g.adj, rule, kind)


def test_agreement_with_solver_on_all_7_vertex_graphs():
    catalog = [g for g in connected_atlas(7) if g.n == 7]
    assert len(catalog) == 853
    mismatches = []
    for g in catalog:
        for rule in ("traditional", "active", "lazy"):
            for kind, solve in (("vertex", vertex_span), ("edge", edge_span)):
                if brute_force_span(g, rule, kind, cap=7) != solve(g, rule)[0]:
                    mismatches.append((g.adj, rule, kind))
    assert not mismatches, mismatches[:5]


def test_capacity_cap():
    with pytest.raises(CapacityError):
        brute_force_span(path_graph(7), "traditional", "vertex")
    # a raised cap admits the same graph
    assert brute_force_span(path_graph(7), "traditional", "vertex", cap=7) == 1


def test_input_validation():
    with pytest.raises(ValueError):
        brute_force_span(path_graph(3), "traditional", "face")
    from spanlab import Graph
    with pytest.raises(ValueError):
        brute_force_span(Graph(3, [(0, 1)]), "traditional", "vertex")
