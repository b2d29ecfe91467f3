"""Reachability oracle: spot values and agreement with the span solver.

The oracle never touches the product-graph machinery; it searches joint
configuration states directly, so agreement here is meaningful evidence.
The exhaustive sweep over n <= 6 lives in the acceptance suite; the one over
all connected 7-vertex graphs lives here, and so does the check of every
threshold against the joint-state searches of ``helpers``.
"""

import pytest

from helpers import (connected_atlas, naive_edge_cover, naive_min_moves,
                     random_graphs)
from spanlab import (CapacityError, Graph, brute_force_span, complete_graph,
                     cycle_graph, edge_span, metrics, path_graph,
                     star_graph, vertex_span)


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


def test_every_threshold_against_joint_state_searches():
    # feasibility at k holds iff k <= the oracle's span, for every k up to
    # one past the radius: vertex kind against a BFS over (positions, both
    # visited sets), edge kind against a search over (positions, both
    # traversed-edge masks) with no component decomposition
    cases = 0
    for g in connected_atlas(6):
        if g.n < 2:
            continue
        top = int(metrics(g).radius) + 1
        for rule in ("traditional", "active", "lazy"):
            if g.n <= 5:
                span = brute_force_span(g, rule, "vertex")
                for k in range(top + 1):
                    assert (k <= span) == (naive_min_moves(g, rule, k) is not None), (
                        g.adj, rule, "vertex", k)
                    cases += 1
            if g.m <= 7:
                span = brute_force_span(g, rule, "edge")
                for k in range(top + 1):
                    assert (k <= span) == naive_edge_cover(g, rule, k), (g.adj, rule, "edge", k)
                    cases += 1
    assert cases == 306 + 720


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
    with pytest.raises(ValueError):
        brute_force_span(Graph(3, [(0, 1)]), "traditional", "vertex")
    with pytest.raises(ValueError, match="at least one vertex"):
        brute_force_span(Graph(0), "traditional", "vertex")
