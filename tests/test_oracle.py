"""Reachability oracle: spot values and agreement with the span solver.

The oracle never touches the product-graph machinery; it searches joint
configuration states directly, so agreement here is meaningful evidence.
The exhaustive sweep over n <= 6 lives in the acceptance suite; the ones over
all connected 7-vertex graphs and all trees with 8 and 9 vertices live
here, and so do the check of every threshold against the joint-state
searches of ``helpers`` and the work budget.
"""

import pytest

import spanlab.oracle
from helpers import (all_trees, connected_atlas, naive_edge_cover, naive_min_moves,
                     random_graphs)
from spanlab import (CapacityError, Graph, brute_force_span, complete_graph,
                     cycle_graph, edge_span, generate_family, metrics, parse_graph6,
                     path_graph, star_graph, vertex_span)


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
                if brute_force_span(g, rule, kind) != solve(g, rule)[0]:
                    mismatches.append((g.adj, rule, kind))
    assert not mismatches, mismatches[:5]


def test_agreement_with_solver_on_trees_with_8_and_9_vertices():
    trees = [g for g in all_trees(9) if g.n >= 8]
    assert len(trees) == 23 + 47
    for g in trees:
        for rule in ("traditional", "active", "lazy"):
            for kind, solve in (("vertex", vertex_span), ("edge", edge_span)):
                assert brute_force_span(g, rule, kind) == solve(g, rule)[0], (
                    g.adj, rule, kind)


def test_work_budget(monkeypatch):
    # the budget counts moves generated and states visited over every
    # threshold: each call below needs exactly that many units, answers at
    # that budget and raises one unit short of it (1,976, 667 and 448,074
    # units when every threshold's whole move table was built up front)
    cases = [(path_graph(7), "traditional", "vertex", 495),
             (path_graph(7), "traditional", "edge", 495),
             (parse_graph6("FNz~o"), "active", "edge", 446_853)]
    assert max(case[-1] for case in cases) <= spanlab.oracle.ORACLE_BUDGET
    for g, rule, kind, units in cases:
        monkeypatch.setattr(spanlab.oracle, "ORACLE_BUDGET", units)
        assert brute_force_span(g, rule, kind) == 1
        monkeypatch.setattr(spanlab.oracle, "ORACLE_BUDGET", units - 1)
        with pytest.raises(CapacityError, match="budget of"):
            brute_force_span(g, rule, kind)


def charges(monkeypatch) -> list[int]:
    """The units of each charge the oracle makes from now on."""
    charged = []
    charge = spanlab.oracle._charge

    def recording(left, units):
        charged.append(units)
        charge(left, units)

    monkeypatch.setattr(spanlab.oracle, "_charge", recording)
    return charged


def test_units_charged_over_the_atlas(monkeypatch):
    # moves are generated per pair when a search first enters it, and the
    # search pops the states that add a mark first: 354,702 units when each
    # threshold's whole move table was built up front
    charged = charges(monkeypatch)
    for g in connected_atlas(6):
        for rule in ("traditional", "active", "lazy"):
            for kind in ("vertex", "edge"):
                brute_force_span(g, rule, kind)
    assert sum(charged) == 213_227


def test_over_budget_searches_stop():
    # a 9-vertex edge search passes the budget in its visited states
    g = generate_family("random:9:0.6:3")
    with pytest.raises(CapacityError):
        brute_force_span(g, "lazy", "edge")


def test_over_budget_successor_tables_stop(monkeypatch):
    # K80's threshold-1 moves number about 40M arcs, 6,319 per pair.  A
    # search generates a pair's moves when it first enters the pair and
    # checks the live count once per popped state, so the call stops at most
    # one pair's moves and the states they mark past the budget
    charged = charges(monkeypatch)
    with pytest.raises(CapacityError):
        brute_force_span(complete_graph(80), "traditional", "vertex")
    assert sum(charged) <= spanlab.oracle.ORACLE_BUDGET + 2 * (80 * 79 - 1)


def test_input_validation():
    with pytest.raises(ValueError):
        brute_force_span(path_graph(3), "traditional", "face")
    with pytest.raises(ValueError):
        brute_force_span(Graph(3, [(0, 1)]), "traditional", "vertex")
    with pytest.raises(ValueError, match="at least one vertex"):
        brute_force_span(Graph(0), "traditional", "vertex")
