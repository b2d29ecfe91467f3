"""Brute-force oracle: spot values and agreement with the span solver.

The oracle shares no code with the solver beyond the rule and kind names (a
test below pins that): it generates each pair's moves from the adjacency
and ORs the players' marks over each component of them, so agreement here
is meaningful evidence.  The lemma it rests on (a component admits covering
walks iff those unions are full) is checked against the joint-state
searches of ``helpers``, which decompose nothing.  The exhaustive sweep over
n <= 6 lives in the acceptance suite; the ones over all connected 7-vertex
graphs and all trees with 8 and 9 vertices live here, and so does the work
budget.
"""

import ast
import inspect

import pytest

import spanlab.oracle
import spanlab.products
import spanlab.spans
import spanlab.walks
from helpers import (all_trees, connected_atlas, floyd_warshall, naive_edge_cover,
                     naive_min_moves, pair_moves, random_graphs)
from spanlab import (CapacityError, Graph, as_rule, brute_force_span, complete_graph,
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
    # feasibility at k holds iff k <= the oracle's span: vertex kind against
    # a BFS over (positions, both visited sets), edge kind against a search
    # over (positions, both traversed-edge masks), with no component
    # decomposition.  Every k up to one past the radius, except the vertex
    # kind at n = 6: feasibility is monotone in k, so k = span and
    # k = span + 1 decide every threshold there
    cases = 0
    for g in connected_atlas(6):
        if g.n < 2:
            continue
        top = int(metrics(g).radius) + 1
        for rule in ("traditional", "active", "lazy"):
            span = brute_force_span(g, rule, "vertex")
            for k in range(top + 1) if g.n <= 5 else (span, span + 1):
                assert (k <= span) == (naive_min_moves(g, rule, k) is not None), (
                    g.adj, rule, "vertex", k)
                cases += 1
            if g.m <= 7:
                span = brute_force_span(g, rule, "edge")
                for k in range(top + 1):
                    assert (k <= span) == naive_edge_cover(g, rule, k), (g.adj, rule, "edge", k)
                    cases += 1
    assert cases == 306 + 672 + 720


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
    # the budget counts moves generated over every threshold: each call below
    # needs exactly that many units, answers at that budget and raises one
    # unit short of it.  K7's traditional vertex span is the dearest with
    # n <= 7
    cases = [(path_graph(7), "traditional", "vertex", 460),
             (path_graph(7), "traditional", "edge", 460),
             (parse_graph6("FNz~o"), "active", "edge", 898),
             (complete_graph(7), "traditional", "vertex", 1_722)]
    assert max(case[-1] for case in cases) <= spanlab.oracle.ORACLE_BUDGET
    for g, rule, kind, units in cases:
        monkeypatch.setattr(spanlab.oracle, "ORACLE_BUDGET", units)
        assert brute_force_span(g, rule, kind) == 1
        monkeypatch.setattr(spanlab.oracle, "ORACLE_BUDGET", units - 1)
        with pytest.raises(CapacityError) as exc:
            brute_force_span(g, rule, kind)
        assert (exc.value.budget, exc.value.limit) == ("ORACLE_BUDGET", units - 1)


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
    # each pair's moves are generated once per threshold, when the pass over
    # its component first pops it
    charged = charges(monkeypatch)
    for g in connected_atlas(6):
        for rule in ("traditional", "active", "lazy"):
            for kind in ("vertex", "edge"):
                brute_force_span(g, rule, kind)
    assert sum(charged) == 141_472


def test_each_pair_charged_its_own_moves(monkeypatch):
    # at an infeasible threshold the pass pops every far pair once, and
    # charges it exactly its moves: the multiset of charges equals the move
    # counts of the base-graph enumeration, pair by pair, not just in sum
    charged = charges(monkeypatch)
    thresholds = 0
    for g in connected_atlas(6):
        dist, radius = floyd_warshall(g), int(metrics(g).radius)
        for rule in ("traditional", "active", "lazy"):
            for kind in ("vertex", "edge"):
                for k in range(brute_force_span(g, rule, kind) + 1, radius + 1):
                    charged.clear()
                    assert not spanlab.oracle._feasible(g, as_rule(rule), k, kind, [10**9])
                    expected = [len(pair_moves(g, rule, dist, k, a, b)) for a in range(g.n)
                                for b in range(g.n) if dist[a][b] >= k]
                    assert sorted(charged) == sorted(expected), (g.adj, rule, kind, k)
                    thresholds += 1
    assert thresholds == 341


def test_over_budget_searches_stop():
    # the budget counts moves generated: a 9-vertex graph answers at once,
    # while K40's traditional edge span passes it at threshold 1
    g = generate_family("random:9:0.6:3")
    assert brute_force_span(g, "lazy", "edge") == edge_span(g, "lazy")[0] == 1
    with pytest.raises(CapacityError):
        brute_force_span(complete_graph(40), "traditional", "edge")


def test_over_budget_call_stops_one_pair_past_the_budget(monkeypatch):
    # K80's threshold-1 moves number about 40M arcs, 6,319 per pair.  The
    # pass generates a pair's moves when it first pops the pair and charges
    # them at once, so the call stops at most one pair's moves past the
    # budget
    charged = charges(monkeypatch)
    with pytest.raises(CapacityError):
        brute_force_span(complete_graph(80), "traditional", "vertex")
    assert sum(charged) <= spanlab.oracle.ORACLE_BUDGET + 2 * (80 * 79 - 1)


def defined_names(module) -> set[str]:
    """The names a module's source defines (not imports) at its top level."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_oracle_shares_no_code_with_the_solver():
    # the oracle is an independent check only while it reuses nothing of
    # the solver: no name from spans or walks, and from products only the
    # rule enum with its members, its parser and the kind names
    tree = ast.parse(inspect.getsource(spanlab.oracle))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module or "", set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name, set()) for a in node.names)
    modules = set(imported) | imported.get("", set())
    assert not {"spans", "walks", "spanlab", "spanlab.spans", "spanlab.walks"} & modules
    assert imported["products"] == {"Rule", "as_rule", "VERTEX", "EDGE"}
    # from graphs only the graph, its balls, connectivity and metrics: the
    # row masks, floods and pair codes there serve the solver
    assert imported["graphs"] == {"Graph", "distance_balls", "is_connected", "metrics"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for solver in (spanlab.spans, spanlab.walks):
        assert not defined_names(solver) & used, solver.__name__
    # nor the rule table: a rule's steps are spelt out, not read off Rule
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    rule = spanlab.products.Rule
    assert not attrs & ({name for name in vars(rule) if not name.startswith("_")}
                        - rule.__members__.keys())


def test_input_validation():
    with pytest.raises(ValueError):
        brute_force_span(path_graph(3), "traditional", "face")
    with pytest.raises(ValueError):
        brute_force_span(Graph(3, [(0, 1)]), "traditional", "vertex")
    with pytest.raises(ValueError, match="at least one vertex"):
        brute_force_span(Graph(0), "traditional", "vertex")
