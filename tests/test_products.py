"""Movement products: adjacency per rule, code projections, safety filters."""

import random

import pytest

from helpers import connected_atlas, floyd_warshall, pair_moves, random_graphs
from spanlab import RULES, Rule, as_rule, complete_graph, cycle_graph
from spanlab.products import build_product, safety_subgraph


def edge_set(p):
    return {(a, b) for a in p.codes for b in p.adj[a] if a < b}


def test_as_rule_accepts_names_and_rules():
    assert as_rule("traditional") is Rule.TRADITIONAL
    assert as_rule(Rule.LAZY) is Rule.LAZY
    with pytest.raises(ValueError):
        as_rule("sideways")


def test_rule_facts():
    assert [(rule.solo, rule.joint) for rule in RULES] == [
        (True, True), (False, True), (True, False)]


def test_product_moves_match_the_independent_generator():
    # the product built at each threshold, up to two past the diameter (no
    # pair is left past it, and far_rows clamps past the last ball level),
    # against helpers.pair_moves, which builds each rule's moves from the
    # base graph and Floyd-Warshall distances on its own
    graphs = connected_atlas(5) + random_graphs(6, 6, 7, seed=21)
    for g in graphs:
        n = g.n
        dist = floyd_warshall(g)
        diam = int(max(map(max, dist)))
        for rule in RULES:
            for k in range(diam + 3):
                p = build_product(g, rule, k)
                assert p.threshold == k
                assert p.codes == tuple(a * n + b for a in range(n) for b in range(n)
                                        if dist[a][b] >= k), (g.adj, rule, k)
                for c in [-1, *sorted(set(range(n * n)) - set(p.codes)), n * n]:
                    with pytest.raises(KeyError):
                        p.adj[c]
                for c in p.codes:
                    a, b = divmod(c, n)
                    expect = tuple(a2 * n + b2 for a2, b2 in
                                   pair_moves(g, rule.value, dist, k, a, b))
                    assert p.adj[c] == expect, (g.adj, rule, k, a, b)


def test_the_product_is_its_move_table():
    # one object: a pair's moves are generated on first read and kept in the
    # product itself, which p.adj returns
    p = build_product(cycle_graph(5), "traditional", 2)
    assert isinstance(p, dict) and p.adj is p and len(p) == 0
    moves = p[p.codes[0]]
    assert list(p.items()) == [(p.codes[0], moves)]
    assert p[p.codes[0]] is moves


def test_k2_products_by_hand():
    k2 = complete_graph(2)
    # codes: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    trad = build_product(k2, "traditional")
    assert edge_set(trad) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    active = build_product(k2, "active")
    assert edge_set(active) == {(0, 3), (1, 2)}
    lazy = build_product(k2, "lazy")
    assert edge_set(lazy) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_product_arcs_from_degree_sums():
    # the pair (u, v) has deg u + deg v solo moves and deg u * deg v joint
    # ones; summed over all n^2 pairs, 2n * 2m and (2m)^2
    for g in connected_atlas(5) + random_graphs(12, 2, 9, seed=13):
        s = 2 * g.m
        for rule in RULES:
            p = build_product(g, rule)
            arcs = (2 * g.n * s if rule.solo else 0) + (s * s if rule.joint else 0)
            assert sum(len(p.adj[c]) for c in p.codes) == arcs, (g.adj, rule)


def test_traditional_is_union_of_active_and_lazy():
    for g in random_graphs(12, 2, 6, seed=5):
        trad = edge_set(build_product(g, "traditional"))
        act = edge_set(build_product(g, "active"))
        lazy = edge_set(build_product(g, "lazy"))
        assert trad == act | lazy
        assert not act & lazy


def test_no_product_self_loops():
    # both players staying put is never a product edge
    for g in random_graphs(6, 2, 5, seed=9):
        for rule in ("traditional", "active", "lazy"):
            p = build_product(g, rule)
            assert all(a not in p.adj[a] for a in p.codes)


def test_safety_subgraph_of_c4_at_two():
    c4 = cycle_graph(4)
    p = build_product(c4, "traditional")
    s = safety_subgraph(p, 2)
    expect = {0 * 4 + 2, 2 * 4 + 0, 1 * 4 + 3, 3 * 4 + 1}
    assert set(s.codes) == expect
    # the surviving moves form a 4-cycle: both players shift one step
    assert all(len(s.adj[c]) == 2 for c in s.codes)
    assert s.threshold == 2


def test_safety_subgraph_threshold_zero_keeps_everything():
    g = cycle_graph(5)
    p = build_product(g, "lazy")
    s = safety_subgraph(p, 0)
    assert set(s.codes) == set(p.codes)
    assert edge_set(s) == edge_set(p)


def test_safety_subgraph_keeps_a_higher_threshold():
    g = cycle_graph(6)
    p = build_product(g, "traditional", 3)
    s = safety_subgraph(p, 1)
    assert s.threshold == 3
    assert s.codes == p.codes
    assert all(s.adj[c] == p.adj[c] for c in p.codes)
    assert safety_subgraph(p, 4).threshold == 4


def test_safety_filter_is_monotone():
    rng = random.Random(2)
    for g in random_graphs(8, 2, 6, seed=3):
        p = build_product(g, rng.choice(("traditional", "active", "lazy")))
        sizes = []
        for k in range(4):
            s = safety_subgraph(p, k)
            sizes.append(len(list(s.codes)))
            assert set(s.codes) <= set(p.codes)
        assert sizes == sorted(sizes, reverse=True)
