"""Acceptance criteria.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n: PASS/FAIL (elapsed)" line, enforcing the stated time budget.
Run with -s to see the lines as they happen.
"""

import random
import time
from contextlib import contextmanager

from helpers import (all_trees, connected_atlas, least_covering_walk, naive_min_moves,
                     random_graphs, violations)
from spanlab import (Graph, Rule, WalkPair, augment, brute_force_span,
                     check_span1_structure, check_span_inequalities,
                     complete_graph, cycle_graph, edge_span, end_cliques,
                     fixture, induced_subgraph, is_chordal, is_interval,
                     min_steps, minimal_cut_sets, random_connected_graph,
                     random_interval_graph, to_graph6, validate_walk_pair, vertex_span)


@contextmanager
def criterion(num: int, budget_s: float, desc: str):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < budget_s
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s) {desc}", flush=True)
    assert elapsed < budget_s, (
        f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s")


def test_criterion_1_figure1_spans():
    with criterion(1, 1.0, "figure1 traditional spans"):
        g = fixture("figure1")
        assert vertex_span(g, "traditional")[0] == 2
        assert edge_span(g, "traditional")[0] == 1


def test_criterion_2_figure3_walks_and_span():
    with criterion(2, 1.0, "figure3 published walk pair and span"):
        g = fixture("figure3")
        alice = ("1", "2", "8", "4", "7", "3", "6", "5", "6", "6", "6", "5", "8")
        bob = ("5", "6", "6", "6", "5", "8", "2", "1", "2", "8", "4", "7", "3")
        pair = WalkPair(alice=alice, bob=bob, rule=Rule.TRADITIONAL,
                        safety=2, moves=len(alice) - 1)
        v = validate_walk_pair(pair, g, 2)
        assert not v.illegal_steps and not v.missing_alice and not v.missing_bob
        assert v.safety == 2
        assert v.valid
        assert vertex_span(g, "traditional")[0] == 2


def test_criterion_3_figure2_span_and_chordality():
    with criterion(3, 1.0, "figure2 span 1, not chordal"):
        g = fixture("figure2")
        assert vertex_span(g, "traditional")[0] == 1
        assert not is_chordal(g).chordal


def test_criterion_4_oracle_equivalence_exhaustive():
    with criterion(4, 300.0, "solver vs oracle, all connected graphs n<=6"):
        catalog = connected_atlas(6)
        assert len(catalog) == 143
        mismatches = []
        for g in catalog:
            for rule in ("traditional", "active", "lazy"):
                sv = vertex_span(g, rule)[0]
                se = edge_span(g, rule)[0]
                if sv != brute_force_span(g, rule, "vertex"):
                    mismatches.append((g.adj, rule, "vertex"))
                if se != brute_force_span(g, rule, "edge"):
                    mismatches.append((g.adj, rule, "edge"))
        assert not mismatches, mismatches[:5]


def test_criterion_5_inequality_fuzz():
    with criterion(5, 600.0, "span inequality chain on 500 random graphs n<=8"):
        bad = []
        for g in random_graphs(500, 2, 8, seed=1005):
            if found := violations(check_span_inequalities(g)):
                bad.append((to_graph6(g), found))
        assert not bad, bad[:5]


def has_induced_spider(t: Graph) -> bool:
    """A tree contains an induced 3-leg spider iff some vertex has three
    neighbours of degree at least 2."""
    return any(sum(1 for u in t.adj[x] if t.degree(u) >= 2) >= 3
               for x in range(t.n))


def test_criterion_6_interval_and_tree_theorems():
    with criterion(6, 300.0, "interval graphs span 1; tree characterization"):
        for i in range(200):
            g = random_interval_graph(2 + i % 9, seed=9000 + i)
            assert g.n <= 10
            assert vertex_span(g, "traditional")[0] == 1, (i, g.adj)
        trees = all_trees(9)
        assert len(trees) == 95
        for t in trees:
            span_one = vertex_span(t, "traditional")[0] == 1 if t.n > 1 else True
            assert span_one == (not has_induced_spider(t)), t.adj
            assert (not has_induced_spider(t)) == is_interval(t), t.adj


def test_criterion_7_augmentation_theorems():
    with criterion(7, 300.0, "augmentations at end-cliques and cut cliques"):
        rng = random.Random(77)
        done = 0
        seed = 0
        while done < 50:  # end-clique triples
            g = random_interval_graph(rng.randint(2, 8), seed=seed)
            seed += 1
            cliques = end_cliques(g)
            if not cliques:
                continue
            K = rng.choice(cliques)
            h = random_connected_graph(rng.randint(1, 4), seed=rng.randint(0, 10**6))
            assert vertex_span(augment(g, K, h), "traditional")[0] == 1, (
                g.adj, K, h.adj)
            done += 1
        done = 0
        seed = 0
        while done < 50:  # minimal-cut-set clique triples
            g = random_interval_graph(rng.randint(3, 8), seed=10**6 + seed)
            seed += 1
            cliques = [c.vertices for c in minimal_cut_sets(g).sets if c.is_clique]
            if not cliques:
                continue
            K = rng.choice(cliques)
            h = random_connected_graph(rng.randint(1, 4), seed=rng.randint(0, 10**6))
            assert vertex_span(augment(g, K, h), "traditional")[0] == 1, (
                g.adj, K, h.adj)
            done += 1

        # hypothesis necessity: the figure3 graph augments an interval graph
        # over a clique cut set that is NOT minimal, and its span is 2, not 1
        g3 = fixture("figure3")
        base = induced_subgraph(g3, [g3.index_of(l) for l in "1234567"])
        assert is_interval(base)
        S = tuple(base.index_of(l) for l in ("2", "4", "5"))
        assert all(base.has_edge(a, b) for a in S for b in S if a != b)
        rest = [v for v in range(base.n) if v not in S]
        from spanlab import is_connected
        assert not is_connected(induced_subgraph(base, rest))
        assert S not in [c.vertices for c in minimal_cut_sets(base).sets]
        rebuilt = augment(base, S, complete_graph(1))
        assert rebuilt.adj == g3.adj
        assert vertex_span(rebuilt, "traditional")[0] == 2


def test_criterion_8_minimum_moves():
    with criterion(8, 300.0, "min_steps vs naive enumeration, n<=5"):
        assert min_steps(complete_graph(2), "traditional").moves == 1
        assert min_steps(cycle_graph(4), "traditional").moves == 3
        for g in connected_atlas(5):
            for rule in ("traditional", "active", "lazy"):
                k = brute_force_span(g, rule, "vertex")
                result = min_steps(g, rule)
                assert result.span == k, (g.adj, rule)
                expected = naive_min_moves(g, rule, k)
                assert expected is not None
                assert result.moves == expected, (g.adj, rule, k)
                assert result.product_walk == least_covering_walk(g, rule, k, expected), (
                    g.adj, rule, k)
                v = validate_walk_pair(result.pair, g, k)
                assert v.valid


def test_criterion_9_span1_structure_fuzz():
    with criterion(9, 600.0, "span-1 structure checks on qualifying graphs n<=8"):
        applicable = 0
        bad = []
        for g in random_graphs(300, 4, 8, seed=909):
            if max(g.degree(v) for v in range(g.n)) >= g.n - 1:
                continue
            if vertex_span(g, "traditional")[0] != 1:
                continue
            applicable += 1
            if found := violations(check_span1_structure(g)):
                bad.append((to_graph6(g), found))
        assert not bad, bad[:5]
        assert applicable >= 25, f"only {applicable} qualifying graphs fuzzed"
