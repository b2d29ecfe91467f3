"""Cliques, chordality, asteroidal triples, interval certificates, cut sets,
lobes, and the augmentation construction."""

import random
import time

import pytest

import networkx as nx

from helpers import (caterpillar, connected_atlas, graph_to_nx, naive_asteroidal_triple,
                     naive_chordless_cycle, naive_end_cliques, naive_minimal_cut_sets,
                     nx_to_graph, random_graphs, spine_tree)
from spanlab import (CapacityError, Graph, augment, complete_graph,
                     cycle_graph, end_cliques, find_asteroidal_triple, fixture,
                     induced_subgraph, interval_certificate, is_chordal,
                     is_connected, is_interval, maximal_cliques,
                     minimal_cut_sets, path_graph, random_connected_graph,
                     random_interval_graph, s_lobes, star_graph, subdivided_star,
                     to_graph6)


def brute_maximal_cliques(g: Graph) -> set[tuple[int, ...]]:
    from itertools import combinations
    cliques = set()
    for r in range(1, g.n + 1):
        for vs in combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
                cliques.add(vs)
    return {c for c in cliques
            if not any(c != d and set(c) <= set(d) for d in cliques)}


def test_maximal_cliques_against_subset_enumeration():
    for g in random_graphs(12, 2, 7, seed=41):
        assert set(maximal_cliques(g)) == brute_maximal_cliques(g)


def is_peo(g: Graph, order) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if any(not g.has_edge(a, b)
               for i, a in enumerate(later) for b in later[i + 1:]):
            return False
    return True


def test_chordal_recognition():
    assert is_chordal(path_graph(5)).chordal
    assert is_chordal(complete_graph(5)).chordal
    assert is_chordal(star_graph(4)).chordal
    assert not is_chordal(cycle_graph(4)).chordal
    assert not is_chordal(cycle_graph(5)).chordal
    assert not is_chordal(fixture("figure2")).chordal


def test_chordal_witnesses_revalidate():
    for g in random_graphs(25, 3, 8, seed=43) + connected_atlas(7):
        res = is_chordal(g)
        assert res.chordal == nx.is_chordal(graph_to_nx(g)), g.adj
        if res.chordal:
            assert is_peo(g, res.elimination_order)
        else:
            cyc = res.chordless_cycle
            assert len(cyc) >= 4
            L = len(cyc)
            for i in range(L):
                for j in range(i + 1, L):
                    adjacent = g.has_edge(cyc[i], cyc[j])
                    consecutive = j - i == 1 or (i == 0 and j == L - 1)
                    assert adjacent == consecutive, (cyc, i, j)


def test_chordless_cycle_matches_the_pairwise_search():
    rng = random.Random(71)
    sparse = [random_connected_graph(rng.randint(5, 16), rng.choice((0.15, 0.25)), seed)
              for seed in range(150)]
    # a chordal graph with a C4 hung off its last vertex, and a disconnected one
    band = random_interval_graph(30, 1)
    hung = Graph(33, band.edges() + [(29, 30), (30, 31), (31, 32), (32, 29)])
    graphs = (connected_atlas(7) + random_graphs(200, 4, 14, seed=73) + sparse
              + [hung, Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])])
    tried = 0
    for g in graphs:
        res = is_chordal(g)
        if not res.chordal:
            assert res.chordless_cycle == naive_chordless_cycle(g), g.adj
            tried += 1
    assert tried > 300


def independent_avoidance_check(g: Graph, triple) -> bool:
    """Re-verify an asteroidal triple: pairwise non-adjacent and each pair
    connected in the graph minus the third vertex's closed neighbourhood."""
    x, y, z = triple
    if g.has_edge(x, y) or g.has_edge(y, z) or g.has_edge(x, z):
        return False
    for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
        banned = set(g.adj[c]) | {c}
        if a in banned or b in banned:
            return False
        keep = [v for v in range(g.n) if v not in banned]
        sub = induced_subgraph(g, keep)
        ka, kb = keep.index(a), keep.index(b)
        seen = {ka}
        stack = [ka]
        while stack:
            u = stack.pop()
            for w in sub.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if kb not in seen:
            return False
    return True


def test_asteroidal_triples():
    assert find_asteroidal_triple(path_graph(6)) is None
    assert find_asteroidal_triple(complete_graph(4)) is None
    s13 = subdivided_star(3)
    triple = find_asteroidal_triple(s13)
    assert triple == (2, 4, 6)  # the three leaves
    assert independent_avoidance_check(s13, triple)
    c6 = cycle_graph(6)
    assert independent_avoidance_check(c6, find_asteroidal_triple(c6))


def test_asteroidal_triple_is_the_least_by_the_definition():
    graphs = (connected_atlas(7) + random_graphs(200, 3, 12, seed=67)
              + [path_graph(k) for k in range(1, 9)]
              + [subdivided_star(k) for k in range(9)])
    for g in graphs:
        assert find_asteroidal_triple(g) == naive_asteroidal_triple(g), g.adj


def test_interval_recognition():
    assert is_interval(path_graph(7))
    assert is_interval(complete_graph(5))
    assert is_interval(star_graph(5))
    assert not is_interval(cycle_graph(4))      # chordless cycle
    assert not is_interval(subdivided_star(3))  # asteroidal triple
    assert not is_interval(fixture("figure2"))


def interval_atlas() -> list[Graph]:
    """Every interval graph with 1 <= n <= 7, disconnected ones included."""
    graphs = (nx_to_graph(gx) for gx in nx.graph_atlas_g() if 1 <= gx.number_of_nodes() <= 7)
    return [g for g in graphs if is_interval(g)]


def test_interval_certificate_realizes_adjacency():
    rng = random.Random(47)
    graphs = [random_interval_graph(rng.randint(2, 10), seed=rng.randint(0, 10**6))
              for _ in range(20)]
    for g in graphs + interval_atlas():
        cert = interval_certificate(g)
        assert cert.is_interval
        ends = [e for iv in cert.intervals for e in iv]
        assert len(set(ends)) == len(ends)  # all endpoints distinct
        for u in range(g.n):
            for v in range(u + 1, g.n):
                lu, ru = cert.intervals[u]
                lv, rv = cert.intervals[v]
                overlap = max(lu, lv) <= min(ru, rv)
                assert overlap == g.has_edge(u, v), (u, v)


def test_interval_certificate_negative_witnesses():
    cert = interval_certificate(cycle_graph(5))
    assert not cert.is_interval
    assert cert.chordless_cycle is not None
    cert = interval_certificate(subdivided_star(3))
    assert not cert.is_interval
    assert cert.asteroidal_triple is not None


def test_interval_certificate_capacity():
    g = path_graph(15)
    with pytest.raises(CapacityError) as exc:
        interval_certificate(g)
    assert "is_interval=True" in str(exc.value)
    # recognition itself has no cap
    assert is_interval(g)


def test_interval_certificate_of_a_long_clique_path():
    # 1,099 maximal cliques in one path: the clique-path search holds one
    # stack entry per clique placed, not one Python frame
    g = path_graph(1100)
    cert = interval_certificate(g, cap=1100)
    assert cert.is_interval
    ivs = cert.intervals
    for u in range(g.n):
        lu, ru = ivs[u]
        for v in range(u + 1, g.n):
            assert (max(lu, ivs[v][0]) <= min(ru, ivs[v][1])) == (v == u + 1), (u, v)


def test_clique_path_budget_counts_the_cliques_scanned(monkeypatch):
    # P30 has 29 cliques, and the path from clique 0 answers: placing
    # clique i scans the 28 - i unplaced ones, until the last completes the
    # path, so 28 + 27 + ... + 1 = 406 in all
    import spanlab.structure
    monkeypatch.setattr(spanlab.structure, "CLIQUE_PATH_BUDGET", 406)
    assert interval_certificate(path_graph(30), cap=30).is_interval
    monkeypatch.setattr(spanlab.structure, "CLIQUE_PATH_BUDGET", 405)
    with pytest.raises(CapacityError, match="scanned 406 cliques"):
        interval_certificate(path_graph(30), cap=30)


def test_clique_path_search_stops_at_its_budget():
    # the caterpillar a'-a-h-b-b' with 18 leaves on h, the leaves first: no
    # clique path starts at a leaf's clique, and the search from there tries
    # every subset of the leaf cliques (3 * 2^18 entries) unless stopped
    k = 18
    a_end, a, h, b, b_end = range(k, k + 5)
    g = Graph(k + 5, [(leaf, h) for leaf in range(k)]
              + [(a_end, a), (a, h), (h, b), (b, b_end)])
    assert is_interval(g)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="clique-path search"):
        interval_certificate(g, cap=100)
    assert time.perf_counter() - start < 2


def test_end_cliques_examples():
    assert end_cliques(path_graph(3)) == [(0, 1), (1, 2)]
    assert end_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert end_cliques(star_graph(3)) == [(0, 1), (0, 2), (0, 3)]


def test_end_cliques_match_every_ordering_on_the_atlas():
    graphs = interval_atlas()
    assert len(graphs) == 505
    for g in graphs:
        assert end_cliques(g) == naive_end_cliques(g), to_graph6(g)


def test_end_cliques_at_the_interval_cap():
    # a path on INTERVAL_CAP vertices still answers; one more is refused
    assert end_cliques(path_graph(12)) == [(0, 1), (10, 11)]
    with pytest.raises(CapacityError) as exc:
        end_cliques(path_graph(13))
    assert "n <= 12, got n=13" in str(exc.value)


def test_end_cliques_require_interval_graph():
    with pytest.raises(ValueError):
        end_cliques(cycle_graph(4))


def test_minimal_cut_sets_of_cycle():
    cat = minimal_cut_sets(cycle_graph(4))
    assert [(c.vertices, c.is_clique) for c in cat.sets] == [
        ((0, 2), False), ((1, 3), False)]
    assert cat.sets[0].components == ((1,), (3,))


def test_minimal_cut_sets_of_path():
    cat = minimal_cut_sets(path_graph(4))
    assert [c.vertices for c in cat.sets] == [(1,), (2,)]
    assert all(c.is_clique for c in cat.sets)


def test_complete_graph_has_no_cut_sets():
    assert minimal_cut_sets(complete_graph(5)).sets == ()


def test_minimal_cut_sets_are_minimal_and_cut():
    for g in random_graphs(12, 3, 7, seed=53):
        for cut in minimal_cut_sets(g).sets:
            rest = [v for v in range(g.n) if v not in cut.vertices]
            assert not is_connected(induced_subgraph(g, rest))
            for drop in cut.vertices:
                keep = [v for v in range(g.n)
                        if v not in cut.vertices or v == drop]
                assert is_connected(induced_subgraph(g, keep)) or len(keep) == 0


def test_minimal_cut_sets_match_the_definition():
    graphs = (connected_atlas(7) + random_graphs(60, 3, 12, seed=59)
              + [random_interval_graph(n, seed=n) for n in range(4, 13)])
    for g in graphs:
        assert minimal_cut_sets(g).sets == naive_minimal_cut_sets(g, 4), g.adj


def test_minimal_cut_sets_rejects_disconnected():
    with pytest.raises(ValueError):
        minimal_cut_sets(Graph(3, [(0, 1)]))


def grid_graph(rows: int, cols: int) -> Graph:
    n = rows * cols
    return Graph(n, [(v, v + 1) for v in range(n) if (v + 1) % cols]
                 + [(v, v + cols) for v in range(n - cols)])


def test_minimal_cut_sets_match_the_definition_beyond_twelve_vertices():
    # the separator closure on larger graphs: long cycles (every cut has
    # size 2), grids (cuts of size 3 and 4 next to larger separators), trees
    # and random graphs
    graphs = ([cycle_graph(n) for n in range(8, 21)]
              + [grid_graph(rows, cols) for rows in (3, 4) for cols in range(3, 6)]
              + [grid_graph(3, 6), caterpillar(8), spine_tree(10, 3, 2)]
              + random_graphs(8, 13, 20, seed=61))
    for g in graphs:
        assert minimal_cut_sets(g).sets == naive_minimal_cut_sets(g, 4), g.adj


def test_minimal_cut_sets_size_filter():
    # caps below 4 and up to n - 2: the closure visits separators of every
    # size, and the filter keeps those within the cap
    for g in connected_atlas(7):
        every = naive_minimal_cut_sets(g, g.n - 2)
        for cap in {1, 2, 3, max(g.n - 2, 1)}:
            cat = minimal_cut_sets(g, cap)
            assert cat.sets == tuple(c for c in every if len(c.vertices) <= cap), (g.adj, cap)
            assert cat.size_cap == max(min(cap, g.n - 2), 0)


def test_minimal_cut_sets_separator_budget(monkeypatch, capsys):
    import spanlab.structure
    from spanlab.cli import main
    # the n = 30 caterpillar run in CI has two minimal separators, its hubs
    assert spanlab.structure.SEPARATOR_BUDGET >= 2
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 2)
    assert [c.vertices for c in minimal_cut_sets(caterpillar(14)).sets] == [(0,), (1,)]
    # P8 has 6 minimal separators, its inner vertices: at a budget of 6 the
    # call passes, at 5 it stops at the sixth
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 6)
    assert len(minimal_cut_sets(path_graph(8)).sets) == 6
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 5)
    with pytest.raises(CapacityError, match="generated 6 minimal separators"):
        minimal_cut_sets(path_graph(8))
    for command in ("analyze", "verify"):
        assert main([command, "--family", "path:8"]) == 3
        assert "generated 6 minimal separators" in capsys.readouterr().err
    # the budget counts separators of every size, not only cuts within the
    # cap: C8 has 20 (its non-adjacent pairs) and no cut of size 1
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 20)
    assert minimal_cut_sets(cycle_graph(8), cap=1).sets == ()
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 19)
    with pytest.raises(CapacityError, match="generated 20 minimal separators"):
        minimal_cut_sets(cycle_graph(8), cap=1)


def test_theta_graph_exits_3_at_the_separator_budget(tmp_path, capsys):
    # two poles joined by ten paths of 3 inner vertices: n = 32, one cut of
    # size <= 4 (the poles) but 3^10 minimal separators, one inner vertex per
    # path, which the closure must visit; verify needs no cut sets here
    from spanlab.cli import main
    edges = [(u, v) for p in range(10)
             for u, v in ((0, 2 + 3 * p), (2 + 3 * p, 3 + 3 * p),
                          (3 + 3 * p, 4 + 3 * p), (4 + 3 * p, 1))]
    path = tmp_path / "theta.g6"
    path.write_text(to_graph6(Graph(32, edges)) + "\n")
    assert main(["analyze", "--file", str(path)]) == 3
    assert "over the budget of 20000" in capsys.readouterr().err
    assert main(["verify", "--file", str(path)]) == 0


def test_s_lobes_on_figure3_base():
    g3 = fixture("figure3")
    base = induced_subgraph(g3, [g3.index_of(l) for l in "1234567"])
    S = [base.index_of(l) for l in ("2", "4", "5")]
    lobes = s_lobes(base, S)
    assert [sorted(l.labels) for l in lobes] == [
        ["1", "2", "4", "5"], ["2", "3", "4", "5", "6", "7"]]
    for lobe in lobes:
        assert is_connected(lobe)


def test_s_lobes_of_non_cut_set():
    g = complete_graph(4)
    lobes = s_lobes(g, [0])
    assert len(lobes) == 1
    assert lobes[0].adj == g.adj


def test_augment_structure():
    base = path_graph(3)
    out = augment(base, [1], Graph(2, [(0, 1)], labels=["x", "y"]))
    assert out.n == 5
    assert out.labels == ("0", "1", "2", "x", "y")
    assert out.has_edge(1, 3) and out.has_edge(1, 4)  # cross edges
    assert out.has_edge(3, 4)                         # h's own edge
    assert not out.has_edge(0, 3) and not out.has_edge(2, 4)


def test_augment_relabels_collisions():
    out = augment(path_graph(2), [0], path_graph(2))
    assert len(set(out.labels)) == 4
    assert out.labels[:2] == ("0", "1")


def test_augment_rejects_empty_addition():
    with pytest.raises(ValueError):
        augment(path_graph(2), [0], Graph(0))


def test_figure3_is_an_augmentation():
    g3 = fixture("figure3")
    base = induced_subgraph(g3, [g3.index_of(l) for l in "1234567"])
    assert is_interval(base)
    S = [base.index_of(l) for l in ("2", "4", "5")]
    rebuilt = augment(base, S, complete_graph(1))
    assert rebuilt.adj == g3.adj
