"""Cliques, chordality, asteroidal triples, interval certificates, cut sets,
lobes, and the augmentation construction."""

import random
import time

import pytest

import networkx as nx

from helpers import (caterpillar, clique_path_backtracking, connected_atlas, graph_to_nx,
                     least_clique_paths, naive_asteroidal_triple, naive_chordless_cycle,
                     naive_end_cliques, naive_minimal_cut_sets,
                     naive_minimal_separator_count, nx_to_graph, random_graphs, spine_tree)
from spanlab import (CapacityError, Graph, augment, complete_graph,
                     cycle_graph, end_cliques, find_asteroidal_triple, fixture,
                     induced_subgraph, interval_certificate, is_chordal,
                     is_connected, is_interval, maximal_cliques,
                     minimal_cut_sets, path_graph, random_connected_graph,
                     parse_graph6, random_interval_graph, s_lobes, star_graph,
                     subdivided_star, to_graph6)
from spanlab.graphs import members
from spanlab.structure import _clique_path


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


def realizes_adjacency(g: Graph, intervals) -> bool:
    """Whether the intervals have distinct endpoints and meet exactly on
    the edges of g."""
    ends = [e for iv in intervals for e in iv]
    return len(set(ends)) == len(ends) == 2 * g.n and all(
        (max(intervals[u][0], intervals[v][0]) <= min(intervals[u][1], intervals[v][1]))
        == g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n))


def test_interval_certificate_realizes_adjacency():
    rng = random.Random(47)
    graphs = [random_interval_graph(rng.randint(2, 10), seed=rng.randint(0, 10**6))
              for _ in range(20)]
    for g in graphs + interval_atlas():
        cert = interval_certificate(g)
        assert cert.is_interval
        assert realizes_adjacency(g, cert.intervals), to_graph6(g)


def test_interval_certificate_negative_witnesses():
    cert = interval_certificate(cycle_graph(5))
    assert not cert.is_interval
    assert cert.chordless_cycle is not None
    cert = interval_certificate(subdivided_star(3))
    assert not cert.is_interval
    assert cert.asteroidal_triple is not None


def test_interval_certificate_capacity():
    # the representation has no vertex cap: every step is polynomial
    g = path_graph(200)
    assert interval_certificate(g).is_interval
    assert is_interval(g)


def test_interval_certificate_of_a_long_clique_path():
    # 1,099 maximal cliques in one path: one head test for the start, then
    # a lone clique offered at each step, placed in a loop, not by recursion
    g = path_graph(1100)
    cert = interval_certificate(g)
    assert cert.is_interval
    ivs = cert.intervals
    for u in range(g.n):
        lu, ru = ivs[u]
        for v in range(u + 1, g.n):
            assert (max(lu, ivs[v][0]) <= min(ru, ivs[v][1])) == (v == u + 1), (u, v)


def leaf_caterpillar(k: int) -> Graph:
    """The caterpillar a'-a-h-b-b' with k leaves on h, the leaves first."""
    a_end, a, h, b, b_end = range(k, k + 5)
    return Graph(k + 5, [(leaf, h) for leaf in range(k)]
                 + [(a_end, a), (a, h), (h, b), (b, b_end)])


def test_clique_path_tests_only_contested_steps(monkeypatch):
    # the start gets one head test, with one growth per vertex outside its
    # clique; after it, a step tests its offered cliques in order but the
    # last, which must complete the path if none before it does
    import spanlab.structure
    heads, grow = spanlab.structure._heads, spanlab.structure.grow
    tests, growths = [], []

    def counting_heads(nbr, c, w):
        tests.append((c, members(w), heads(nbr, c, w)))
        return tests[-1][-1]

    def counting_grow(nbr, left, s):
        growths.append(s)
        return grow(nbr, left, s)

    monkeypatch.setattr(spanlab.structure, "_heads", counting_heads)
    monkeypatch.setattr(spanlab.structure, "grow", counting_grow)
    # P30: clique (0, 1) heads the path from vertex 0, growing once for each
    # of vertices 2-29, and every later step offers one clique
    assert interval_certificate(path_graph(30)).is_interval
    assert [c for c, _, _ in tests] == [(0, 1)] and growths == [0] * 28
    # the caterpillar with two leaves 0, 1 on h = 4 and the ends 2-3-4-5-6:
    # both leaf cliques fail on the whole graph, and after (2, 3) and (3, 4)
    # each pass on what is left; (4, 5) and (5, 6) are then offered alone
    tests.clear()
    cert = interval_certificate(leaf_caterpillar(2))
    assert cert.intervals == ((33, 40), (49, 56), (1, 8), (2, 24), (17, 72), (65, 88), (81, 89))
    everything = tuple(range(7))
    assert tests == [((0, 4), everything, False), ((1, 4), everything, False),
                     ((2, 3), everything, True), ((0, 4), (0, 1, 4, 5, 6), True),
                     ((1, 4), (1, 4, 5, 6), True)]
    # a star's leaf cliques: each step past the first tests its least
    # offered leaf clique, which passes, until one is left
    tests.clear()
    assert interval_certificate(star_graph(10)).is_interval
    assert [c for c, _, _ in tests] == [(0, leaf) for leaf in range(1, 10)]


def test_leaf_caterpillars_get_interval_certificates_quickly():
    # from a leaf's clique the backtracking search tried every subset of the
    # leaf cliques (3 * 2^18 entries at 18 leaves); each head test is polynomial
    for k in (18, 40):
        g = leaf_caterpillar(k)
        start = time.perf_counter()
        cert = interval_certificate(g)
        assert time.perf_counter() - start < 2
        assert realizes_adjacency(g, cert.intervals)


def test_clique_paths_are_the_least_orderings_on_the_atlas():
    for g in interval_atlas():
        cliques = maximal_cliques(g)
        assert [_clique_path(g, cliques, ci) for ci in range(len(cliques))] \
            == least_clique_paths(cliques), to_graph6(g)


def test_clique_paths_match_the_backtracking_search():
    rng = random.Random(36)
    for _ in range(200):
        g = random_interval_graph(rng.randint(8, 40), seed=rng.randrange(10**6))
        cliques = maximal_cliques(g)
        first = clique_path_backtracking(cliques)
        assert [_clique_path(g, cliques, ci) for ci in range(len(cliques))] \
            == [first(ci) for ci in range(len(cliques))], to_graph6(g)


def test_end_cliques_examples():
    assert end_cliques(path_graph(3)) == [(0, 1), (1, 2)]
    assert end_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert end_cliques(star_graph(3)) == [(0, 1), (0, 2), (0, 3)]


def test_end_cliques_match_every_ordering_on_the_atlas():
    graphs = interval_atlas()
    assert len(graphs) == 505
    for g in graphs:
        assert end_cliques(g) == naive_end_cliques(g), to_graph6(g)


def test_end_cliques_have_no_vertex_cap():
    # no vertex cap and no work budget: a long path, a 200-leaf star and the
    # caterpillar whose backtracking search from a leaf ran away all answer
    assert end_cliques(path_graph(1100)) == [(0, 1), (1098, 1099)]
    start = time.perf_counter()
    assert end_cliques(star_graph(200)) == [(0, leaf) for leaf in range(1, 201)]
    assert end_cliques(leaf_caterpillar(18)) == [(18, 19), (21, 22)]
    assert time.perf_counter() - start < 2


def test_interval_structure_of_empty_single_and_disconnected_graphs():
    cert = interval_certificate(Graph(0))
    assert cert.is_interval and cert.intervals == ()
    assert end_cliques(Graph(0)) == []
    assert interval_certificate(Graph(1)).intervals == ((1, 2),)
    assert end_cliques(Graph(1)) == [(0,)]
    g = Graph(3, [(0, 1)])
    assert interval_certificate(g).intervals == ((1, 4), (2, 5), (9, 12))
    assert end_cliques(g) == [(0, 1), (2,)]


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
    # every minimal cut set, of any size (the atlas up to 7 vertices is
    # test_minimal_cut_sets_of_every_size)
    graphs = (random_graphs(60, 3, 12, seed=59)
              + [random_interval_graph(n, seed=n) for n in range(4, 13)])
    for g in graphs:
        assert minimal_cut_sets(g).sets == naive_minimal_cut_sets(g, g.n - 2), g.adj


def test_minimal_cut_sets_rejects_disconnected():
    with pytest.raises(ValueError):
        minimal_cut_sets(Graph(3, [(0, 1)]))


def grid_graph(rows: int, cols: int) -> Graph:
    n = rows * cols
    return Graph(n, [(v, v + 1) for v in range(n) if (v + 1) % cols]
                 + [(v, v + cols) for v in range(n - cols)])


def theta_graph(paths: int) -> Graph:
    """Two poles, 0 and 1, joined by ``paths`` paths of 3 inner vertices;
    among its minimal separators are the 3^paths sets of one inner vertex
    per path."""
    return Graph(2 + 3 * paths, [(u, v) for p in range(paths)
                                 for u, v in ((0, 2 + 3 * p), (2 + 3 * p, 3 + 3 * p),
                                              (3 + 3 * p, 4 + 3 * p), (4 + 3 * p, 1))])


def test_minimal_cut_sets_match_the_definition_beyond_twelve_vertices():
    # the separator closure on larger graphs: long cycles (every cut has
    # size 2), grids (cuts of size 3 and 4 next to larger separators), trees,
    # theta graphs (269 and 760 cuts, of which 26 and 31 have size <= 4) and
    # random graphs; the reference lists the cuts of size <= 4, the
    # catalogue's prefix in its (size, vertices) order
    graphs = ([cycle_graph(n) for n in range(8, 21)]
              + [grid_graph(rows, cols) for rows in (3, 4) for cols in range(3, 6)]
              + [grid_graph(3, 6), caterpillar(8), spine_tree(10, 3, 2)]
              + [theta_graph(5), theta_graph(6)]
              + random_graphs(8, 13, 20, seed=61))
    for g in graphs:
        expected = naive_minimal_cut_sets(g, 4)
        cuts = minimal_cut_sets(g).sets
        assert cuts[:len(expected)] == expected, g.adj
        assert all(len(c.vertices) > 4 for c in cuts[len(expected):]), g.adj


def test_minimal_cut_sets_of_every_size():
    # no size cap: the closure visits separators of every size, and the
    # catalogue keeps every one whose components are all full
    for g in connected_atlas(7):
        assert minimal_cut_sets(g).sets == naive_minimal_cut_sets(g, g.n - 2), g.adj


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
    with pytest.raises(CapacityError) as exc:
        minimal_cut_sets(path_graph(8))
    assert (exc.value.budget, exc.value.spent) == ("SEPARATOR_BUDGET", 6)
    for command in ("analyze", "verify"):
        assert main([command, "--family", "path:8"]) == 3
        assert capsys.readouterr().err == f"spanlab: capacity: {exc.value}\n"
    # C8 has 20 minimal separators, its non-adjacent pairs, and each is a
    # cut: at a budget of 20 the call lists them all, at 19 it stops
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 20)
    cuts = minimal_cut_sets(cycle_graph(8)).sets
    assert [c.vertices for c in cuts] == [(a, b) for a in range(8) for b in range(a + 2, 8)
                                          if (a, b) != (0, 7)]
    monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", 19)
    with pytest.raises(CapacityError) as exc:
        minimal_cut_sets(cycle_graph(8))
    assert (exc.value.budget, exc.value.spent) == ("SEPARATOR_BUDGET", 20)


def test_closure_visits_exactly_the_minimal_separators(monkeypatch):
    # the budget counts distinct separators, so a call passes at a budget of
    # the definitional count and stops one past the budget below it (each
    # call gets a fresh graph object, which keeps no catalogue); the random
    # graphs come twice, the second time relabelled at random, so that the
    # block the closure expands (the one with the least vertex) is not tied
    # to vertex 0, and the theta graphs have 20, 43 and 102 separators
    import spanlab.structure
    rng = random.Random(67)
    randoms = random_graphs(40, 3, 12, seed=67)
    relabelled = []
    for g in randoms:
        perm = rng.sample(range(g.n), g.n)
        relabelled.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    graphs = (connected_atlas(7) + randoms + relabelled
              + [theta_graph(paths) for paths in (2, 3, 4)])
    for g in graphs:
        count = naive_minimal_separator_count(g)
        monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", count)
        minimal_cut_sets(Graph(g.n, g.edges()))
        if count:
            monkeypatch.setattr(spanlab.structure, "SEPARATOR_BUDGET", count - 1)
            with pytest.raises(CapacityError) as exc:
                minimal_cut_sets(Graph(g.n, g.edges()))
            assert (exc.value.budget, exc.value.spent) == ("SEPARATOR_BUDGET", count)


# the structure benchmark's 28-vertex random graph at seed 0
RANDOM_28 = "[G@A?oC_O?gO???@BO????_?C@E????g??I?`@SH??G?G?SAOA?G??a?_C?QCPCQ"


def test_closure_floods_blocks(monkeypatch):
    # one flood per vertex, one of g - S - C per separator S found as C, and
    # one per distinct mask B - N(x), B the full component of S with the
    # least vertex: 638 and 3,284 floods (883 and 5,004, with 1,065 and
    # 10,540 pieces, when every full component was flooded), against 1,175
    # and 4,575 whole-graph floods (2,680 and 20,629 components) with one
    # flood of g - (S + N(x)) per pair (S, x)
    import spanlab.structure
    floods, pieces = [], []

    def counting_flood(nbr, left):
        out = flood(nbr, left)
        floods.append(left)
        pieces.extend(out)
        return out

    flood = spanlab.structure.flood
    monkeypatch.setattr(spanlab.structure, "flood", counting_flood)
    for g, cuts, calls, comps in ((grid_graph(4, 5), 233, 638, 751),
                                  (parse_graph6(RANDOM_28), 81, 3284, 6719)):
        floods.clear()
        pieces.clear()
        assert len(minimal_cut_sets(g).sets) == cuts
        assert (len(floods), len(pieces)) == (calls, comps)
        # the catalogue is kept on the graph: a second call floods nothing
        minimal_cut_sets(g)
        assert len(floods) == calls


def test_theta_graph_exits_3_at_the_separator_budget(tmp_path, capsys):
    # two poles joined by ten paths of 3 inner vertices: n = 32, one cut of
    # size <= 4 (the poles) but 3^10 minimal separators, one inner vertex per
    # path, which the closure must visit; verify needs no cut sets here
    from spanlab.cli import main
    path = tmp_path / "theta.g6"
    path.write_text(to_graph6(theta_graph(10)) + "\n")
    assert main(["analyze", "--file", str(path)]) == 3
    stop = CapacityError("SEPARATOR_BUDGET", 20_000, 20_001)
    assert capsys.readouterr().err == f"spanlab: capacity: {stop}\n"
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
