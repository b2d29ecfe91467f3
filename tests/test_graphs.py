"""Graph construction, graph6 and edge-list parsing, metrics, surgery,
seeded random generators."""

import math
import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_trees, connected_atlas, floyd_warshall, graph_to_nx,
                     nx_to_graph)
import spanlab.families
from spanlab import (INFINITY, CapacityError, Graph, GraphParseError, augment,
                     components, cycle_graph, fresh_labels, girth,
                     induced_subgraph, is_connected, metrics,
                     parse_edgelist, parse_graph6, path_graph,
                     random_connected_graph, random_interval_graph, to_graph6)
from spanlab.graphs import ball_distance, distance_balls, distance_matrix, distance_rings, far_rows


def test_basic_construction():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.labels == ("0", "1", "2")
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2


def test_duplicate_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(-1)


def test_labels_must_be_distinct_and_match_n():
    with pytest.raises(ValueError):
        Graph(2, [], labels=["a", "a"])
    with pytest.raises(ValueError):
        Graph(2, [], labels=["a"])
    g = Graph(2, [(0, 1)], labels=["L", "R"])
    assert g.index_of("R") == 1
    with pytest.raises(ValueError):
        g.index_of("nope")


def test_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4
    assert g.m == 6
    assert to_graph6(g) == "C~"


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<C~").adj == parse_graph6("C~").adj


def test_graph6_bad_character_reports_offset():
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("C" + chr(30))
    assert exc.value.offset == 1


def test_graph6_truncated():
    with pytest.raises(GraphParseError):
        parse_graph6("D")  # n=5 needs 10 bits of adjacency data


def test_graph6_malformed_inputs():
    for text, message, offset in (
            ("", "empty graph6 input (line 1)", None),
            (">>graph6<<", "empty graph6 input (line 1)", None),
            ("A_\nA_", "graph6 input must be a single line (line 2)", None),
            ("A\x7f", "invalid graph6 character '\\x7f' (line 1, offset 1)", 1),
            ("~", "truncated graph6 size field (line 1, offset 0)", 0),
            ("~~?????", "truncated graph6 size field (line 1, offset 0)", 0)):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6(text)
        assert str(exc.value) == message, text
        assert exc.value.offset == offset, text


def test_graph6_round_trip_against_networkx():
    # random graphs with up to 300 vertices (n >= 63 takes the 4-byte size
    # form), the empty and complete graphs on either side of that change,
    # and the connected atlas
    rng = random.Random(7)
    graphs = [nx.gnp_random_graph(rng.randint(1, 12), 0.4, seed=rng.randint(0, 10**6))
              for _ in range(25)]
    graphs += [make(n) for n in (0, 62, 63, 64) for make in (nx.empty_graph, nx.complete_graph)]
    graphs += [nx.gnp_random_graph(n, (0.03, 0.1, 0.4)[n % 3], seed=n)
               for n in [*range(13, 80), 120, 200, 258, 299, 300]]
    graphs += [graph_to_nx(g) for g in connected_atlas(7)]
    for gx in graphs:
        ours = nx_to_graph(gx)
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert to_graph6(ours) == theirs, gx
        assert parse_graph6(theirs).adj == ours.adj, gx


def test_graph6_large_n_size_form():
    # n = 70 exercises the 4-byte size encoding
    g = Graph(70, [(i, i + 1) for i in range(69)])
    assert parse_graph6(to_graph6(g)).adj == g.adj


def test_graph6_padding_must_be_zero():
    # n = 3: three edge bits, then three padding bits
    assert parse_graph6("B" + chr(63 + 0b101000)).edges() == [(0, 1), (1, 2)]
    for bit in (0b100, 0b010, 0b001):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6("B" + chr(63 + (0b101000 | bit)))
        assert "padding" in str(exc.value) and exc.value.offset == 1


def test_edgelist_parsing():
    g = parse_edgelist("0 1\n1 2\n\n2 3\n")
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse_edgelist("0 1\n2\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        parse_edgelist("0 x")
    with pytest.raises(GraphParseError):
        parse_edgelist("-1 2")
    with pytest.raises(GraphParseError):
        parse_edgelist("3 3")
    with pytest.raises(GraphParseError) as exc:
        parse_edgelist("0 1\n1 0\n")
    assert exc.value.line == 2
    # every vertex lies on an edge: an index gap names the least vertex on
    # none, and builds no graph of the largest index's size
    for text, gap in (("0 2\n", 1), ("1 2\n", 0), ("0 1\n3 4\n0 100000000\n", 2)):
        with pytest.raises(GraphParseError, match=f"^vertex {gap} lies on no edge$"):
            parse_edgelist(text)


def _rings_by_definition(dist, n):
    """rings[s][d]: the v at distance d from s, from a distance table."""
    top = max((d for row in dist for d in row if d != INFINITY), default=0)
    rings = [[0] * (top + 1) for _ in range(n)]
    for s in range(n):
        for v in range(n):
            if dist[s][v] != INFINITY:
                rings[s][dist[s][v]] |= 1 << v
    return rings


def _assert_eccentricities(g, dist):
    """metrics' eccentricities, radius and diameter of g, read off the
    balls, against those of a distance table."""
    met = metrics(g)
    ecc = tuple(max(row) for row in dist)
    assert met.ecc == ecc, g.adj
    assert (met.radius, met.diameter) == (min(ecc, default=0), max(ecc, default=0))
    assert distance_matrix(g) == distance_matrix(g)


def test_distance_matrix_against_floyd_warshall():
    # every connected graph n <= 7, random graphs (often disconnected),
    # and n = 0, 1
    rng = random.Random(11)
    graphs = (connected_atlas(7)
              + [Graph(0), Graph(1), Graph(3), Graph(5, [(0, 1), (2, 3)]),
                 Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])])
    for count, top, p in ((20, 9, 0.45), (60, 12, 0.15)):
        for _ in range(count):
            n = rng.randint(2, top)
            graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p]))
    for g in graphs:
        ref = floyd_warshall(g)
        assert [list(row) for row in distance_matrix(g)] == ref, g.adj
        assert list(distance_rings(g)) == _rings_by_definition(ref, g.n), g.adj
        _assert_eccentricities(g, ref)
    assert distance_balls(Graph(0)) == ((),)
    assert distance_matrix(Graph(0)) == ()
    assert distance_balls(Graph(1)) == ((1,),)
    assert distance_matrix(Graph(1)) == ((0,),)
    assert distance_balls(Graph(5, [(0, 1), (2, 3)])) == (
        (1, 2, 4, 8, 16), (3, 3, 12, 12, 16))


def test_distance_kernel_on_long_paths_and_cycles():
    for n in list(range(1, 21)) + [63, 64, 150, 299, 300]:
        cases = [(path_graph(n), lambda i, j: abs(i - j))]
        if n >= 3:
            cases.append((cycle_graph(n), lambda i, j: min(abs(i - j), n - abs(i - j))))
        for g, dist in cases:
            ref = [[dist(i, j) for j in range(n)] for i in range(n)]
            assert [list(row) for row in distance_matrix(g)] == ref, g
            assert list(distance_rings(g)) == _rings_by_definition(ref, n), g
            _assert_eccentricities(g, ref)


def test_far_rows_and_ball_distance_against_distance_matrix():
    # far_rows at every level, including the clamp past the last ball level,
    # and ball_distance to every target set that meets u's component, against
    # distance_matrix (itself checked against Floyd-Warshall above)
    disconnected = [Graph(3), Graph(5, [(0, 1), (2, 3)]),
                    Graph(6, [(0, 1), (1, 2), (3, 4)]),
                    Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])]
    for g in connected_atlas(7) + disconnected:
        n, balls, dist = g.n, distance_balls(g), distance_matrix(g)
        for k in range(len(balls) + 2):
            want = [sum(1 << v for v in range(n) if dist[u][v] >= k) for u in range(n)]
            assert far_rows(balls, k) == want, (g.adj, k)
        if n > 6:
            continue
        for u in range(n):
            for targets in range(1, 1 << n):
                near = [dist[u][v] for v in range(n) if targets >> v & 1]
                if min(near) != INFINITY:
                    assert ball_distance(balls, u, targets) == min(near), (g.adj, u, targets)


def test_metrics_path4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    met = metrics(g)
    assert met.radius == 2
    assert met.diameter == 3
    assert girth(g) == INFINITY


def test_metrics_petersen():
    g = nx_to_graph(nx.petersen_graph())
    met = metrics(g)
    assert met.radius == 2
    assert met.diameter == 2
    assert girth(g) == 5


def test_girth_matches_networkx():
    # odd and even shortest cycles of every length up to 30, and forests
    rng = random.Random(3)
    graphs = ([nx.gnp_random_graph(rng.randint(3, 9), 0.4, seed=rng.randint(0, 10**6))
               for _ in range(20)]
              + [nx.cycle_graph(n) for n in range(3, 31)] + [nx.petersen_graph()]
              + [nx.grid_2d_graph(3, k) for k in range(1, 7)]
              + [graph_to_nx(t) for t in all_trees(8)])
    for gx in graphs:
        g = nx_to_graph(gx)
        expected = nx.girth(gx)
        ours = girth(g)
        if expected == math.inf:
            assert ours == INFINITY
        else:
            assert ours == expected


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)
    assert is_connected(Graph(0)) and is_connected(Graph(1))


def test_is_connected_grows_only_the_first_component():
    # a 20,000-vertex perfect matching: one growth from vertex 0 answers,
    # not a flood of all 10,000 components with their neighbourhoods
    g = Graph(20_000, [(2 * i, 2 * i + 1) for i in range(10_000)])
    tracemalloc.start()
    try:
        assert not is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert is_connected(path_graph(2_000))


def _first_connected(draw, seed):
    """Independent resampler: the first connected draw and its index."""
    rng = random.Random(seed)
    for i in range(1, 10**6):
        gx = nx.Graph()
        n, edges = draw(rng)
        gx.add_nodes_from(range(n))
        gx.add_edges_from(edges)
        if nx.is_connected(gx):
            return sorted(gx.edges()), i
    raise AssertionError("no connected draw")


def _gnp(n, p):
    return lambda rng: (n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _intervals(n):
    def draw(rng):
        points = rng.sample(range(8 * n), 2 * n)
        ivs = [sorted(points[2 * i:2 * i + 2]) for i in range(n)]
        return n, [(a, b) for a, b in combinations(range(n), 2)
                   if ivs[a][0] <= ivs[b][1] and ivs[b][0] <= ivs[a][1]]
    return draw


def test_random_generators_fail_fast_and_keep_their_samples(monkeypatch):
    cases = ([(lambda s: random_connected_graph(12, 0.15, s), _gnp(12, 0.15), s)
              for s in range(12)]
             + [(lambda s: random_interval_graph(4, s), _intervals(4), s)
                for s in range(12)])
    found = [_first_connected(draw, seed) for _, draw, seed in cases]
    for (make, _, seed), (edges, _) in zip(cases, found):
        assert make(seed).edges() == edges
    # each generator has seeds that need one draw and seeds that need more
    for half in (found[:12], found[12:]):
        assert {draws > 1 for _, draws in half} == {False, True}
    # a budget that allows only one draw keeps first-draw samples and
    # raises CapacityError on the rest
    monkeypatch.setattr(spanlab.families, "SAMPLE_BUDGET", 0)
    for (make, _, seed), (edges, draws) in zip(cases, found):
        if draws == 1:
            assert make(seed).edges() == edges
        else:
            with pytest.raises(CapacityError):
                make(seed)


def test_join_forms_all_cross_edges():
    # the join of g and h is h attached to every vertex of g
    a = Graph(2, [(0, 1)], labels=["a", "b"])
    g = augment(a, range(a.n), Graph(1, [], labels=["c"]))
    assert g.n == 3
    assert g.m == 3
    assert g.labels == ("a", "b", "c")


def test_join_renames_colliding_labels():
    g = augment(Graph(1, labels=["0"]), [0], Graph(2, [(0, 1)]))
    assert len(set(g.labels)) == 3
    assert g.labels[0] == "0"


def test_fresh_labels():
    assert fresh_labels(["0", "2"], ["1", "2"]) == ["1", "3"]
    assert fresh_labels([], ["x", "y"]) == ["x", "y"]


def test_induced_subgraph_of_cycle_is_path():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    p = induced_subgraph(c5, [0, 1, 2, 3])
    assert p.edges() == [(0, 1), (1, 2), (2, 3)]
    assert p.labels == ("0", "1", "2", "3")


def test_induced_subgraph_range_check():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(2, [(0, 1)]), [0, 5])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.data())
def test_graph6_round_trip_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, chosen)
    again = parse_graph6(to_graph6(g))
    assert again.n == g.n
    assert again.adj == g.adj
