"""Theorem harness: applicability gating and check outcomes."""

import json
import random
import sys
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from helpers import (caterpillar, connected_atlas, naive_span1_structure, random_graphs,
                     span1_conditions, violations)
from spanlab import (EDGE, FIXTURES, KINDS, VERTEX, CapacityError, Graph, Rule,
                     check_interval_theorems, check_span1_structure,
                     check_span_inequalities, complete_graph, cycle_graph, end_cliques,
                     fixture, generate_family, induced_subgraph, is_interval, minimal_cut_sets,
                     parse_graph6, path_graph, subdivided_star, to_graph6, vertex_span)
from spanlab.graphs import distance_balls, far_rows, members
from spanlab.spans import LevelScan
from spanlab.theorems import (_KEYED_LOBE_SIZE, HOLDS, NOT_APPLICABLE,
                              SKIPPED_BY_CAP, VIOLATED, _lobe_classes, _union_key)


def status_map(checks):
    return {c.name: c.status for c in checks}


def test_span_inequalities_hold_on_fixtures_and_families():
    graphs = [fixture("figure1"), fixture("figure2"), fixture("figure3"),
              path_graph(5), cycle_graph(6), complete_graph(4),
              subdivided_star(3)]
    for g in graphs:
        checks = check_span_inequalities(g)
        assert not violations(checks), violations(checks)


def test_girth_bounds_not_applicable_on_trees():
    st = status_map(check_span_inequalities(path_graph(4)))
    for rule in ("traditional", "active", "lazy"):
        assert st[f"girth-bound[{rule}]"] == NOT_APPLICABLE


def test_girth_bounds_checked_on_cycles():
    st = status_map(check_span_inequalities(cycle_graph(7)))
    for rule in ("traditional", "active", "lazy"):
        assert st[f"girth-bound[{rule}]"] == HOLDS


def test_positive_span_check_skipped_for_trivial_graph():
    st = status_map(check_span_inequalities(complete_graph(1)))
    assert "traditional-vertex-span-positive" not in st


def test_span1_structure_gating():
    # complete graphs have a universal vertex: not applicable
    st = status_map(check_span1_structure(complete_graph(4)))
    assert set(st.values()) == {NOT_APPLICABLE}
    # span-2 graphs: not applicable
    st = status_map(check_span1_structure(cycle_graph(4)))
    assert set(st.values()) == {NOT_APPLICABLE}
    # P5 qualifies (span 1, no universal vertex) and all checks hold
    assert vertex_span(path_graph(5), "traditional")[0] == 1
    assert set(status_map(check_span1_structure(path_graph(5))).values()) == {HOLDS}


def test_span1_structure_on_figure2():
    assert set(status_map(check_span1_structure(fixture("figure2"))).values()) == {HOLDS}


def test_interval_theorems_on_interval_graph():
    st = status_map(check_interval_theorems(path_graph(5)))
    assert st["interval-implies-span-1"] == HOLDS
    assert st["tree-characterization"] == HOLDS
    assert st["end-clique-augmentation"] == HOLDS
    assert st["cut-clique-augmentation"] == HOLDS


def test_interval_theorems_on_non_interval_tree():
    # the subdivided star is a tree that is not interval; its span is not 1,
    # which is exactly what the characterization demands
    g = subdivided_star(3)
    assert vertex_span(g, "traditional")[0] == 2
    st = status_map(check_interval_theorems(g))
    assert st["interval-implies-span-1"] == NOT_APPLICABLE
    assert st["tree-characterization"] == HOLDS
    assert st["end-clique-augmentation"] == NOT_APPLICABLE


def test_interval_theorems_skipped_by_the_size_cap(monkeypatch):
    # an interval graph over INTERVAL_CAP meets the hypothesis of both
    # augmentation checks, which the cap skips
    g = generate_family("interval:14")
    st = status_map(check_interval_theorems(g))
    assert st["interval-implies-span-1"] == HOLDS
    assert st["end-clique-augmentation"] == SKIPPED_BY_CAP
    assert st["cut-clique-augmentation"] == SKIPPED_BY_CAP
    # the checker reads the cap in force when it is called: raised to 14
    # the augmentation checks run, and lowered to 4 they skip the
    # 5-vertex path
    import spanlab.theorems
    monkeypatch.setattr(spanlab.theorems, "INTERVAL_CAP", 14)
    st = status_map(check_interval_theorems(g))
    assert st["end-clique-augmentation"] == st["cut-clique-augmentation"] == HOLDS
    monkeypatch.setattr(spanlab.theorems, "INTERVAL_CAP", 4)
    st = status_map(check_interval_theorems(path_graph(5)))
    assert st["interval-implies-span-1"] == HOLDS
    assert st["end-clique-augmentation"] == st["cut-clique-augmentation"] == SKIPPED_BY_CAP


def test_interval_theorems_on_figure3():
    assert not violations(check_interval_theorems(fixture("figure3")))


def test_checkers_reject_disconnected_graphs():
    g = Graph(4, [(0, 1), (2, 3)])
    for checker in (check_span_inequalities, check_span1_structure,
                    check_interval_theorems):
        with pytest.raises(ValueError):
            checker(g)


def test_fuzz_random_graphs_have_no_violations():
    for i, g in enumerate(random_graphs(15, 2, 7, seed=71)):
        for checker in (check_span_inequalities, check_span1_structure,
                        check_interval_theorems):
            checks = checker(g)
            assert not violations(checks), (i, violations(checks))
        # the calls above cached g's level scans, as in verify: an equal
        # graph with none cached floods afresh and gets the same checks
        fresh = Graph(g.n, g.edges())
        for checker in (check_span1_structure, check_interval_theorems):
            assert checker(g) == checker(fresh)


def test_verify_computes_the_traditional_span_once(monkeypatch):
    # path:6 is an interval tree with span 1, so every checker asks about its
    # span; the inequality check floods it, and the other two probe level 2
    # of the graph's cached level scan without a flood
    import spanlab.theorems
    from spanlab.cli import main
    g = path_graph(6)
    runs = []
    probes = []
    floods = []
    rule_spans = spanlab.theorems.rule_spans
    probe = spanlab.theorems._span_is_1
    flood = LevelScan._flood

    def counting_spans(h, rule, kinds=KINDS):
        before = len(floods)
        out = rule_spans(h, rule, kinds)
        runs.append((h.adj, Rule(rule), kinds, len(floods) - before, out[VERTEX][0]))
        return out

    def counting_probe(h):
        before = len(floods)
        out = probe(h)
        probes.append((h.adj, len(floods) - before, out))
        return out

    def counting_flood(scan, avail, start, rule):
        floods.append(scan)
        return flood(scan, avail, start, rule)

    # every call, from the theorems, through vertex_span or through spanlab.rule_spans
    for mod in [m for name, m in sys.modules.items() if name.startswith("spanlab")]:
        if getattr(mod, "rule_spans", None) is rule_spans:
            monkeypatch.setattr(mod, "rule_spans", counting_spans)
    monkeypatch.setattr(spanlab.theorems, "_span_is_1", counting_probe)
    monkeypatch.setattr(LevelScan, "_flood", counting_flood)
    assert main(["verify", "--family", "path:6", "--format", "json"]) == 0
    traditional = [run[2:] for run in runs if run[:2] == (g.adj, Rule.TRADITIONAL)]
    assert len(traditional) == 1
    assert traditional[0][0] == (VERTEX, EDGE) and traditional[0][1] > 0
    assert [p[1:] for p in probes if p[0] == g.adj] == [(0, True), (0, True)]


def test_verify_calls_the_public_checkers(monkeypatch):
    import spanlab.cli
    calls = []

    def counting(checker):
        def wrapper(h):
            calls.append((checker.__name__, h))
            return checker(h)
        return wrapper

    for checker in (check_span_inequalities, check_span1_structure,
                    check_interval_theorems):
        monkeypatch.setattr(spanlab.cli, checker.__name__, counting(checker))
    assert spanlab.cli.main(["verify", "--family", "path:6", "--format", "json"]) == 0
    # each checker once, all on one graph object, whose level scans they share
    assert sorted(name for name, _ in calls) == [
        "check_interval_theorems", "check_span1_structure", "check_span_inequalities"]
    assert len({id(h) for _, h in calls}) == 1
    assert calls[0][1] == path_graph(6)


def test_verify_floods_each_level_once(monkeypatch, tmp_path):
    # the graph, its lobe unions and its augmentations: no (graph, rule,
    # level) is flooded twice, by one checker or by two
    from spanlab.cli import main
    flooded = []
    good = LevelScan.good

    def counting(scan, level, rule):
        if (rule, level) not in scan.levels:
            flooded.append((tuple(scan.nbr), rule, level))
        return good(scan, level, rule)

    monkeypatch.setattr(LevelScan, "good", counting)
    path = tmp_path / "caterpillar.g6"
    path.write_text(to_graph6(caterpillar(6)) + "\n")
    sources = ([["--fixture", name] for name in sorted(FIXTURES)]
               + [["--family", "path:8"], ["--family", "interval:12"], ["--file", str(path)]])
    for source in sources:
        flooded.clear()
        assert main(["verify", *source]) == 0
        assert len(flooded) > 3 and len(set(flooded)) == len(flooded), source


def fan():
    """Hub 0 with two blades that are 3-vertex paths (1-2-3, 4-5-6) and two
    that are triangles (7-8-9, 10-11-12), every blade vertex adjacent to the
    hub, and a tail 0-13-14 so that no vertex is universal."""
    edges = [(0, v) for v in range(1, 14)] + [(13, 14)]
    edges += [(1, 2), (2, 3), (4, 5), (5, 6)]
    edges += [(a, b) for t in (7, 10) for a, b in ((t, t + 1), (t + 1, t + 2), (t, t + 2))]
    return Graph(15, edges)


def test_verify_builds_one_cut_catalogue_per_graph(monkeypatch):
    # check_span1_structure and the cut-clique augmentation both ask for the
    # cut sets of the one graph object that verify hands them; the second
    # call reads the catalogue kept on the graph
    import spanlab.structure
    import spanlab.theorems
    from spanlab.cli import main
    asked, built = [], []
    catalog, cut_sets = spanlab.structure.CutSetCatalog, spanlab.theorems.minimal_cut_sets

    def counting_catalog(*args, **kwargs):
        built.append(1)
        return catalog(*args, **kwargs)

    def asking(h):
        asked.append(h)
        return cut_sets(h)

    monkeypatch.setattr(spanlab.structure, "CutSetCatalog", counting_catalog)
    monkeypatch.setattr(spanlab.theorems, "minimal_cut_sets", asking)
    for family in ("path:8", "interval:12:7"):
        asked.clear()
        built.clear()
        assert main(["verify", "--family", family]) == 0
        assert len(asked) == 2 and asked[0] is asked[1]
        assert len(built) == 1


def path_power(n: int, k: int) -> Graph:
    """The k-th power of the path P_n: i ~ j iff 0 < |i - j| <= k."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k + 1, n))])


def test_span1_structure_reads_every_minimal_cut_set(monkeypatch):
    # P30^5 is a unit interval graph with span 1 and no universal vertex, and
    # all 24 of its minimal cut sets have size 5; the 13 of interval:40:4
    # have sizes 7 to 17.  The check keys the lobes of every one of them
    import spanlab.theorems
    keyed = []
    lobe_classes = spanlab.theorems._lobe_classes

    def counting(h, cut, parts):
        keyed.append(cut)
        return lobe_classes(h, cut, parts)

    monkeypatch.setattr(spanlab.theorems, "_lobe_classes", counting)
    for g, count, sizes in ((path_power(30, 5), 24, {5}),
                            (generate_family("interval:40:4"), 13, set(range(7, 18)))):
        keyed.clear()
        assert set(status_map(check_span1_structure(g)).values()) == {HOLDS}
        assert keyed == [cut.vertices for cut in minimal_cut_sets(g).sets]
        assert len(keyed) == count and {len(cut) for cut in keyed} <= sizes


def test_cut_clique_augmentation_at_every_clique_cut(monkeypatch):
    # P12^5 is within INTERVAL_CAP, and its six minimal cut sets, the runs
    # of five consecutive vertices with a vertex on each side, are cliques
    import spanlab.theorems
    augmented = {}
    augmentation_check = spanlab.theorems._augmentation_check

    def recording(name, h, cliques):
        augmented[name] = list(cliques)
        return augmentation_check(name, h, cliques)

    monkeypatch.setattr(spanlab.theorems, "_augmentation_check", recording)
    st = status_map(check_interval_theorems(path_power(12, 5)))
    assert st["cut-clique-augmentation"] == st["end-clique-augmentation"] == HOLDS
    assert augmented["cut-clique-augmentation"] == [tuple(range(i, i + 5)) for i in range(1, 7)]


@lru_cache(maxsize=None)
def structure_graphs():
    return (tuple(connected_atlas(7)) + tuple(caterpillar(k) for k in range(1, 9))
            + tuple(random_graphs(80, 6, 14, seed=47)) + (fan(),))


def test_span1_structure_matches_the_subset_reference():
    applicable = 0
    for g in structure_graphs():
        st = status_map(check_span1_structure(g))
        assert st == status_map(naive_span1_structure(g)), to_graph6(g)
        applicable += set(st.values()) != {NOT_APPLICABLE}
    assert applicable >= 200


def test_span1_structure_conditions_are_necessary_not_sufficient():
    # the net E@dW and EyuG have no universal vertex and traditional vertex
    # span 2, yet meet all three conditions on every minimal cut set; so do
    # 13 graphs with 7 vertices, and none with fewer than 6
    for g6 in ("E@dW", "EyuG"):
        g = parse_graph6(g6)
        assert max(g.degree(v) for v in range(g.n)) < g.n - 1
        assert vertex_span(g, Rule.TRADITIONAL)[0] == 2
        assert span1_conditions(g) == ((True, True, True), {})
        assert set(status_map(check_span1_structure(g)).values()) == {NOT_APPLICABLE}
    meet = {}
    for g in connected_atlas(7):
        if (g.n >= 3 and max(g.degree(v) for v in range(g.n)) < g.n - 1
                and all(span1_conditions(g)[0])
                and vertex_span(g, Rule.TRADITIONAL)[0] != 1):
            meet.setdefault(g.n, []).append(to_graph6(g))
    assert {n: len(g6s) for n, g6s in meet.items()} == {6: 2, 7: 13}
    assert sorted(meet[6]) == ["E@dW", "EyuG"]
    assert meet[7][0] == "F\\CoG"


def test_lobe_classes_match_s_fixing_isomorphisms():
    def rooted(g, cut, lobe):
        gx = nx.Graph()
        vs = (*cut, *lobe)
        gx.add_nodes_from((v, {"s": v if v in cut else None}) for v in vs)
        gx.add_edges_from((u, v) for u in vs for v in g.adj[u] if v in vs)
        return gx

    def same_s(a, b):
        return a["s"] == b["s"]

    pairs = 0
    for g in structure_graphs():
        for cut in minimal_cut_sets(g).sets:
            parts = cut.components
            classes = _lobe_classes(g, cut.vertices, parts)
            assert sorted(i for c in classes for i in c) == list(range(len(parts)))
            assert all(c == sorted(c) for c in classes)
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
            class_of = {i: ci for ci, c in enumerate(classes) for i in c}
            for i in range(len(parts)):
                if len(parts[i]) > _KEYED_LOBE_SIZE:
                    assert [i] in classes
                    continue
                for j in range(i + 1, len(parts)):
                    if len(parts[j]) > _KEYED_LOBE_SIZE:
                        continue
                    iso = nx.is_isomorphic(rooted(g, cut.vertices, parts[i]),
                                           rooted(g, cut.vertices, parts[j]),
                                           node_match=same_s)
                    assert (class_of[i] == class_of[j]) == iso, (to_graph6(g), cut, i, j)
                    pairs += 1
    assert pairs > 1000
    # paths {1, 2, 3} and {4, 5, 6}, triangles {7, 8, 9} and {10, 11, 12}, tail {13, 14}
    g = fan()
    (cut,) = [c for c in minimal_cut_sets(g).sets if c.vertices == (0,)]
    assert _lobe_classes(g, cut.vertices, cut.components) == [[0, 1], [2, 3], [4]]


def test_lobe_union_budget(monkeypatch, tmp_path):
    import spanlab.theorems
    from spanlab.cli import main
    monkeypatch.setattr(spanlab.theorems, "LOBE_UNION_BUDGET", 10)
    g = caterpillar(8)
    # 2 cuts x (9 x 2 - 2) = 32 unions
    with pytest.raises(CapacityError) as exc:
        check_span1_structure(g)
    assert (exc.value.budget, exc.value.spent) == ("LOBE_UNION_BUDGET", 32)
    path = tmp_path / "caterpillar.g6"
    path.write_text(to_graph6(g) + "\n")
    assert main(["verify", "--file", str(path)]) == 3


def test_verify_makes_one_span_per_lobe_count_vector(monkeypatch, tmp_path):
    # caterpillar k = 10 (n = 22): at each hub, k interchangeable leaves and one
    # larger lobe, so (k + 1) x 2 - 2 = 2k unions per cut; 2^(k+1) - 2 by subsets.
    # A hub with 1 <= j <= k of its own leaves is a star at both cuts, but no
    # shift of the indices maps the one at hub 0 (leaves from 2) onto the one
    # at hub 1 (leaves from k + 2), so the cuts share no probe: 2 x 2k = 40.
    # Each union gets one span-1 probe, which floods level 2 of the union only:
    # the rows of the union's own level-2 product, at its vertices in g
    import spanlab.theorems
    from spanlab.cli import main
    g = caterpillar(10)
    probes = []
    floods = []
    probe = spanlab.theorems._induced_span_is_1
    good_in = LevelScan.good_in

    def counting_probe(scan, vertices):
        before = len(floods)
        out = probe(scan, vertices)
        probes.append((vertices, floods[before:]))
        return out

    def recording_good_in(scan, avail, vertices, rule):
        floods.append((vertices, list(avail), rule))
        return good_in(scan, avail, vertices, rule)

    monkeypatch.setattr(spanlab.theorems, "_induced_span_is_1", counting_probe)
    monkeypatch.setattr(LevelScan, "good_in", recording_good_in)
    path = tmp_path / "caterpillar.g6"
    path.write_text(to_graph6(g) + "\n")
    assert main(["verify", "--file", str(path), "--format", "json"]) == 0
    assert len(probes) == 40 and len({vertices for vertices, _ in probes}) == 40
    for vertices, calls in probes:
        union = members(vertices)
        level2 = far_rows(distance_balls(induced_subgraph(g, union)), 2)
        expected = [0] * g.n
        for v, row in zip(union, level2):
            expected[v] = sum(1 << union[i] for i in members(row))
        assert calls == [(vertices, expected, Rule.TRADITIONAL)]


def test_union_key_shares_only_shifted_copies():
    # lobe unions of different cuts share one span-1 probe when their keys
    # are equal. On random graphs with 1-14 vertices and random nonempty
    # vertex masks, equal keys give the same graph6 for the two induced
    # subgraphs: the shift keeps the index order that numbers them
    rng = random.Random(7)
    shared = 0                          # equal keys of different masks
    for _ in range(200):
        n = rng.randint(1, 14)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        keyed = []
        for _ in range(12):
            vs = rng.getrandbits(n)
            if vs:
                sub = induced_subgraph(g, members(vs))
                keyed.append((vs, _union_key(g.nbr, vs), to_graph6(sub)))
        for (vs1, k1, g61), (vs2, k2, g62) in combinations(keyed, 2):
            if k1 == k2:
                assert g61 == g62
                shared += vs1 != vs2
    assert shared == 235
    # on a path every two runs of consecutive indices of one length share a
    # key, and runs of different lengths do not
    path = path_graph(12)
    runs = [(length, _union_key(path.nbr, (1 << length) - 1 << start))
            for length in range(1, 13) for start in range(13 - length)]
    pairs = 0
    for (len1, k1), (len2, k2) in combinations(runs, 2):
        assert (k1 == k2) == (len1 == len2)
        pairs += k1 == k2
    assert (len(runs), pairs) == (78, 286)


def test_span1_structure_shares_lobe_union_spans_across_cuts(monkeypatch):
    # on a path every vertex but the ends is a cut with two lobes; its unions
    # are shorter paths, one span-1 probe per length from 2 to n - 1 over all
    # cuts, besides the probe of the path itself
    import spanlab.theorems
    calls = []
    probe = spanlab.theorems._span_is_1
    induced_probe = spanlab.theorems._induced_span_is_1

    def counting_probe(h):
        calls.append(h.n)
        return probe(h)

    def counting_induced_probe(scan, vertices):
        calls.append(vertices.bit_count())
        return induced_probe(scan, vertices)

    monkeypatch.setattr(spanlab.theorems, "_span_is_1", counting_probe)
    monkeypatch.setattr(spanlab.theorems, "_induced_span_is_1", counting_induced_probe)
    for n in (10, 60):
        calls.clear()
        assert not violations(check_span1_structure(path_graph(n)))
        assert sorted(calls) == [*range(2, n), n]


def test_span1_structure_names_a_non_clique_cut_and_non_join_lobes(monkeypatch, capsys):
    # with the span-1 probe forced to answer yes, C4 (span 2) has the
    # minimal cut set {0, 2}, which is no clique, and the subdivided star
    # with three legs (span 2) has three lobes of its centre 0 that are not
    # joined onto it; verify exits 1 and names the violation and its graph
    import spanlab.theorems
    from spanlab.cli import main
    from spanlab.theorems import Check
    monkeypatch.setattr(spanlab.theorems, "_span_is_1", lambda h: True)
    non_clique = {"graph6": "Cl", "non_clique_cut": [0, 2]}
    assert check_span1_structure(cycle_graph(4)) == (
        Check("cut-sets-are-cliques", VIOLATED, non_clique),
        Check("lobe-unions-span-1", HOLDS), Check("join-all-but-two", HOLDS))
    assert check_span1_structure(subdivided_star(3)) == (
        Check("cut-sets-are-cliques", HOLDS), Check("lobe-unions-span-1", HOLDS),
        Check("join-all-but-two", VIOLATED,
              {"graph6": "FkE?G", "non_join_lobes": {"cut": [0], "count": 3}}))
    assert main(["verify", "--family", "cycle:4", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["violations"] == [{"check": "cut-sets-are-cliques", "graph": "cycle:4",
                                      "graph6": "Cl", "witness": non_clique}]


def test_span1_structure_reports_a_bad_lobe_union(monkeypatch):
    import spanlab.theorems
    g = fan()
    probe = spanlab.theorems._induced_span_is_1

    def broken_probe(scan, vertices):
        return vertices.bit_count() >= g.n and probe(scan, vertices)

    monkeypatch.setattr(spanlab.theorems, "_induced_span_is_1", broken_probe)
    check = {c.name: c for c in check_span1_structure(g)}
    assert check["cut-sets-are-cliques"].status == HOLDS
    assert check["join-all-but-two"].status == HOLDS
    bad = check["lobe-unions-span-1"]
    assert bad.status == VIOLATED
    cuts = {c.vertices: c for c in minimal_cut_sets(g).sets}
    union = bad.witness["bad_lobe_union"]
    parts = cuts[tuple(union["cut"])].components
    assert union["lobes"] == sorted(set(union["lobes"]))
    assert 0 < len(union["lobes"]) < len(parts)
    assert all(0 <= i < len(parts) for i in union["lobes"])
    assert set(bad.witness) == {"graph6", "bad_lobe_union"}
    assert bad.witness["graph6"] == to_graph6(g)


def test_interval_theorems_report_a_bad_augmentation(monkeypatch):
    # a probe that fails every augmentation by K2 (two added vertices): both
    # augmentation checks name the first clique they augment, and nothing else
    import spanlab.theorems
    g = path_graph(5)
    probe = spanlab.theorems._induced_span_is_1

    def broken_probe(scan, vertices):
        return vertices.bit_count() != g.n + 2 and probe(scan, vertices)

    monkeypatch.setattr(spanlab.theorems, "_induced_span_is_1", broken_probe)
    check = {c.name: c for c in check_interval_theorems(g)}
    assert check["interval-implies-span-1"].status == HOLDS
    assert check["tree-characterization"].status == HOLDS
    firsts = {"end-clique-augmentation": end_cliques(g)[0],
              "cut-clique-augmentation": next(
                  c.vertices for c in minimal_cut_sets(g).sets if c.is_clique)}
    for name, clique in firsts.items():
        assert check[name].status == VIOLATED
        assert check[name].witness == {"case": {"clique": list(clique), "added": "K2"}}


def masks_graph(nbr, vertices):
    """The subgraph induced on the vertex mask ``vertices`` of the graph
    with neighbour masks ``nbr``, as a fresh Graph numbered in index order."""
    union = members(vertices)
    index = {v: i for i, v in enumerate(union)}
    return Graph(len(union), [(index[v], index[w]) for v in union
                              for w in members(nbr[v] & vertices) if v < w])


def test_span_1_probe_matches_vertex_span(monkeypatch):
    # every connected graph with 2 <= n <= 7, each probed on a copy, which
    # floods level 2 itself, and every augmentation the interval checks probe
    # on the interval graphs among them, checked on a graph rebuilt from the
    # probe's masks
    import spanlab.theorems
    probe = spanlab.theorems._induced_span_is_1
    augmented = []

    def recording_probe(scan, vertices):
        out = probe(scan, vertices)
        augmented.append((masks_graph(scan.nbr, vertices), out))
        return out

    graphs = [g for g in connected_atlas(7) if g.n >= 2]
    monkeypatch.setattr(spanlab.theorems, "_induced_span_is_1", recording_probe)
    for g in graphs:
        if is_interval(g):
            assert not violations(check_interval_theorems(g))
    assert len(augmented) > 6000
    answers = ([spanlab.theorems._span_is_1(Graph(g.n, g.edges())) for g in graphs]
               + [out for _, out in augmented])
    rebuilt = graphs + [h for h, _ in augmented]
    assert answers == [vertex_span(h, "traditional")[0] == 1 for h in rebuilt]
    assert 0 < answers.count(False) < len(graphs)


def test_verify_builds_no_graph_for_lobe_unions_or_augmentations(monkeypatch, tmp_path):
    # the span-1 probes run on neighbour masks: verify grows distance balls
    # and builds a Graph only for the graph it verifies, on a caterpillar
    # (lobe unions) and on an interval graph that has augmentation checks
    from spanlab.cli import main
    built = []
    balled = []
    init = Graph.__init__
    balls = distance_balls

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_balls(g):
        balled.append(g)
        return balls(g)

    interval = generate_family("interval:12:3")
    assert is_interval(interval) and interval.m > interval.n - 1
    assert status_map(check_interval_theorems(interval))["end-clique-augmentation"] == HOLDS
    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mod in [m for name, m in sys.modules.items() if name.startswith("spanlab")]:
        if getattr(mod, "distance_balls", None) is balls:
            monkeypatch.setattr(mod, "distance_balls", counting_balls)
    path = tmp_path / "graph.g6"
    for g in (caterpillar(10), interval):
        path.write_text(to_graph6(g) + "\n")
        built.clear()
        balled.clear()
        assert main(["verify", "--file", str(path), "--format", "json"]) == 0
        assert len(built) == 1 and built[0].adj == g.adj
        assert balled and {id(h) for h in balled} == {id(built[0])}


def test_verify_recognises_each_interval_graph_once(monkeypatch):
    # check_interval_theorems runs the asteroidal-triple test once per
    # interval graph; its end-clique test grows components from one vertex
    # of each clique and does not recognise the graph again
    import spanlab.structure
    from spanlab.cli import main
    calls = []
    find = spanlab.structure.find_asteroidal_triple

    def counting_find(g):
        calls.append(g)
        return find(g)

    monkeypatch.setattr(spanlab.structure, "find_asteroidal_triple", counting_find)
    assert main(["verify", "--family", "interval:12", "--seeds", "20", "--format", "json"]) == 0
    assert len(calls) == 20 and all(g.n == 12 for g in calls)
    with pytest.raises(ValueError):
        end_cliques(cycle_graph(5))
