"""Theorem harness: applicability gating, check outcomes, report shape."""

import sys
from functools import lru_cache

import networkx as nx
import pytest

from helpers import (caterpillar, connected_atlas, naive_span1_structure, random_graphs,
                     span1_conditions)
from spanlab import (EDGE, FIXTURES, KINDS, VERTEX, CapacityError, Graph, Rule,
                     check_interval_theorems, check_span1_structure,
                     check_span_inequalities, complete_graph, cycle_graph, end_cliques,
                     fixture, generate_family, is_interval, minimal_cut_sets,
                     parse_graph6, path_graph, subdivided_star, to_graph6, vertex_span)
from spanlab.spans import LevelScan, level_scan
from spanlab.theorems import (_KEYED_LOBE_SIZE, HOLDS, NOT_APPLICABLE,
                              SKIPPED_BY_CAP, VIOLATED, Check, TheoremReport, _lobe_classes)


def status_map(report):
    return {c.name: c.status for c in report.checks}


def test_span_inequalities_hold_on_fixtures_and_families():
    graphs = [fixture("figure1"), fixture("figure2"), fixture("figure3"),
              path_graph(5), cycle_graph(6), complete_graph(4),
              subdivided_star(3)]
    for g in graphs:
        report = check_span_inequalities(g)
        assert report.ok, report.violations
        assert parse_graph6(report.graph6).adj == g.adj


def test_girth_bounds_not_applicable_on_trees():
    report = check_span_inequalities(path_graph(4))
    st = status_map(report)
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
    report = check_span1_structure(path_graph(5))
    assert set(status_map(report).values()) == {HOLDS}


def test_span1_structure_on_figure2():
    report = check_span1_structure(fixture("figure2"))
    assert set(status_map(report).values()) == {HOLDS}


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


def test_interval_theorems_skipped_by_the_size_cap():
    # an interval graph over INTERVAL_CAP meets the hypothesis of both
    # augmentation checks, which the cap skips
    st = status_map(check_interval_theorems(generate_family("interval:14")))
    assert st["interval-implies-span-1"] == HOLDS
    assert st["end-clique-augmentation"] == SKIPPED_BY_CAP
    assert st["cut-clique-augmentation"] == SKIPPED_BY_CAP


def test_interval_theorems_on_figure3():
    report = check_interval_theorems(fixture("figure3"))
    assert report.ok


def test_checkers_reject_disconnected_graphs():
    g = Graph(4, [(0, 1), (2, 3)])
    for checker in (check_span_inequalities, check_span1_structure,
                    check_interval_theorems):
        with pytest.raises(ValueError):
            checker(g)


def test_fuzz_random_graphs_have_no_violations():
    for i, g in enumerate(random_graphs(15, 2, 7, seed=71)):
        name = f"fuzz-{i}"
        for checker in (check_span_inequalities, check_span1_structure,
                        check_interval_theorems):
            report = checker(g, name)
            assert report.ok, (name, report.violations)
            assert report.graph_name == name
        # the calls above cached g's level scans, as in verify: an equal
        # graph with none cached floods afresh and gets the same reports
        fresh = Graph(g.n, g.edges())
        for checker in (check_span1_structure, check_interval_theorems):
            assert checker(g, name) == checker(fresh, name)


def test_report_shape():
    report = TheoremReport(graph_name="x", graph6="A_", checks=(
        Check("a", HOLDS), Check("b", VIOLATED, {"why": 1}),
        Check("c", NOT_APPLICABLE)))
    assert not report.ok
    assert [c.name for c in report.violations] == ["b"]
    assert report.violations[0].witness == {"why": 1}


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

    def counting_flood(scan, avail, start):
        floods.append(scan)
        return flood(scan, avail, start)

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
        def wrapper(h, name="graph"):
            calls.append((checker.__name__, h))
            return checker(h, name)
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

    def counting(scan, level):
        if level not in scan.levels:
            flooded.append((scan.adj, scan.rule, level))
        return good(scan, level)

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


@lru_cache(maxsize=None)
def structure_graphs():
    return (tuple(connected_atlas(7)) + tuple(caterpillar(k) for k in range(1, 9))
            + tuple(random_graphs(80, 6, 14, seed=47)) + (fan(),))


def test_span1_structure_matches_the_subset_reference():
    applicable = 0
    for g in structure_graphs():
        report = check_span1_structure(g)
        assert status_map(report) == status_map(naive_span1_structure(g)), to_graph6(g)
        applicable += set(status_map(report).values()) != {NOT_APPLICABLE}
    assert applicable >= 200


def test_span1_structure_conditions_are_necessary_not_sufficient():
    # the net E@dW and EyuG have no universal vertex and traditional vertex
    # span 2, yet meet all three conditions on every minimal cut set; so do
    # 13 graphs with 7 vertices, and none with fewer than 6
    for g6 in ("E@dW", "EyuG"):
        g = parse_graph6(g6)
        assert max(g.degree(v) for v in range(g.n)) < g.n - 1
        assert vertex_span(g, Rule.TRADITIONAL)[0] == 2
        assert span1_conditions(g, cap=g.n) == ((True, True, True), {})
        assert set(status_map(check_span1_structure(g)).values()) == {NOT_APPLICABLE}
    meet = {}
    for g in connected_atlas(7):
        if (g.n >= 3 and max(g.degree(v) for v in range(g.n)) < g.n - 1
                and all(span1_conditions(g, cap=g.n)[0])
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
    with pytest.raises(CapacityError, match="32 lobe unions"):
        check_span1_structure(g)
    path = tmp_path / "caterpillar.g6"
    path.write_text(to_graph6(g) + "\n")
    assert main(["verify", "--file", str(path)]) == 3


def test_verify_makes_one_span_per_lobe_count_vector(monkeypatch, tmp_path):
    # caterpillar k = 10 (n = 22): at each hub, k interchangeable leaves and one
    # larger lobe, so (k + 1) x 2 - 2 = 2k unions per cut; 2^(k+1) - 2 by subsets.
    # A hub with j < k of its own leaves is the same labelled star at both
    # cuts, so the second cut adds only its k unions with the other hub's lobe.
    # Each union gets one span-1 probe, which floods level 2 only
    import spanlab.theorems
    from spanlab.cli import main
    calls = []
    probe = spanlab.theorems._span_is_1

    def counting_probe(h):
        out = probe(h)
        calls.append((h.n, tuple(level_scan(h, Rule.TRADITIONAL).levels)))
        return out

    monkeypatch.setattr(spanlab.theorems, "_span_is_1", counting_probe)
    path = tmp_path / "caterpillar.g6"
    path.write_text(to_graph6(caterpillar(10)) + "\n")
    assert main(["verify", "--file", str(path), "--format", "json"]) == 0
    # lobe unions, not the checkers' probes of the caterpillar itself
    unions = [levels for n, levels in calls if n < 22]
    assert len(unions) == 30 and set(unions) == {(2,)}


def test_span1_structure_shares_lobe_union_spans_across_cuts(monkeypatch):
    # on a path every vertex but the ends is a cut with two lobes; its unions
    # are shorter paths, one span-1 probe per length from 2 to n - 1 over all
    # cuts, besides the probe of the path itself
    import spanlab.theorems
    calls = []
    probe = spanlab.theorems._span_is_1

    def counting_probe(h):
        calls.append(h.n)
        return probe(h)

    monkeypatch.setattr(spanlab.theorems, "_span_is_1", counting_probe)
    for n in (10, 60):
        calls.clear()
        report = check_span1_structure(path_graph(n))
        assert report.ok
        assert sorted(calls) == [*range(2, n), n]


def test_span1_structure_reports_a_bad_lobe_union(monkeypatch):
    import spanlab.theorems
    g = fan()
    probe = spanlab.theorems._span_is_1

    def broken_probe(h):
        return h.n >= g.n and probe(h)

    monkeypatch.setattr(spanlab.theorems, "_span_is_1", broken_probe)
    check = {c.name: c for c in check_span1_structure(g).checks}
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
    probe = spanlab.theorems._span_is_1

    def broken_probe(h):
        return h.n != g.n + 2 and probe(h)

    monkeypatch.setattr(spanlab.theorems, "_span_is_1", broken_probe)
    check = {c.name: c for c in check_interval_theorems(g).checks}
    assert check["interval-implies-span-1"].status == HOLDS
    assert check["tree-characterization"].status == HOLDS
    firsts = {"end-clique-augmentation": end_cliques(g)[0],
              "cut-clique-augmentation": next(
                  c.vertices for c in minimal_cut_sets(g).sets if c.is_clique)}
    for name, clique in firsts.items():
        assert check[name].status == VIOLATED
        assert check[name].witness == {"case": {"clique": list(clique), "added": "K2"}}


def test_span_1_probe_matches_vertex_span(monkeypatch):
    # every connected graph with 2 <= n <= 7, and every augmentation the
    # interval checks probe on the interval graphs among them; the probe
    # runs on a copy, so it floods level 2 itself
    import spanlab.theorems
    probe = spanlab.theorems._span_is_1
    probed = []

    def recording_probe(h):
        probed.append(h)
        return probe(h)

    graphs = [g for g in connected_atlas(7) if g.n >= 2]
    monkeypatch.setattr(spanlab.theorems, "_span_is_1", recording_probe)
    for g in graphs:
        if is_interval(g):
            assert check_interval_theorems(g).ok
    atlas = {id(g) for g in graphs}
    augmented = [h for h in probed if id(h) not in atlas]
    assert len(augmented) > 6000
    answers = [probe(Graph(h.n, h.edges())) for h in graphs + augmented]
    assert answers == [vertex_span(h, "traditional")[0] == 1 for h in graphs + augmented]
    assert 0 < answers.count(False) < len(graphs)
