"""Span solver: component goodness, threshold descent, certificates."""

import sys

import pytest

from helpers import connected_atlas, descending_span, random_graphs, spine_tree
from spanlab import (EDGE, KINDS, RULES, VERTEX, Certificate, Graph, Rule, complete_graph,
                     cycle_graph, edge_span, fixture, generate_family, metrics, parse_graph6,
                     path_graph, random_connected_graph, random_interval_graph, rule_spans,
                     to_graph6, vertex_span)
from spanlab.products import build_product, safety_subgraph
from spanlab.spans import (edge_good_components, good_components, level_scan, pair_codes,
                           product_components)

# (rule, kind) -> value tables confirmed by the reachability oracle;
# see test_oracle.py and the acceptance suite for the live cross-checks.
SPOT = {
    "K1": {("traditional", "vertex"): 0, ("traditional", "edge"): 0,
           ("active", "vertex"): 0, ("active", "edge"): 0,
           ("lazy", "vertex"): 0, ("lazy", "edge"): 0},
    "K2": {("traditional", "vertex"): 1, ("traditional", "edge"): 1,
           ("active", "vertex"): 1, ("active", "edge"): 1,
           ("lazy", "vertex"): 0, ("lazy", "edge"): 0},
    "P3": {("traditional", "vertex"): 1, ("traditional", "edge"): 1,
           ("active", "vertex"): 1, ("active", "edge"): 1,
           ("lazy", "vertex"): 0, ("lazy", "edge"): 0},
    "C4": {("traditional", "vertex"): 2, ("traditional", "edge"): 2,
           ("active", "vertex"): 2, ("active", "edge"): 2,
           ("lazy", "vertex"): 1, ("lazy", "edge"): 1},
    "C5": {("traditional", "vertex"): 2, ("traditional", "edge"): 2,
           ("active", "vertex"): 2, ("active", "edge"): 2,
           ("lazy", "vertex"): 2, ("lazy", "edge"): 2},
}

GRAPHS = {
    "K1": complete_graph(1),
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
}


def test_spot_values():
    for name, table in SPOT.items():
        g = GRAPHS[name]
        for (rule, kind), expected in table.items():
            solve = vertex_span if kind == "vertex" else edge_span
            assert solve(g, rule)[0] == expected, (name, rule, kind)


def test_fixture_values():
    # traditional values of figure1/figure3 and figure2's span 1 are the
    # published ones; the rest are regressions pinned after oracle review
    tables = {
        "figure1": {"traditional": (2, 1), "active": (2, 1), "lazy": (2, 1)},
        "figure2": {"traditional": (1, 1), "active": (1, 1), "lazy": (1, 1)},
        "figure3": {"traditional": (2, 1), "active": (2, 1), "lazy": (2, 1)},
    }
    for name, rows in tables.items():
        g = fixture(name)
        for rule, (v, e) in rows.items():
            spans = rule_spans(g, rule)
            assert spans[VERTEX][0] == v, (name, rule)
            assert spans[EDGE][0] == e, (name, rule)


def test_c4_traditional_certificate_structure():
    c4 = cycle_graph(4)
    k, cert = vertex_span(c4, "traditional")
    assert k == 2
    assert cert.threshold == 2
    # the good component is the 4-cycle on the antipodal pairs
    assert sorted(cert.component) == [2, 7, 8, 13]


def test_good_components_require_both_projections():
    # K2 lazy at threshold 1: two singleton components, neither good
    p = safety_subgraph(build_product(complete_graph(2), "lazy"), 1)
    assert product_components(p) == [(1,), (2,)]
    assert good_components(p) == []


def test_level_scan_matches_the_product_components():
    # the scan's good components at level k are those of the k-thresholded
    # product, in the same order, whether flooded or replayed
    for g in connected_atlas(6):
        for rule in RULES:
            base = build_product(g, rule)
            scan = level_scan(g, rule)
            for k in range(int(metrics(g).radius) + 2):
                expected = good_components(safety_subgraph(base, k))
                for _ in range(2):
                    got = [pair_codes(comp) for comp in scan.good(k)]
                    assert got == expected, (to_graph6(g), rule, k)


def test_edge_test_matches_the_reference_per_component(monkeypatch):
    # every good component of every level 0 .. radius of every connected
    # graph with 2-7 vertices: the edge test against the reference scan of
    # the thresholded product, the one-bit test against full transposition,
    # and the transposed pass (one zip per transposition) on exactly the
    # components that are not their own transpose
    import spanlab.spans
    zips = []

    def counting_zip(*args):
        zips.append(args)
        return zip(*args)

    monkeypatch.setattr(spanlab.spans, "zip", counting_zip, raising=False)
    good, transposed = [], []               # n of each; (graph6, n, rule, level)
    for g in connected_atlas(7):
        if g.n < 2:
            continue
        for rule in RULES:
            base = build_product(g, rule)
            scan = level_scan(g, rule)
            for level in range(int(metrics(g).radius) + 1):
                expected = edge_good_components(safety_subgraph(base, level))
                for comp in scan.good(level):
                    codes = pair_codes(comp)
                    own = {v * g.n + u for u, v in (divmod(c, g.n) for c in codes)} == set(codes)
                    least = (comp[0] & -comp[0]).bit_length() - 1
                    assert bool(comp[least] & 1) == own
                    del zips[:]
                    assert scan.covers_edges(comp) == (codes in expected), (
                        to_graph6(g), rule, level)
                    assert len(zips) == (not own)
                    good.append(g.n)
                    if zips:
                        transposed.append((to_graph6(g), g.n, rule, level))
    assert len(good) == 7485 and len(transposed) == 14
    assert {rule for _, _, rule, _ in transposed} == {Rule.ACTIVE}
    assert len([n for n in good if n <= 6]) == 1013
    assert len([n for _, n, _, _ in transposed if n <= 6]) == 4
    assert transposed[0] == ("Dhc", 5, Rule.ACTIVE, 2)
    # at n = 10 a good component's rows and its transpose's rows can cover
    # different edge sets (none of the atlas's do): under the active rule at
    # level 3, each of these graphs has two such components, transposes of
    # each other, whose players cover 11 edges each, two different sets
    uneven = []
    for g6 in ("Ihe@?cH@?", "IhCKL?GDO"):
        g = parse_graph6(g6)
        for rule in RULES:
            base = build_product(g, rule)
            scan = level_scan(g, rule)
            for level in range(int(metrics(g).radius) + 1):
                p = safety_subgraph(base, level)
                expected = edge_good_components(p)
                for comp in scan.good(level):
                    codes = pair_codes(comp)
                    assert scan.covers_edges(comp) == (codes in expected), (g6, rule, level)
                    arcs = [(divmod(a, g.n), divmod(b, g.n)) for a in codes for b in p.adj[a]]
                    covered = [{frozenset((x[i], y[i])) for x, y in arcs if x[i] != y[i]}
                               for i in (0, 1)]
                    if covered[0] != covered[1]:
                        uneven.append((g6, rule, level, len(covered[0]), len(covered[1])))
    assert uneven == [(g6, Rule.ACTIVE, 3, 11, 11)
                      for g6 in ("Ihe@?cH@?", "IhCKL?GDO") for _ in range(2)]


def test_level_scan_matches_the_reference_past_one_byte_table():
    # rows of 2 and 3 bytes (n = 9-24), so a multi-bit front is dilated
    # through several tables: dense and sparse random graphs, a path and a
    # caterpillar, every rule and every level 0 .. radius + 1.  The good
    # components flooded fresh and replayed, and the edge test on each,
    # against the reference scan of the product
    graphs = (random_graphs(12, 9, 24, 46)
              + [random_connected_graph(n, 0.15, seed=n) for n in range(9, 25, 2)]
              + [path_graph(17), spine_tree(13, 5, 1)])
    assert {(g.n + 7) // 8 for g in graphs} == {2, 3}
    good = edge_good = 0
    for g in graphs:
        for rule in RULES:
            base = build_product(g, rule)
            scan = level_scan(g, rule)
            for k in range(int(metrics(g).radius) + 2):
                p = safety_subgraph(base, k)
                expected = good_components(p)
                for _ in range(2):
                    comps = scan.good(k)
                    assert [pair_codes(comp) for comp in comps] == expected, (
                        to_graph6(g), rule, k)
                edges = edge_good_components(p)
                for comp in comps:
                    assert scan.covers_edges(comp) == (pair_codes(comp) in edges), (
                        to_graph6(g), rule, k)
                good += len(comps)
                edge_good += len(edges)
    assert (good, edge_good) == (201, 188)


def test_a_level_is_flooded_once_whole(monkeypatch):
    # path:60 under the active rule has one good component at level 1; the
    # first good(1) floods on past it, through the rest of row 0, and keeps
    # the list, which a second call returns with no flood
    from spanlab.spans import LevelScan
    floods = []
    flood = LevelScan._flood

    def counting(self, avail, start):
        floods.append(start)
        return flood(self, avail, start)

    monkeypatch.setattr(LevelScan, "_flood", counting)
    scan = level_scan(path_graph(60), Rule.ACTIVE)
    comps = scan.good(1)
    assert isinstance(comps, list) and len(comps) == 1 and len(floods) == 2
    assert scan.good(1) is comps and scan.levels == {1: comps}
    assert len(floods) == 2


def test_level_scans_are_cached_per_graph_object(monkeypatch):
    # a second call on one graph floods nothing; an equal but distinct
    # graph has its own scans and floods again
    from spanlab.spans import LevelScan
    floods = []
    flood = LevelScan._flood

    def counting_flood(scan, avail, start):
        floods.append(scan)
        return flood(scan, avail, start)

    monkeypatch.setattr(LevelScan, "_flood", counting_flood)
    g, twin = fixture("figure1"), fixture("figure1")
    assert g == twin and g is not twin
    first = six_spans(g)
    once = len(floods)
    assert once > 0
    assert six_spans(g) == first and len(floods) == once
    assert six_spans(twin) == first and len(floods) == 2 * once
    assert {id(scan) for scan in floods[:once]}.isdisjoint(map(id, floods[once:]))
    # the three rules' scans of one graph share one set of dilation tables
    ours, theirs = ({(id(scan.tables), id(scan.one)) for scan in map(level_scan, [h] * 3, RULES)}
                    for h in (g, twin))
    assert len(ours) == len(theirs) == 1 and ours != theirs


def fresh(g: Graph) -> Graph:
    """An equal graph object with no cached balls or level scans."""
    return Graph(g.n, g.edges(), g.labels)


def six_spans(g: Graph) -> dict:
    """rule -> kind -> (span, certificate), the rules asked in ``RULES`` order."""
    return {rule: rule_spans(g, rule) for rule in RULES}


def test_active_and_lazy_spans_are_at_most_traditional():
    # a traditional step set contains the active and the lazy ones, so each
    # good or edge-good component of their products lies inside one of the
    # traditional product; no cache is shared between the calls
    for g in connected_atlas(7):
        spans = {rule: {kind: k for kind, (k, _) in rule_spans(fresh(g), rule).items()}
                 for rule in RULES}
        for rule in (Rule.ACTIVE, Rule.LAZY):
            for kind in KINDS:
                assert spans[rule][kind] <= spans[Rule.TRADITIONAL][kind], (to_graph6(g), rule)


def test_capped_spans_match_uncapped_ones():
    # one graph object asked rule after rule, so each rule's search may be
    # capped by the span of a cached scan, against a fresh object per rule.
    # The active and lazy step sets are not nested, and either span can be
    # the larger (active > lazy on paths, lazy > active on the net E@dW),
    # so neither may cap the other in either order
    graphs = connected_atlas(7) + [path_graph(60), generate_family("random:60:0.1:1")]
    for g in graphs:
        uncapped = {rule: rule_spans(fresh(g), rule) for rule in RULES}
        for order in (RULES, RULES[::-1], (Rule.ACTIVE, Rule.LAZY, Rule.TRADITIONAL)):
            h = fresh(g)
            capped = {rule: rule_spans(h, rule) for rule in order}
            assert capped == uncapped, (to_graph6(g), order)


def test_six_spans_flood_no_level_above_a_dominating_span():
    # levels flooded per rule, read off each cached level scan: active and
    # lazy search below the traditional span, never above it, and on a
    # random graph whose spans all equal the radius, each rule's vertex span
    # floods the radius level alone
    path = path_graph(60)
    spans = six_spans(path)
    assert spans[Rule.TRADITIONAL][VERTEX][0] == 1
    levels = {rule: sorted(level_scan(path, rule).levels) for rule in RULES}
    assert levels[Rule.TRADITIONAL][-1] == 30                   # the radius
    assert levels[Rule.ACTIVE] == [1] and levels[Rule.LAZY] == [0, 1]
    # a repeat, with every scan's span cached, answers the same and floods
    # no new level
    assert six_spans(path) == spans
    assert {rule: sorted(level_scan(path, rule).levels) for rule in RULES} == levels
    net = parse_graph6("E@dW")                                  # lazy 2 > active 1
    spans = six_spans(net)
    assert [spans[rule][VERTEX][0] for rule in RULES] == [2, 1, 2]
    assert {rule: sorted(level_scan(net, rule).levels) for rule in RULES} == {
        Rule.TRADITIONAL: [2], Rule.ACTIVE: [1, 2], Rule.LAZY: [2]}
    g = generate_family("random:60:0.1:1")
    radius = int(metrics(g).radius)
    for rule in RULES:
        assert vertex_span(g, rule)[0] == radius
        assert list(level_scan(g, rule).levels) == [radius], rule


def test_certificate_codes_are_built_on_first_read(monkeypatch):
    # the six spans and the inequality checker leave every certificate's
    # pair codes unbuilt; the first read of .component builds them once
    import spanlab.spans
    from spanlab.theorems import check_span_inequalities
    calls = []
    codes = spanlab.spans.pair_codes

    def counting(rows):
        calls.append(rows)
        return codes(rows)

    monkeypatch.setattr(spanlab.spans, "pair_codes", counting)
    g = fixture("figure1")
    spans = six_spans(g)
    check_span_inequalities(g)
    check_span_inequalities(fresh(g))
    assert calls == []
    cert = spans[Rule.TRADITIONAL][VERTEX][1]
    assert cert.component == codes(list(cert.rows)) and len(calls) == 1
    assert cert.component is cert.component and len(calls) == 1
    assert cert == vertex_span(fresh(g), Rule.TRADITIONAL)[1]


def test_certificate_identity_is_its_fields():
    # equality and hash cover (rule, kind, threshold, rows): a certificate
    # rebuilt from its rows is equal, one row bit flipped is not, and the
    # certificates of two equal graph objects collapse pairwise in a set
    g = fixture("figure1")
    certs = [cert for kinds in six_spans(g).values() for _, cert in kinds.values()]
    for cert in certs:
        rebuilt = Certificate(rule=cert.rule, kind=cert.kind, threshold=cert.threshold,
                              rows=tuple(list(cert.rows)))
        assert rebuilt == cert and hash(rebuilt) == hash(cert)
        for u in range(g.n):
            for v in range(g.n):
                rows = list(cert.rows)
                rows[u] ^= 1 << v
                flipped = Certificate(rule=cert.rule, kind=cert.kind,
                                      threshold=cert.threshold, rows=tuple(rows))
                assert flipped != cert and flipped.component != cert.component
    twins = [cert for kinds in six_spans(fresh(g)).values() for _, cert in kinds.values()]
    assert all(a is not b and a == b for a, b in zip(certs, twins))
    # the six differ in rule or kind, and each twin lands on its certificate
    assert len(set(certs)) == len(set(certs + twins)) == len(certs) == 6


def test_edge_good_refines_good():
    for g in random_graphs(10, 2, 5, seed=21):
        for rule in ("traditional", "active", "lazy"):
            p = build_product(g, rule)
            for k in range(3):
                s = safety_subgraph(p, k)
                good = set(good_components(s))
                edge_good = set(edge_good_components(s))
                assert edge_good <= good


def test_certificates_revalidate():
    for g in random_graphs(10, 2, 6, seed=13):
        for rule in ("traditional", "active", "lazy"):
            k, cert = vertex_span(g, rule)
            assert cert.rule == Rule(rule)
            assert cert.threshold == k
            s = safety_subgraph(build_product(g, rule), k)
            assert tuple(cert.component) in good_components(s)
            ke, certe = edge_span(g, rule)
            assert ke <= k <= ke + 1
            se = safety_subgraph(build_product(g, rule), ke)
            assert tuple(certe.component) in edge_good_components(se)


def test_span_bounded_by_radius():
    for g in random_graphs(10, 2, 7, seed=17):
        rad = int(metrics(g).radius)
        for rule in ("traditional", "active", "lazy"):
            assert 0 <= vertex_span(g, rule)[0] <= rad


def test_rule_spans_match_individual_calls():
    g = fixture("figure1")
    spans = six_spans(g)
    for rule in RULES:
        assert spans[rule][VERTEX] == vertex_span(g, rule)
        assert spans[rule][EDGE] == edge_span(g, rule)


def test_span_path_builds_no_product(monkeypatch):
    # the spans come from row floods: no product and no safety subgraph is
    # built for the six spans, by the inequality checker or by the span command
    import spanlab
    from spanlab.cli import main
    from spanlab.theorems import check_span_inequalities
    built = []

    def counting(fn):
        def wrapper(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapper

    assert not hasattr(spanlab.spans, "build_product")
    assert not hasattr(spanlab.spans, "safety_subgraph")
    for fn in (build_product, safety_subgraph):
        for mod in [m for name, m in sys.modules.items() if name.startswith("spanlab")]:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counting(fn))
    g = cycle_graph(5)
    six_spans(g)
    check_span_inequalities(g)
    assert main(["span", "--family", "cycle:5", "--rule", "all",
                 "--kind", "both", "--format", "json"]) == 0
    assert built == []


def test_rule_spans_match_the_descending_reference():
    # the row floods against a fresh safety subgraph and component scan
    # per threshold, certificate included
    graphs = (connected_atlas(7)
              + [path_graph(30), spine_tree(14, 6, 1), spine_tree(14, 4, 2)]
              + random_graphs(24, 8, 30, seed=5)
              + [random_interval_graph(n, seed=n) for n in range(8, 31, 2)])
    for g in graphs:
        for rule in RULES:
            base = build_product(g, rule)
            expected = {kind: descending_span(base, kind) for kind in KINDS}
            assert rule_spans(g, rule) == expected, (g.edges(), rule)


def test_rule_spans_match_the_reference_at_the_search_limits():
    # the binary search over levels 0 .. radius ends at the radius on
    # cycles, at 0 on K2 and P3 under the lazy rule, at 1 of 1 on complete
    # graphs and at 1 of 2 on K(3,5) under the lazy rule; interval graphs
    # with 30-40 vertices and random:60:0.1 flood dense rows
    cycles = [cycle_graph(n) for n in range(8, 17)]
    bottom = [complete_graph(2), path_graph(3)]
    complete = [complete_graph(n) for n in (8, 9, 10)]
    k35 = Graph(8, [(a, b) for a in range(3) for b in range(3, 8)])
    dense = [random_interval_graph(n, seed=n) for n in (30, 35, 40)]
    dense.append(generate_family("random:60:0.1"))
    for g in cycles + bottom + complete + [k35] + dense:
        for rule in RULES:
            base = build_product(g, rule)
            expected = {kind: descending_span(base, kind) for kind in KINDS}
            assert rule_spans(g, rule) == expected, (g.edges(), rule)
            k = expected["vertex"][0]
            if g in cycles and rule is not Rule.LAZY:
                assert k == metrics(g).radius
            if g in bottom and rule is Rule.LAZY:
                assert k == 0
            if g in complete:
                assert k == 1
            if g is k35:
                assert k == (1 if rule is Rule.LAZY else 2)


def test_edge_span_checks_the_theorem_at_two_levels(monkeypatch):
    # with every edge test failing, the edge search on C9 (vertex span 4)
    # floods levels 4 and 3 only, then names the paper's theorem
    from spanlab.spans import LevelScan
    monkeypatch.setattr(LevelScan, "covers_edges", lambda self, comp: False)
    g = cycle_graph(9)
    with pytest.raises(AssertionError, match="vertex and edge span differ by at most 1"):
        rule_spans(g, "traditional")
    assert sorted(level_scan(g, Rule.TRADITIONAL).levels) == [3, 4]


def test_unknown_span_kind_rejected_before_any_flood():
    for kinds in (("vrtex",), (VERTEX, "edges")):
        g = path_graph(4)
        with pytest.raises(ValueError, match=f"'{kinds[-1]}'.*'vertex', 'edge'"):
            rule_spans(g, "traditional", kinds)
        assert g._scans is None


def test_empty_graph_rejected():
    with pytest.raises(ValueError, match="^span needs at least one vertex$"):
        rule_spans(Graph(0), "traditional")
    with pytest.raises(ValueError, match="^span needs at least one vertex$"):
        edge_span(Graph(0), "lazy")


def test_disconnected_graph_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        vertex_span(g, "traditional")
    with pytest.raises(ValueError):
        edge_span(g, "lazy")
