"""Theorem harness: applicability gating, check outcomes, report shape."""

import pytest

from helpers import random_graphs
from spanlab import (Graph, Rule, build_product, check_interval_theorems,
                     check_span1_structure, check_span_inequalities, complete_graph,
                     cycle_graph, fixture, parse_graph6, path_graph, subdivided_star,
                     vertex_span)
from spanlab.theorems import HOLDS, NOT_APPLICABLE, VIOLATED, Check, TheoremReport


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
        # a traditional span handed in, as verify does, changes no report
        known = check_span_inequalities(g, name).traditional_span
        for checker in (check_span1_structure, check_interval_theorems):
            assert checker(g, name, known) == checker(g, name)


def test_report_shape():
    report = TheoremReport(graph_name="x", graph6="A_", checks=(
        Check("a", HOLDS), Check("b", VIOLATED, {"why": 1}),
        Check("c", NOT_APPLICABLE)))
    assert not report.ok
    assert [c.name for c in report.violations] == ["b"]
    assert report.violations[0].witness == {"why": 1}


def test_verify_computes_the_traditional_span_once(monkeypatch):
    # path:6 is an interval tree with span 1, so every checker needs its span
    import spanlab.spans
    from spanlab.cli import main
    g = path_graph(6)
    built = []

    def counting_build(h, rule):
        built.append((h.adj, rule))
        return build_product(h, rule)

    monkeypatch.setattr(spanlab.spans, "build_product", counting_build)
    assert main(["verify", "--family", "path:6", "--format", "json"]) == 0
    assert built.count((g.adj, Rule.TRADITIONAL)) == 1


def test_verify_calls_the_public_checkers(monkeypatch):
    import spanlab.cli
    calls = []

    def counting(checker):
        def wrapper(h, name="graph", traditional_span=None):
            calls.append((checker.__name__, traditional_span))
            return checker(h, name, traditional_span)
        return wrapper

    for checker in (check_span1_structure, check_interval_theorems):
        monkeypatch.setattr(spanlab.cli, checker.__name__, counting(checker))
    assert spanlab.cli.main(["verify", "--family", "path:6", "--format", "json"]) == 0
    # path:6 has traditional vertex span 1, handed on from the inequalities
    assert sorted(calls) == [("check_interval_theorems", 1), ("check_span1_structure", 1)]
