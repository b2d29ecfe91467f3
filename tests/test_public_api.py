"""The package's public surface: what ``spanlab`` exports, the layer
functions that stay on their own modules, the README's quick start, the
result records, and what importing the CLI loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import caterpillar

import spanlab
import spanlab.families
import spanlab.graphs
import spanlab.oracle
import spanlab.products
import spanlab.spans
import spanlab.structure
import spanlab.theorems
import spanlab.walks
from spanlab import (RULES, CapacityError, Certificate, Check, ChordalityResult, CutSet,
                     CutSetCatalog, IntervalCertificate, Metrics, MinWalkResult, Rule,
                     WalkPair, WalkValidation, brute_force_span, check_span1_structure,
                     complete_graph, cycle_graph, fixture, generate_family, girth, metrics,
                     min_steps, minimal_cut_sets, parse_graph6, path_graph,
                     random_interval_graph, rule_spans)

PUBLIC = [
    "CapacityError", "Certificate", "Check", "ChordalityResult", "CutSet",
    "CutSetCatalog", "EDGE", "FIXTURES", "Graph", "GraphParseError",
    "INFINITY", "IntervalCertificate", "KINDS", "Metrics", "MinWalkResult",
    "RULES", "Rule", "SpanlabError", "VERTEX", "WalkPair", "WalkValidation",
    "as_rule", "augment", "brute_force_span", "check_interval_theorems",
    "check_span1_structure", "check_span_inequalities", "complete_graph",
    "components", "cycle_graph", "edge_span", "end_cliques",
    "find_asteroidal_triple", "fixture", "fresh_labels", "generate_family",
    "girth", "induced_subgraph", "interval_certificate", "is_chordal",
    "is_connected", "is_interval", "maximal_cliques", "metrics", "min_steps",
    "minimal_cut_sets", "parse_edgelist", "parse_graph6", "path_graph",
    "random_connected_graph", "random_interval_graph", "reroot_walk_pair",
    "rule_spans", "s_lobes", "star_graph", "subdivided_star", "to_graph6",
    "validate_walk_pair", "vertex_span",
]

# the per-threshold reference layer: not exported by the package, but kept
# on the modules that define or import it, where the tests read it and
# bench/tracing.py wraps it
REFERENCE_LAYER = {
    spanlab.products: ("ProductGraph", "build_product", "safety_subgraph"),
    spanlab.spans: ("product_components", "good_components", "edge_good_components"),
    spanlab.graphs: ("distance_matrix",),
    spanlab.walks: ("build_product", "shortest_covering_walk"),
}


def test_all_is_the_public_list():
    assert spanlab.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in spanlab.__all__:
        assert getattr(spanlab, name) is not None, name


def test_reference_layer_stays_on_its_modules():
    for module, names in REFERENCE_LAYER.items():
        for name in names:
            assert name not in spanlab.__all__
            assert callable(getattr(module, name)), (module.__name__, name)
    assert spanlab.walks.build_product is spanlab.products.build_product


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


_PAIR = WalkPair(alice=("0", "1"), bob=("1", "0"), rule=Rule.TRADITIONAL, safety=1, moves=1)
# each result record with its fields in order, and values for them
RECORDS = [
    (Metrics, {"ecc": (1, 1), "radius": 1, "diameter": 1}),
    (Certificate, {"rule": Rule.ACTIVE, "kind": "vertex", "threshold": 1, "rows": (2, 1)}),
    (ChordalityResult, {"chordal": True, "elimination_order": (1, 0), "chordless_cycle": None}),
    (IntervalCertificate, {"is_interval": False, "intervals": None,
                           "chordless_cycle": (0, 1, 2, 3), "asteroidal_triple": None}),
    (CutSet, {"vertices": (1,), "components": ((0,), (2,)), "is_clique": True}),
    (CutSetCatalog, {"sets": (CutSet((1,), ((0,), (2,)), True),)}),
    (Check, {"name": "gap[lazy]", "status": "holds", "witness": None}),
    (WalkPair, {"alice": ("0", "1"), "bob": ("1", "0"), "rule": Rule.TRADITIONAL,
                "safety": 1, "moves": 1}),
    (WalkValidation, {"illegal_steps": (), "missing_alice": (), "missing_bob": ("2",),
                      "safety": 1, "valid": False}),
    (MinWalkResult, {"span": 1, "pair": _PAIR, "product_walk": (1, 2), "distances": (1, 1)}),
]


def test_records_are_named_tuples_of_their_fields():
    # built by position or keyword, equal and hashed by their fields (also
    # to the plain tuple of them), unequal once any field differs, and no
    # field can be assigned
    for cls, fields in RECORDS:
        values = tuple(fields.values())
        rec = cls(*values)
        assert cls._fields == tuple(fields), cls
        assert rec == cls(**fields) == values, cls
        assert hash(rec) == hash(cls(**fields)) == hash(values), cls
        for i, name in enumerate(fields):
            assert getattr(rec, name) is rec[i] is values[i], (cls, name)
            assert cls(**{**fields, name: object()}) != rec, (cls, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, values[i])


def test_record_defaults_methods_and_properties():
    assert Check("gap[lazy]", "holds").witness is None
    assert Check("gap[lazy]", "holds") == Check("gap[lazy]", "holds", None)
    # the walk answer keeps its move count once, on its pair
    assert MinWalkResult(1, _PAIR, (1, 2), (1, 1)).moves == _PAIR.moves == 1
    assert _PAIR.as_dict() == {"alice": ["0", "1"], "bob": ["1", "0"], "rule": "traditional",
                               "safety": 1, "moves": 1}


@pytest.fixture
def ring_scans(monkeypatch):
    """The graphs the girth's ring scan runs on, in order."""
    calls = []
    rings = spanlab.graphs.distance_rings

    def counting(g):
        calls.append(g)
        return rings(g)

    monkeypatch.setattr(spanlab.graphs, "distance_rings", counting)
    return calls


def test_metrics_runs_no_ring_scan_and_each_girth_call_runs_one(ring_scans):
    g = cycle_graph(5)
    met = metrics(g)
    assert ring_scans == [] and not hasattr(met, "girth") and not hasattr(met, "graph")
    assert girth(g) == 5 and ring_scans == [g]
    assert girth(g) == 5 and ring_scans == [g, g]


def test_spans_and_walks_never_compute_the_girth(ring_scans):
    for g in (cycle_graph(5), fixture("figure1"), fixture("figure3")):
        for rule in RULES:
            rule_spans(g, rule)
            min_steps(g, rule)
    assert ring_scans == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a one-shot command pays for every module the CLI imports; the result
    # records are named tuples, so neither of these is among them
    src = str(Path(spanlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, spanlab.cli; "
         "sys.exit(', '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))) or None)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# every raise site of CapacityError, each tripped at a small patched limit:
# (module, constant, value in force, the call, spent, proven)
CAPACITY_STOPS = [
    # the walk search: below the n << n cover-table entries, the arcs of
    # the states entered plus n units per PlayerBound entry read (path:6 at
    # depth 5); from n << n on, those arcs alone, the table charged nothing
    # (the net, a triangle with a pendant vertex at each corner, n = 6: 9
    # moves, at depth 8)
    (spanlab.walks, "WALK_BUDGET", 50,
     lambda: min_steps(path_graph(6), "traditional"), 59, {"moves_at_least": 5}),
    (spanlab.walks, "WALK_BUDGET", 384,
     lambda: min_steps(parse_graph6("E@dW"), "traditional"), 389, {"moves_at_least": 8}),
    # K5 refused before the span: n(n - 1) = 20 units of bounds
    (spanlab.walks, "WALK_BUDGET", 20,
     lambda: min_steps(complete_graph(5), "traditional"), 20, {}),
    # P7's traditional vertex span needs exactly 460 moves generated
    (spanlab.oracle, "ORACLE_BUDGET", 459,
     lambda: brute_force_span(path_graph(7), "traditional", "vertex"), 460, {}),
    # P8 has 6 minimal separators
    (spanlab.structure, "SEPARATOR_BUDGET", 5, lambda: minimal_cut_sets(path_graph(8)), 6, {}),
    # 2 cuts x (9 x 2 - 2) lobe unions
    (spanlab.theorems, "LOBE_UNION_BUDGET", 10,
     lambda: check_span1_structure(caterpillar(8)), 32, {}),
    # one draw of 1,770 random numbers, or of 8 sampled endpoints
    (spanlab.families, "SAMPLE_BUDGET", 0,
     lambda: generate_family("random:60:0.01"), 1770, {"disconnected_draws": 1}),
    (spanlab.families, "SAMPLE_BUDGET", 0,
     lambda: random_interval_graph(4, 0), 8, {"disconnected_draws": 1}),
    (spanlab.families, "MAX_DRAWS", 3,
     lambda: generate_family("random:60:0.01"), 3, {"disconnected_draws": 3}),
]


@pytest.mark.parametrize("module, budget, limit, call, spent, proven", CAPACITY_STOPS)
def test_every_capacity_stop_reports_its_fields(monkeypatch, module, budget, limit, call,
                                                 spent, proven):
    monkeypatch.setattr(module, budget, limit)
    with pytest.raises(CapacityError) as exc:
        call()
    stop = exc.value
    assert (stop.budget, stop.limit, stop.spent, stop.proven) == (budget, limit, spent, proven)
    assert str(stop) == str(CapacityError(budget, limit, spent, **proven))
