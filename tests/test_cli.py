"""Command-line behaviour: flows, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spanlab
from spanlab import (CapacityError, complete_graph, cycle_graph, fixture, generate_family,
                     parse_graph6, path_graph, random_connected_graph, random_interval_graph,
                     star_graph, subdivided_star, to_graph6)
from spanlab.cli import main
from spanlab.families import seed_ignored
from spanlab.theorems import VIOLATED, Check


@pytest.fixture
def subprocess_path(monkeypatch):
    """Subprocesses import the spanlab these tests import."""
    src = str(Path(spanlab.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_span_text_output(capsys):
    code, out, _ = run(capsys, "span", "--fixture", "figure1",
                       "--rule", "traditional")
    assert code == 0
    assert "traditional: vertex=2  edge=1" in out


def test_span_all_rules_json(capsys):
    code, out, _ = run(capsys, "span", "--fixture", "figure1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tool", "version", "graph", "results"}
    assert doc["tool"] == "spanlab"
    assert doc["graph"]["n"] == 6
    spans = doc["results"]["spans"]
    assert spans["traditional"] == {"vertex": 2, "edge": 1}
    assert set(spans) == {"traditional", "active", "lazy"}


def test_span_kind_filter(capsys):
    code, out, _ = run(capsys, "span", "--family", "cycle:4",
                       "--kind", "vertex", "--format", "json")
    assert code == 0
    spans = json.loads(out)["results"]["spans"]
    assert all(set(v) == {"vertex"} for v in spans.values())


def test_minwalk_json_walks_and_distances(capsys):
    code, out, _ = run(capsys, "minwalk", "--family", "cycle:4",
                       "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["span"] == 2
    assert res["moves"] == 3
    assert res["alice"] == ["0", "1", "2", "3"]
    assert res["bob"] == ["2", "3", "0", "1"]
    assert res["distances"] == [2, 2, 2, 2]


def test_minwalk_text_table(capsys):
    code, out, _ = run(capsys, "minwalk", "--family", "complete:2")
    assert code == 0
    assert "span: 1" in out
    assert "moves: 1" in out
    assert "distance" in out


def test_minwalk_text_rows_match_the_json(capsys):
    # figure3's labels are 1..8, not its vertex indices 0..7
    for rule in ("traditional", "active", "lazy"):
        code, text, _ = run(capsys, "minwalk", "--fixture", "figure3", "--rule", rule)
        assert code == 0
        code, out, _ = run(capsys, "minwalk", "--fixture", "figure3", "--rule", rule,
                           "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert set(res["alice"] + res["bob"]) == {str(v) for v in range(1, 9)}
        lines = text.splitlines()
        assert lines[1:4] == [f"rule: {rule}", f"span: {res['span']}", f"moves: {res['moves']}"]
        assert [row.split() for row in lines[5:]] == [
            [str(i), a, b, str(d)]
            for i, (a, b, d) in enumerate(zip(res["alice"], res["bob"], res["distances"]))]
        assert res["safety"] == min(res["distances"])


def test_analyze_text_lines_match_the_json(capsys):
    witnesses = {("--fixture", "figure2"): "chordless cycle 0-1-2-3",
                 ("--family", "subdivided_star:3"): "asteroidal triple 2, 4, 6",
                 ("--family", "path:6", "--cap", "6"): None,
                 ("--family", "random:12:0.3:2"): "chordless cycle 1-2-3-10"}
    for argv, witness in witnesses.items():
        code, text, _ = run(capsys, "analyze", *argv)
        assert code == 0
        code, out, _ = run(capsys, "analyze", *argv, "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        iv = res["interval"]
        if witness is None:
            head = ["interval: yes"] + [f"  {v}: [{l}, {r}]"
                                        for v, (l, r) in iv["intervals"].items()]
        else:
            cycle, triple = iv.get("chordless_cycle"), iv.get("asteroidal_triple")
            assert witness == (f"chordless cycle {'-'.join(cycle)}" if cycle
                               else f"asteroidal triple {', '.join(triple)}")
            head = [f"interval: no  ({witness})"]
        cuts = [f"  {{{','.join(c['vertices'])}}}  "
                + ("clique" if c["is_clique"] else "not a clique") + "  components: "
                + " / ".join("{" + ",".join(comp) + "}" for comp in c["components"])
                for c in res["cut_sets"]]
        assert cuts, argv
        count = f"minimal cut sets (size <= 4): {len(cuts)}"
        assert text.splitlines()[2:] == head + [count] + cuts, argv


def test_analyze_flow(capsys):
    code, out, _ = run(capsys, "analyze", "--fixture", "figure2",
                       "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["metrics"] == {"radius": 2, "diameter": 3, "girth": 3}
    assert res["interval"]["is_interval"] is False
    assert res["interval"]["chordless_cycle"] == ["0", "1", "2", "3"]
    assert {"vertices": ["4"], "is_clique": True,
            "components": [["0", "1", "2", "3"], ["5", "6", "7"]]} in res["cut_sets"]


def test_analyze_interval_representation(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "path:4")
    assert code == 0
    assert "interval: yes" in out
    assert "girth=acyclic" in out


def test_analyze_cap_limits_the_interval_representation(capsys):
    # no vertex cap limits the representation: path:15 answers with all 15
    # intervals, and --cap, still parsed for old callers, is hidden and
    # changes nothing, whatever its value
    code, out, err = run(capsys, "analyze", "--family", "path:15")
    assert (code, err) == (0, "")
    assert "interval: yes" in out
    code, doc, _ = run(capsys, "analyze", "--family", "path:15", "--format", "json")
    assert code == 0
    assert len(json.loads(doc)["results"]["interval"]["intervals"]) == 15
    for cap in ("5", "0", "15"):
        assert run(capsys, "analyze", "--family", "path:15", "--cap", cap) == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--cap" not in capsys.readouterr().out


def test_verify_single_fixture(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "figure3")
    assert code == 0
    assert "violations: 0" in out


def test_verify_seeded_family_json(capsys):
    code, out, _ = run(capsys, "verify", "--family", "random:6",
                       "--seeds", "4", "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["graphs"] == 4
    assert res["violations"] == []
    assert res["checks"] > 0


def test_analyze_size_cap_is_never_negative(capsys, tmp_path):
    # n - 2 is negative below two vertices: the cap reads 0, and there are no cuts
    path = tmp_path / "empty.g6"
    path.write_text("?\n")
    for source in (["--family", "path:1"], ["--file", str(path)]):
        code, out, _ = run(capsys, "analyze", *source)
        assert code == 0
        assert "minimal cut sets (size <= 0): 0" in out.splitlines()


def test_verify_seeds_need_a_family(capsys):
    for source in (["--fixture", "figure1"], ["--file", "unused.g6"]):
        code, out, err = run(capsys, "verify", *source, "--seeds", "5")
        assert (code, out) == (2, "")
        assert "--seeds needs --family" in err
    # a spec that reads no seed names one graph, which --seeds would count N times
    for spec, why in (("path:6", "path has no seed"), ("fixture:figure1", "fixture has no seed"),
                      ("random:8:0.4:7", "'random:8:0.4:7' embeds seed 7")):
        code, out, err = run(capsys, "verify", "--family", spec, "--seeds", "3")
        assert (code, out) == (2, "")
        assert f"--seeds needs a family spec that reads the seed: {why}" in err


def test_an_unread_seed_is_a_usage_error(capsys):
    # an explicit --seed that names no other graph is refused, not ignored
    for argv, why in ((["span", "--family", "path:6"], "path has no seed"),
                      (["generate", "--family", "random:8:0.4:7"],
                       "'random:8:0.4:7' embeds seed 7"),
                      (["minwalk", "--family", "fixture:figure1"], "fixture has no seed"),
                      (["verify", "--family", "path:6"], "path has no seed")):
        code, out, err = run(capsys, *argv, "--seed", "3")
        assert (code, out) == (2, ""), argv
        assert f"--seed needs a family spec that reads the seed: {why}" in err
    for source in (["--fixture", "figure1"], ["--file", "unused.g6"]):
        code, out, err = run(capsys, "span", *source, "--seed", "3")
        assert (code, out) == (2, "")
        assert "--seed needs --family" in err
    # a spec that reads the seed takes it, and verify --seeds starts there
    code, out, _ = run(capsys, "generate", "--family", "random:8:0.4", "--seed", "3")
    assert (code, out) == (0, run(capsys, "generate", "--family", "random:8:0.4:3")[1])
    code, out, _ = run(capsys, "span", "--family", "random:7", "--seed", "4")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--family", "random:8", "--seeds", "3",
                       "--seed", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["graph"] == {"family": "random:8", "seed": 5, "seeds": 3}
    code, out, _ = run(capsys, "verify", "--family", "random:8", "--seeds", "3",
                       "--format", "json")
    assert json.loads(out)["graph"]["seed"] == 0


def test_verify_counts_checks_skipped_by_a_size_cap(capsys):
    # interval:14 is over the interval cap of 12 vertices: both augmentation
    # checks are skipped, and still counted as not applicable
    code, out, _ = run(capsys, "verify", "--family", "interval:14", "--format", "json")
    res = json.loads(out)["results"]
    assert (code, res["checks"], res["not_applicable"], res["skipped_by_cap"]) == (0, 11, 6, 2)
    code, out, _ = run(capsys, "verify", "--family", "interval:14")
    assert "checks run: 11 (not applicable: 6, skipped by a cap: 2)" in out
    code, out, _ = run(capsys, "verify", "--family", "interval:12", "--format", "json")
    res = json.loads(out)["results"]
    assert (code, res["checks"], res["not_applicable"], res["skipped_by_cap"]) == (0, 13, 4, 0)


def test_verify_reports_violations_with_exit_1(capsys, monkeypatch):
    # the published theorems hold on real graphs, so a violation has to be
    # injected to exercise the failure path
    def fake_check(g):
        return (Check("chain[fake]", VIOLATED, {"edge": 9}),)

    monkeypatch.setattr("spanlab.cli.check_span_inequalities", fake_check)
    code, out, _ = run(capsys, "verify", "--fixture", "figure1")
    assert code == 1
    assert "violations: 1" in out
    assert "chain[fake]" in out
    # verify names and encodes the violating graph itself
    code, out, _ = run(capsys, "verify", "--fixture", "figure1", "--format", "json")
    assert code == 1
    assert json.loads(out)["results"]["violations"] == [
        {"graph": "figure1", "graph6": to_graph6(fixture("figure1")), "check": "chain[fake]",
         "witness": {"edge": 9}}]
    code, out, _ = run(capsys, "verify", "--family", "random:6", "--seeds", "2",
                       "--format", "json")
    assert code == 1
    first, second = json.loads(out)["results"]["violations"]
    assert first == {"graph": "random:6 seed=0",
                     "graph6": to_graph6(generate_family("random:6", seed=0)),
                     "check": "chain[fake]", "witness": {"edge": 9}}
    assert second["graph"] == "random:6 seed=1"
    assert second["graph6"] == to_graph6(generate_family("random:6", seed=1))


def test_generate_round_trip(capsys):
    code, out, _ = run(capsys, "generate", "--family", "cycle:5")
    assert code == 0
    assert parse_graph6(out.strip()).adj == cycle_graph(5).adj


def test_json_outputs_are_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--family", "random:6",
                           "--seeds", "3", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "span", "--family", "random:7", "--seed", "4",
                        "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_every_command_wraps_its_results_in_one_envelope(capsys):
    for argv in (["span", "--fixture", "figure1"],
                 ["minwalk", "--family", "cycle:4"],
                 ["analyze", "--fixture", "figure2"],
                 ["verify", "--fixture", "figure3"],
                 ["generate", "--family", "cycle:5"],
                 ["verify", "--family", "random:6", "--seeds", "3"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert (code, set(doc)) == (0, {"tool", "version", "graph", "results"}), argv
        assert (doc["tool"], doc["version"]) == ("spanlab", spanlab.__version__)
    # the seeded family run describes the family, not one graph
    assert doc["graph"] == {"family": "random:6", "seed": 0, "seeds": 3}


def test_json_outputs_are_byte_identical_across_processes(monkeypatch, subprocess_path):
    # string hashing is salted per process: set iteration order must not
    # reach the output
    for argv in (["span", "--family", "random:9:0.4:2"],
                 ["minwalk", "--fixture", "figure1", "--rule", "lazy"],
                 ["analyze", "--fixture", "figure3"],
                 ["verify", "--family", "interval:8", "--seeds", "3"],
                 ["generate", "--family", "random:10", "--seed", "1"]):
        outputs = []
        for hash_seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
            proc = subprocess.run([sys.executable, "-m", "spanlab", *argv, "--format", "json"],
                                  capture_output=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b""), argv
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


def test_file_inputs_both_formats(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text("C~\n")
    code, out, _ = run(capsys, "span", "--file", str(g6), "--rule",
                       "traditional", "--format", "json")
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 4

    el = tmp_path / "g.edges"
    el.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run(capsys, "span", "--file", str(el), "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["spans"]["traditional"]["vertex"] == 2

    # the format is read off the first non-blank line
    for text, graph in ((">>graph6<<C~\n", complete_graph(4)),
                        ("\n\n0 1\n1 2\n2 3\n3 0\n", cycle_graph(4)),
                        ("0 1\n", path_graph(2))):
        f = tmp_path / "sniffed"
        f.write_text(text)
        code, out, _ = run(capsys, "generate", "--file", str(f))
        assert (code, parse_graph6(out.strip())) == (0, graph), text


def test_exit_2_on_unknown_fixture(capsys):
    code, _, err = run(capsys, "span", "--fixture", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_exit_2_on_bad_family(capsys):
    assert run(capsys, "span", "--family", "blob:3")[0] == 2
    assert run(capsys, "span", "--family", "path:x")[0] == 2


def test_exit_2_on_extra_family_fields(capsys):
    # a field past the family's form is refused, naming the form, rather
    # than dropped
    cases = {("span", "path:5:9"): "path spec is path:N",
             ("generate", "interval:6:1:7"): "interval spec is interval:N[:SEED]",
             ("span", "random:8:0.4:7:1"): "random spec is random:N[:P[:SEED]]",
             ("span", "subdivided-star:3:1"): "subdivided_star spec is subdivided_star:RAYS",
             ("generate", "fixture:figure1:x"): "fixture spec is fixture:NAME"}
    for (command, spec), form in cases.items():
        code, out, err = run(capsys, command, "--family", spec)
        assert (code, out) == (2, ""), spec
        assert f"{form}, got '{spec}'" in err, err
    # the longest forms still answer
    assert run(capsys, "generate", "--family", "interval:6:1")[0] == 0
    assert run(capsys, "generate", "--family", "random:8:0.4:7")[0] == 0


def test_bad_family_field_messages(capsys):
    assert run(capsys, "span", "--family", "path:abc")[2].strip() == (
        "spanlab: error: family 'path': bad vertex count 'abc'")
    # each field kind names itself, and the first bad field is the one reported
    for spec, message in (("star:q", "family 'star': bad leaf count 'q'"),
                          ("subdivided-star:z", "family 'subdivided_star': bad ray count 'z'"),
                          ("random:8:x", "family 'random': bad probability 'x'"),
                          ("random_connected:8:x:y",
                           "family 'random_connected': bad probability 'x'"),
                          ("random:8:0.4:y", "family 'random': bad seed 'y'"),
                          ("random_interval:9:y", "family 'random_interval': bad seed 'y'"),
                          ("interval:x:y", "family 'interval': bad vertex count 'x'")):
        code, out, err = run(capsys, "span", "--family", spec)
        assert (code, out, err) == (2, "", f"spanlab: error: {message}\n"), spec
    assert run(capsys, "span", "--family", "star")[2].strip() == (
        "spanlab: error: star spec is star:LEAVES, got 'star'")


# every family and alias at its shortest and longest form, with the graph
# its builder makes at seed 3
FAMILY_SPECS = (
    ("fixture:figure1", fixture("figure1")),
    ("path:5", path_graph(5)),
    ("cycle:6", cycle_graph(6)),
    ("complete:4", complete_graph(4)),
    ("star:3", star_graph(3)),
    ("subdivided-star:4", subdivided_star(4)),
    ("subdivided_star:4", subdivided_star(4)),
    ("random:8", random_connected_graph(8, 0.5, 3)),
    ("random:8:0.5:3", random_connected_graph(8, 0.5, 3)),
    ("random:8:0.4", random_connected_graph(8, 0.4, 3)),
    ("random_connected:8", random_connected_graph(8, 0.5, 3)),
    ("random_connected:8:0.4:7", random_connected_graph(8, 0.4, 7)),
    ("interval:9", random_interval_graph(9, 3)),
    ("interval:9:2", random_interval_graph(9, 2)),
    ("random_interval:9", random_interval_graph(9, 3)),
    ("random_interval:9:2", random_interval_graph(9, 2)),
)


def test_family_specs_build_what_their_builders_build():
    for spec, graph in FAMILY_SPECS:
        assert generate_family(spec, seed=3) == graph, spec
    # a left-out seed is 0 without the seed argument, and a spec's seed wins
    assert generate_family("random:8") == random_connected_graph(8, 0.5, 0)
    assert generate_family("interval:9") == random_interval_graph(9, 0)
    assert generate_family("random:8:0.5:3", seed=9) == random_connected_graph(8, 0.5, 3)
    assert generate_family("interval:9:2", seed=9) == random_interval_graph(9, 2)


def test_seed_ignored_exactly_when_the_seed_is_not_read():
    for spec, _ in FAMILY_SPECS:
        reads_seed = any(generate_family(spec, seed=s) != generate_family(spec, seed=0)
                         for s in range(1, 4))
        assert (seed_ignored(spec) is None) == reads_seed, spec


def test_exit_2_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("D\n")
    assert run(capsys, "span", "--file", str(bad))[0] == 2
    missing = tmp_path / "missing.g6"
    assert run(capsys, "span", "--file", str(missing))[0] == 2
    empty = tmp_path / "empty.edges"
    empty.write_text("\n  \n")
    assert run(capsys, "span", "--file", str(empty)) == (
        2, "", f"spanlab: error: empty graph file {str(empty)!r}\n")


def test_exit_2_on_disconnected_input(tmp_path, capsys):
    f = tmp_path / "disc.edges"
    f.write_text("0 1\n2 3\n")
    assert run(capsys, "span", "--file", str(f))[0] == 2


def test_analyze_rejects_a_disconnected_graph_first(tmp_path, capsys):
    # two disjoint 10-vertex paths: over the interval cap of 12 vertices, but
    # the graph is refused as disconnected before any certificate is built
    f = tmp_path / "two-paths.edges"
    f.write_text("".join(f"{v} {v + 1}\n" for v in (*range(9), *range(10, 19))))
    code, out, err = run(capsys, "analyze", "--file", str(f))
    assert (code, out) == (2, "")
    assert err == "spanlab: error: analyze is defined for connected graphs only\n"


def test_out_of_range_family_specs_exit_2(capsys):
    for spec, why in (("path:0", "path needs at least one vertex"),
                      ("cycle:2", "cycle needs at least three vertices"),
                      ("complete:0", "complete graph needs at least one vertex"),
                      ("star:-1", "leaf count must be non-negative"),
                      ("subdivided-star:-1", "ray count must be non-negative"),
                      ("random:0", "need at least one vertex"),
                      ("random:5:1.5", "edge probability must lie in [0, 1]"),
                      ("interval:0", "need at least one vertex")):
        code, out, err = run(capsys, "generate", "--family", spec)
        assert (code, out, err) == (2, "", f"spanlab: error: {why}\n"), spec
    code, out, err = run(capsys, "verify", "--family", "random:8", "--seeds", "0")
    assert (code, out, err) == (2, "", "spanlab: error: --seeds must be at least 1\n")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["span"])  # no input source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["span", "--fixture", "figure1", "--family", "path:3"])
    assert exc.value.code == 2


def test_cap_only_on_commands_that_read_it(capsys):
    # only analyze still parses --cap, which it ignores; every search has a
    # work budget instead
    for command in ("span", "minwalk", "verify", "generate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fixture", "figure1", "--cap", "3"])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err
    assert run(capsys, "analyze", "--fixture", "figure1", "--cap", "6")[0] == 0


def stopped(budget, limit, spent, **proven) -> str:
    """The stderr of an exit 3 at these fields."""
    return f"spanlab: capacity: {CapacityError(budget, limit, spent, **proven)}\n"


def test_exit_3_on_capacity(capsys, monkeypatch):
    # figure3 (n = 8) reads its 2,048-entry cover table at this budget and
    # stops one move short of its 9
    monkeypatch.setattr(spanlab.walks, "WALK_BUDGET", 2048)
    code, out, err = run(capsys, "minwalk", "--fixture", "figure3")
    assert (code, out) == (3, "")
    assert err == stopped("WALK_BUDGET", 2048, 2053, moves_at_least=8)
    monkeypatch.undo()
    # the search on interval:200:1 (630M arcs at threshold 0) ends at the
    # work budget, having generated the moves of the pairs it entered only
    start = time.perf_counter()
    code, out, err = run(capsys, "minwalk", "--family", "interval:200:1")
    assert (code, out) == (3, "")
    assert err == stopped("WALK_BUDGET", 3_000_000, 3_002_251, moves_at_least=199)
    assert time.perf_counter() - start < 10
    # at n = 2,000, n(n - 1) passes the budget: refused before the span
    start = time.perf_counter()
    code, out, err = run(capsys, "minwalk", "--family", "path:2000")
    assert (code, out) == (3, "")
    assert err == stopped("WALK_BUDGET", 3_000_000, 2000 * 1999)
    assert time.perf_counter() - start < 1


def test_hopeless_random_family_fails_fast_with_exit_3(capsys):
    # G(60, 0.01) is almost never connected; the sampler's work budget ends
    # the search after about a second
    start = time.perf_counter()
    code, _, err = run(capsys, "generate", "--family", "random:60:0.01")
    assert code == 3
    # 564 draws of 1,770 random numbers each
    assert err == stopped("SAMPLE_BUDGET", 1_000_000, 564 * 1770, disconnected_draws=564)
    assert time.perf_counter() - start < 20


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spanlab", "span", "--fixture", "figure1",
         "--rule", "traditional"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "vertex=2" in proc.stdout


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch, subprocess_path):
    # the parser is built once per process; each call through it must print
    # and exit exactly as a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["span"],
        ["--help"],
        ["minwalk", "--help"],
        ["span", "--fixture", "figure1"],
        ["analyze", "--fixture", "figure1", "--cap", "6", "--format", "json"],
        ["minwalk", "--family", "interval:200:1"],
        ["analyze", "--fixture", "figure2"],
        ["verify", "--fixture", "figure3", "--format", "json"],
        ["generate", "--family", "interval:10", "--seed", "3"],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "spanlab", *argv],
                              capture_output=True, text=True)
        assert (code, out.out, out.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 0, 3, 0, 0, 0]


def test_stdout_closed_early_keeps_the_exit_code(subprocess_path):
    # a reader that stops reading (`| head -c 1`) or never reads is no usage
    # error: the command exits 0 and writes nothing to stderr
    for argv, read in ((["generate", "--family", "path:2000"], 1),
                       (["span", "--family", "path:60"], 0),
                       (["verify", "--family", "path:8", "--format", "json"], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "spanlab", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b""), argv
