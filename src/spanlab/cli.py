"""Command-line surface.

Subcommands: span (all six span values), minwalk (shortest optimal walk
pair), analyze (metrics, interval certificate, cut sets), verify (theorem
checks), generate (emit graph6); ``_COMMANDS`` lists them.  Exit codes: 0
success, 1 a theorem check was violated, 2 usage or parse error, 3 a work
budget was hit.  Every JSON document is the envelope ``emit`` builds: tool,
version, graph and results.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .errors import CapacityError, GraphParseError
from .families import FAMILIES, FIXTURES, fixture, generate_family, seed_ignored
from .graphs import (INFINITY, Graph, girth, is_connected, metrics, parse_edgelist, parse_graph6,
                     to_graph6)
from .products import KINDS, RULES, as_rule
from .spans import rule_spans
from .structure import interval_certificate, minimal_cut_sets
from .theorems import (NOT_APPLICABLE, SKIPPED_BY_CAP, VIOLATED, check_interval_theorems,
                       check_span1_structure, check_span_inequalities)
from .walks import min_steps

CUT_CAP = 4    # the largest minimal cut set analyze lists


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it,
    so callers must not change it; ``parse_args`` keeps no state between
    calls."""
    ap = argparse.ArgumentParser(
        prog="spanlab",
        description="Span values, optimal walk pairs, and structure checks "
                    "for connected graphs.")
    sub = ap.add_subparsers(dest="command", required=True)
    p = {}
    for name, (help_line, _) in _COMMANDS.items():
        p[name] = sub.add_parser(name, help=help_line)
        src = p[name].add_mutually_exclusive_group(required=True)
        src.add_argument("--fixture", metavar="NAME",
                         help="built-in graph: " + ", ".join(sorted(FIXTURES)))
        src.add_argument("--family", metavar="SPEC", help="generated graph: " + ", ".join(
            f"{family}:{form}" for family, (_, form) in FAMILIES.items()))
        src.add_argument("--file", metavar="PATH", help="graph6 or edge-list file")
        p[name].add_argument("--format", choices=("text", "json"), default="text",
                             help="output format (default text)")
        p[name].add_argument("--seed", type=int,
                             help="seed for a --family spec that reads one (default 0)")
    rules = tuple(rule.value for rule in RULES)
    p["span"].add_argument("--rule", choices=(*rules, "all"), default="all",
                           help="movement rule (default all)")
    p["span"].add_argument("--kind", choices=(*KINDS, "both"), default="both",
                           help="cover kind (default both)")
    p["minwalk"].add_argument("--rule", choices=rules,
                              default="traditional", help="movement rule (default traditional)")
    # parsed and ignored: the benchmark's analyze jobs still pass it
    p["analyze"].add_argument("--cap", type=int, help=argparse.SUPPRESS)
    p["verify"].add_argument("--seeds", type=int, default=1,
                             help="check this many seeded instances of a --family spec")
    return ap


def _load_file(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = [ln for ln in text.splitlines() if ln.strip()]
    if not stripped:
        raise GraphParseError(f"empty graph file {path!r}")
    # edge-list lines contain whitespace between endpoints; graph6 never does
    return (parse_edgelist if len(stripped[0].split()) > 1 else parse_graph6)(text)


def _check_seeded(args: argparse.Namespace, flag: str) -> None:
    """Refuse ``flag`` unless the graph source is a family spec that reads
    the seed: elsewhere the flag would name the same graph."""
    if args.family is None:
        raise ValueError(f"{flag} needs --family")
    if why := seed_ignored(args.family):
        raise ValueError(f"{flag} needs a family spec that reads the seed: {why}")


def load_graph(args: argparse.Namespace) -> tuple[str, Graph]:
    if args.seed is not None:
        _check_seeded(args, "--seed")
    if args.fixture is not None:
        return args.fixture, fixture(args.fixture)
    if args.family is not None:
        return args.family, generate_family(args.family, seed=args.seed)
    return args.file, _load_file(args.file)


def describe(name: str, g: Graph) -> dict:
    return {"name": name, "n": g.n, "m": g.m,
            "graph6": to_graph6(g), "labels": list(g.labels)}


def emit(args: argparse.Namespace, graph: dict, results: dict, lines: list[str]) -> None:
    """Write a command's output: ``lines`` as text, or the JSON envelope of
    ``graph`` and ``results``.  A reader that closes the pipe early (as
    ``head`` does) drops the rest of it, and the command keeps its exit
    code: stdout is pointed at the null device, so that the flush at exit
    does not fail again."""
    doc = {"tool": "spanlab", "version": __version__, "graph": graph, "results": results}
    try:
        print(json.dumps(doc, indent=2, sort_keys=True) if args.format == "json"
              else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _finite(x: float) -> int | None:
    return None if x == INFINITY else int(x)


def cmd_span(args: argparse.Namespace) -> int:
    name, g = load_graph(args)
    rules = RULES if args.rule == "all" else (as_rule(args.rule),)
    kinds = KINDS if args.kind == "both" else (args.kind,)
    values: dict[str, dict[str, int]] = {}
    for rule in rules:
        values[rule.value] = {kind: k for kind, (k, _) in rule_spans(g, rule, kinds).items()}
    lines = [f"graph: {name}  n={g.n} m={g.m}"]
    for rule in rules:
        cells = "  ".join(f"{kind}={values[rule.value][kind]}" for kind in kinds)
        lines.append(f"{rule.value}: {cells}")
    emit(args, describe(name, g), {"spans": values}, lines)
    return 0


def cmd_minwalk(args: argparse.Namespace) -> int:
    name, g = load_graph(args)
    result = min_steps(g, args.rule)
    pair = result.pair
    width = max(5, max(len(a) for a in pair.alice + pair.bob))
    lines = [f"graph: {name}  n={g.n} m={g.m}",
             f"rule: {pair.rule.value}",
             f"span: {result.span}",
             f"moves: {result.moves}",
             f"{'step':>4}  {'alice':>{width}}  {'bob':>{width}}  distance"]
    for i, (a, b, d) in enumerate(zip(pair.alice, pair.bob, result.distances)):
        lines.append(f"{i:>4}  {a:>{width}}  {b:>{width}}  {d:>8}")
    emit(args, describe(name, g),
         {**pair.as_dict(), "span": result.span, "distances": result.distances}, lines)
    return 0


def _label_all(g: Graph, vs) -> list[str]:
    return [g.labels[v] for v in vs]


def cmd_analyze(args: argparse.Namespace) -> int:
    name, g = load_graph(args)
    if not is_connected(g):
        raise ValueError("analyze is defined for connected graphs only")
    met = metrics(g)
    cert = interval_certificate(g)
    size_cap = max(min(CUT_CAP, g.n - 2), 0)
    interval_doc: dict = {"is_interval": cert.is_interval}
    if cert.intervals is not None:
        interval_doc["intervals"] = {g.labels[v]: list(iv)
                                     for v, iv in enumerate(cert.intervals)}
    if cert.chordless_cycle is not None:
        interval_doc["chordless_cycle"] = _label_all(g, cert.chordless_cycle)
    if cert.asteroidal_triple is not None:
        interval_doc["asteroidal_triple"] = _label_all(g, cert.asteroidal_triple)
    cuts_doc = [{"vertices": _label_all(g, c.vertices),
                 "is_clique": c.is_clique,
                 "components": [_label_all(g, comp) for comp in c.components]}
                for c in minimal_cut_sets(g).sets if len(c.vertices) <= size_cap]
    shortest_cycle = girth(g)
    girth_text = "acyclic" if shortest_cycle == INFINITY else str(int(shortest_cycle))
    lines = [f"graph: {name}  n={g.n} m={g.m}",
             f"radius={_finite(met.radius)} diameter={_finite(met.diameter)} "
             f"girth={girth_text}"]
    if cert.is_interval:
        lines.append("interval: yes")
        lines += [f"  {v}: [{l}, {r}]" for v, (l, r) in interval_doc["intervals"].items()]
    elif "chordless_cycle" in interval_doc:
        lines.append("interval: no  (chordless cycle "
                     + "-".join(interval_doc["chordless_cycle"]) + ")")
    else:
        lines.append("interval: no  (asteroidal triple "
                     + ", ".join(interval_doc["asteroidal_triple"]) + ")")
    lines.append(f"minimal cut sets (size <= {size_cap}): {len(cuts_doc)}")
    for c in cuts_doc:
        comps = " / ".join("{" + ",".join(comp) + "}" for comp in c["components"])
        flag = "clique" if c["is_clique"] else "not a clique"
        lines.append("  {" + ",".join(c["vertices"]) + "}  " + flag + "  components: " + comps)
    emit(args, describe(name, g),
         {"metrics": {"radius": _finite(met.radius), "diameter": _finite(met.diameter),
                      "girth": _finite(shortest_cycle)},
          "interval": interval_doc, "cut_sets": cuts_doc}, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if args.seeds > 1:
        _check_seeded(args, "--seeds")
    first_seed = args.seed or 0
    runs = ([(f"{args.family} seed={s}", generate_family(args.family, seed=s))
             for s in range(first_seed, first_seed + args.seeds)]
            if args.seeds > 1 else [load_graph(args)])
    checks_run = 0
    # checks that did not run; capped counts those a size cap skipped
    skipped = 0
    capped = 0
    violations = []
    checkers = (check_span_inequalities, check_span1_structure, check_interval_theorems)
    for name, g in runs:
        # one graph object for all three checkers: they share its level scans
        for report in (checker(g, name) for checker in checkers):
            for check in report.checks:
                if check.status in (NOT_APPLICABLE, SKIPPED_BY_CAP):
                    skipped += 1
                    capped += check.status == SKIPPED_BY_CAP
                    continue
                checks_run += 1
                if check.status == VIOLATED:
                    violations.append({"graph": report.graph_name,
                                       "graph6": report.graph6,
                                       "check": check.name,
                                       "witness": check.witness or {}})
    first_name, first_graph = runs[0]
    graph_doc = (describe(first_name, first_graph) if len(runs) == 1
                 else {"family": args.family, "seed": first_seed,
                       "seeds": args.seeds})
    lines = [f"graphs checked: {len(runs)}",
             f"checks run: {checks_run} (not applicable: {skipped}, "
             f"skipped by a cap: {capped})",
             f"violations: {len(violations)}"]
    for v in violations:
        lines.append(f"  VIOLATED {v['check']} on {v['graph']} "
                     f"(graph6 {v['graph6']}): {v['witness']}")
    emit(args, graph_doc, {"graphs": len(runs), "checks": checks_run, "not_applicable": skipped,
                           "skipped_by_cap": capped, "violations": violations}, lines)
    return 1 if violations else 0


def cmd_generate(args: argparse.Namespace) -> int:
    name, g = load_graph(args)
    g6 = to_graph6(g)
    emit(args, describe(name, g), {"graph6": g6}, [g6])
    return 0


# each subcommand's help line and handler, in the order the help lists them
_COMMANDS = {
    "span": ("compute span values of a graph", cmd_span),
    "minwalk": ("shortest optimal walk pair", cmd_minwalk),
    "analyze": ("metrics, interval certificate, minimal cut sets", cmd_analyze),
    "verify": ("run theorem checks against a graph", cmd_verify),
    "generate": ("emit the chosen graph as graph6", cmd_generate),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The parser is built once
    per process, on the first call, so later in-process calls pay only for
    parsing their arguments."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except CapacityError as exc:
        print(f"spanlab: capacity: {exc}", file=sys.stderr)
        return 3
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"spanlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
