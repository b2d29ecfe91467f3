"""Inputs, jobs and answer checks for the four benchmark workloads.

Every input graph is made in set-up from the workload seed and handed to
spanlab only as a graph6 file or string.  Each job parses its own graph, so
no ``Graph`` object (and no cached distance matrix) is shared between jobs.

Why the seed mostly relabels: the searches measured here are exponential,
and their cost differs by 10x or more between random instances of one size
(a single span-1 random graph on 8 vertices takes 5-30 s in ``minwalk``).
A seed that drew fresh instances would move a batch's cost by far more than
any bound worth having.  So the heavy classes use fixed shapes and the seed
draws a random vertex labelling of each; the breadth-first searches do the
same amount of work on every labelling, while the walks, certificates and
graph6 strings they produce change with it.  Only the classes whose cost is
steady from instance to instance (random graphs for ``analyze``, interval
graphs for ``verify``) draw fresh instances from the seed.
"""

from __future__ import annotations

import io
import json
import random
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

WORKLOADS = ("span-sweep", "minwalk", "crosscheck", "structure")
RULES = ("traditional", "active", "lazy")
KINDS = ("vertex", "edge")
DATA = Path(__file__).resolve().parent / "data"

# crosscheck gives atlas graph i the rule RULES[(i + offset) % 3].  The
# offset is fixed: moving it moves K6's edge oracle between 5 s and 25 s,
# which alone spread a seed's batch time by a third.
CROSSCHECK_RULE_OFFSET = 1


@dataclass
class Job:
    """One timed call into spanlab, plus what its check needs."""

    id: str
    kind: str            # span | minwalk | cross | analyze | verify
    cls: str             # input class, used to split per-layer times
    n: int
    edges: list
    g6: str
    argv: list = field(default_factory=list)   # CLI jobs
    rule: str = ""                             # minwalk and crosscheck
    cover: str = ""                            # crosscheck: vertex | edge


@dataclass
class Outcome:
    rc: int | None
    out: str
    error: str | None = None
    value: object = None


# --- graph helpers, independent of spanlab -----------------------------------


def adjacency(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(adj, src: int, banned=frozenset()) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist and v not in banned:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def radius(n: int, edges) -> int:
    adj = adjacency(n, edges)
    return min(max(bfs(adj, s).values()) for s in range(n))


def relabel(n: int, edges, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# --- input classes -----------------------------------------------------------


def spine_tree(spine: int, legs: int, length: int, rng: random.Random) -> tuple[int, list]:
    """A path of ``spine`` vertices with ``legs`` paths of ``length`` edges
    hung at distinct inner spine vertices.  With length 1 it is a
    caterpillar (interval, span 1); three legs of length 2 make a lobster
    that is not interval."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for at in sorted(rng.sample(range(2, spine - 2), legs)):
        prev = at
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return nxt, edges


def caterpillar(k: int) -> tuple[int, list]:
    """Two adjacent hubs with k leaves each."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(k)]
    return 2 * k + 2, edges


def atlas() -> list[str]:
    """The 143 connected graphs on at most 6 vertices, in networkx atlas order."""
    return (DATA / "atlas6.g6").read_text().split()


def family_edges(sl, spec: str) -> tuple[int, list]:
    g = sl.families.generate_family(spec)
    return g.n, g.edges()


# Input sizes and instances per class; the module docstring says why most
# classes are fixed shapes.
SPAN_RANDOM = [(60, "0.1", 1), (90, "0.067", 1), (120, "0.05", 1)]
SPAN_INTERVAL = [(35, 1)]
# random:8:P:S instances whose three vertex spans are all 2 (of S < 40); the
# span-1 ones search 56 pairs x 4^8 cover masks and take 5-30 s a job
MINWALK_RANDOM = [("0.4", 0), ("0.4", 2), ("0.4", 5), ("0.5", 4), ("0.5", 5),
                  ("0.5", 6), ("0.6", 5)]
MINWALK_SPARSE = ["star:6", "star:7", "subdivided-star:4", "path:8"]
STRUCT_RANDOM = [(20, "0.15"), (24, "0.125"), (28, "0.107")]
STRUCT_INTERVAL = [16, 20, 24]
STRUCT_CATERPILLAR = [6, 7, 8]
STRUCT_VERIFY_INTERVAL = [10, 11, 12, 14]

# Nominal batch length in seconds at the reference speed of bench/speed.py;
# an untraced run of S seconds runs round(S / BATCH_S) rounds, at least one.
BATCH_S = {"span-sweep": 7.5, "minwalk": 17.5, "crosscheck": 41.0, "structure": 7.5}


def graph_job(sl, jid, kind, cls, n, edges, **kw) -> Job:
    g6 = sl.graphs.to_graph6(sl.graphs.Graph(n, edges))
    return Job(id=jid, kind=kind, cls=cls, n=n, edges=list(edges), g6=g6, **kw)


def make_jobs(sl, workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The seed's batch for one workload, in run order.

    ``tiny`` keeps the smallest inputs of each class, for smoke tests.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []

    def some(items):
        return items[:1] if tiny else items

    def add(jid, kind, cls, n, edges, relabelled=True, **kw):
        if relabelled:
            edges = relabel(n, edges, rng)
        jobs.append(graph_job(sl, jid, kind, cls, n, edges, **kw))

    if workload == "span-sweep":
        for n, p, inst in some(SPAN_RANDOM):
            add(f"random-{n}", "span", "random", *family_edges(sl, f"random:{n}:{p}:{inst}"))
        trees = [("path-60", family_edges(sl, "path:60")),
                 ("caterpillar-45+15", spine_tree(45, 15, 1, random.Random(7))),
                 ("lobster-48+6", spine_tree(48, 6, 2, random.Random(7)))]
        for name, (n, edges) in some(trees):
            add(name, "span", "tree", n, edges)
        for n, inst in some(SPAN_INTERVAL):
            add(f"interval-{n}", "span", "interval", *family_edges(sl, f"interval:{n}:{inst}"))
    elif workload == "minwalk":
        random_specs = [f"random:8:{p}:{s}" for p, s in MINWALK_RANDOM]
        halves = [("random", some(random_specs)),
                  ("sparse", MINWALK_SPARSE[-1:] if tiny else MINWALK_SPARSE)]
        for half, specs in halves:
            for spec in specs:
                n, edges = family_edges(sl, spec)
                edges = relabel(n, edges, rng)
                for rule in RULES:
                    add(f"{spec}-{rule}", "minwalk", half, n, edges, relabelled=False,
                        rule=rule)
    elif workload == "crosscheck":
        graphs = atlas()
        for i, g6 in enumerate(graphs[:12] if tiny else graphs):
            g = sl.graphs.parse_graph6(g6)
            n, edges = g.n, relabel(g.n, g.edges(), rng)
            rule = RULES[(i + CROSSCHECK_RULE_OFFSET) % 3]
            for cover in KINDS:
                add(f"atlas{i}-{rule}-{cover}", "cross", f"n{n}", n, edges,
                    relabelled=False, rule=rule, cover=cover)
    elif workload == "structure":
        for n, p in some(STRUCT_RANDOM):
            inst = rng.randrange(10**6)
            add(f"analyze-random-{n}", "analyze", "random",
                *family_edges(sl, f"random:{n}:{p}:{inst}"), relabelled=False)
        for n in some(STRUCT_INTERVAL):
            inst = rng.randrange(10**6)
            add(f"analyze-interval-{n}", "analyze", "interval",
                *family_edges(sl, f"interval:{n}:{inst}"), relabelled=False)
        for k in some(STRUCT_CATERPILLAR):
            add(f"verify-caterpillar-{k}", "verify", "caterpillar", *caterpillar(k))
        for n in some(STRUCT_VERIFY_INTERVAL):
            inst = rng.randrange(10**6)
            add(f"verify-interval-{n}", "verify", "interval",
                *family_edges(sl, f"interval:{n}:{inst}"), relabelled=False)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return jobs


def write_inputs(jobs: list[Job], directory: Path) -> None:
    """Serialise each CLI job's graph to a graph6 file and fill in its argv."""
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.kind == "cross":
            continue
        path = directory / f"{job.id}.g6"
        path.write_text(job.g6 + "\n")
        argv = [job.kind, "--file", str(path), "--format", "json"]
        if job.kind == "minwalk":
            argv += ["--rule", job.rule]
        if job.kind == "analyze":
            argv += ["--cap", str(job.n)]
        job.argv = argv


# --- running a job -----------------------------------------------------------


def run_job(sl, job: Job) -> Outcome:
    """Call spanlab for one job; the caller times this call and nothing else.

    Functions are looked up on their modules at call time so that the
    traced run's wrappers are the ones called.
    """
    if job.kind == "cross":
        g = sl.graphs.parse_graph6(job.g6)
        oracle = sl.oracle.brute_force_span(g, job.rule, job.cover)
        solve = sl.spans.vertex_span if job.cover == "vertex" else sl.spans.edge_span
        return Outcome(rc=0, out="", value=(oracle, solve(g, job.rule)[0]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = sl.cli.main(job.argv)
    return Outcome(rc=rc, out=out.getvalue(), error=err.getvalue() or None)


# --- answers and checks ------------------------------------------------------


def answer(job: Job, outcome: Outcome) -> dict:
    """The part of a job's output that the reference records."""
    if job.kind == "cross":
        oracle, solver = outcome.value
        return {"oracle": oracle, "solver": solver}
    res = json.loads(outcome.out)["results"]
    if job.kind == "span":
        return {"spans": res["spans"]}
    if job.kind == "minwalk":
        return {k: res[k] for k in ("span", "moves", "alice", "bob")}
    if job.kind == "analyze":
        return {"is_interval": res["interval"]["is_interval"],
                "cut_sets": [{"vertices": c["vertices"], "is_clique": c["is_clique"]}
                             for c in res["cut_sets"]]}
    return {k: res[k] for k in ("checks", "not_applicable", "violations")}


def check_invariants(sl, job: Job, outcome: Outcome) -> list[str]:
    """Checks that hold for any seed, with no recorded answers."""
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.error}"]
    try:
        got = answer(job, outcome)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    if job.kind == "cross":
        if got["oracle"] != got["solver"]:
            problems.append(f"solver {got['solver']} != oracle {got['oracle']}")
    elif job.kind == "span":
        rad = radius(job.n, job.edges)
        for rule, vals in got["spans"].items():
            if not 0 <= vals["edge"] <= vals["vertex"] <= rad:
                problems.append(f"{rule}: not 0 <= edge <= vertex <= radius {rad}: {vals}")
    elif job.kind == "minwalk":
        g = sl.graphs.Graph(job.n, job.edges)
        pair = sl.walks.WalkPair(alice=tuple(got["alice"]), bob=tuple(got["bob"]),
                                 rule=sl.products.as_rule(job.rule),
                                 safety=got["span"], moves=got["moves"])
        if got["moves"] != len(got["alice"]) - 1:
            problems.append(f"moves {got['moves']} but {len(got['alice'])} positions")
        if not sl.walks.validate_walk_pair(pair, g, got["span"]).valid:
            problems.append(f"walk pair is not valid at span {got['span']}")
    elif job.kind == "analyze":
        problems += _check_analyze(job, json.loads(outcome.out)["results"])
    elif job.kind == "verify":
        if got["violations"]:
            problems.append(f"violations: {got['violations']}")
    return problems


def _check_analyze(job: Job, res: dict) -> list[str]:
    adj = adjacency(job.n, job.edges)
    problems = []
    for cut in res["cut_sets"]:
        s = {int(x) for x in cut["vertices"]}
        rest = [v for v in range(job.n) if v not in s]
        comps = sorted(sorted(int(x) for x in comp) for comp in cut["components"])
        seen: set = set()
        found = []
        for v in rest:
            if v not in seen:
                comp = sorted(bfs(adj, v, banned=s))
                seen.update(comp)
                found.append(comp)
        if len(found) < 2 or sorted(found) != comps:
            problems.append(f"cut set {sorted(s)} does not split the graph as reported")
        if cut["is_clique"] != all(b in adj[a] for a, b in combinations(s, 2)):
            problems.append(f"cut set {sorted(s)} has a wrong clique flag")
    iv = res["interval"]
    if iv["is_interval"]:
        ivs = {int(k): v for k, v in iv.get("intervals", {}).items()}
        if len(ivs) != job.n:
            problems.append("interval graph without one interval per vertex")
        else:
            for a, b in combinations(range(job.n), 2):
                meet = ivs[a][0] <= ivs[b][1] and ivs[b][0] <= ivs[a][1]
                if meet != (b in adj[a]):
                    problems.append(f"intervals of {a} and {b} disagree with adjacency")
                    break
    return problems


def check_job(sl, job: Job, outcome: Outcome, reference: dict | None) -> list[str]:
    """All problems with one job's result; an empty list means it passed.

    ``reference`` maps job ids to recorded inputs and answers, or is None
    when the seed has no recorded answers.
    """
    problems = check_invariants(sl, job, outcome)
    if reference is None or problems:
        return problems
    rec = reference.get(job.id)
    if rec is None:
        return [f"no recorded answer for job {job.id}"]
    if rec["g6"] != job.g6:
        return [f"input {job.g6} differs from the recorded {rec['g6']}"]
    got = answer(job, outcome)
    if got != rec["answer"]:
        problems.append(f"answer {got} differs from the recorded {rec['answer']}")
    return problems


def load_reference(directory: Path, workload: str, seed: int) -> dict | None:
    path = directory / f"seed-{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(workload)
