"""Record the reference answers that bench/run.py checks against.

    python3 bench/make_reference.py SEED [SEED ...]

For each seed and workload this runs the batch once with the spanlab in
``src/`` and writes bench/reference/seed-SEED.json: per job, the graph6 input
and the answer (span values; minwalk span, moves and both walks; analyze
interval flag and cut sets; verify counts).  It refuses to write a file when
any job fails its invariant checks, and it confirms every span value of a
graph with at most 6 vertices against the brute-force oracle.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as W


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def oracle_problems(sl, job: W.Job, got: dict) -> list[str]:
    """Span values of small graphs recomputed by the brute-force oracle."""
    if job.n > 6:
        return []
    g = sl.graphs.Graph(job.n, job.edges)

    def oracle(rule, kind):
        return sl.oracle.brute_force_span(g, rule, kind)

    problems = []
    if job.kind == "span":
        for rule, vals in got["spans"].items():
            for kind, value in vals.items():
                if oracle(rule, kind) != value:
                    problems.append(f"{rule} {kind} span {value} disagrees with the oracle")
    elif job.kind == "minwalk" and oracle(job.rule, "vertex") != got["span"]:
        problems.append(f"minwalk span {got['span']} disagrees with the oracle")
    elif job.kind == "cross" and oracle(job.rule, job.cover) != got["solver"]:
        problems.append("solver disagrees with the oracle")
    return problems


def record(seed: int) -> dict:
    out = {"seed": seed, "commit": run.git_commit(), "workloads": {}}
    for workload in W.WORKLOADS:
        sl, jobs, _ = run.setup(workload, seed)
        answers = {}
        for job in jobs:
            outcome = W.run_job(sl, job)
            problems = W.check_invariants(sl, job, outcome)
            got = None if problems else W.answer(job, outcome)
            problems = problems or oracle_problems(sl, job, got)
            if problems:
                raise SystemExit(f"seed {seed} {workload} {job.id}: {problems}")
            answers[job.id] = {"g6": job.g6, "answer": got}
        out["workloads"][workload] = answers
        log(f"seed {seed}: {workload} recorded ({len(answers)} jobs)")
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    run.REFERENCE.mkdir(parents=True, exist_ok=True)
    for seed in map(int, argv):
        doc = record(seed)
        path = run.REFERENCE / f"seed-{seed}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
