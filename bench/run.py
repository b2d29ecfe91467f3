"""spanlab benchmark: run one workload at one seed and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and bench/workloads.py): span-sweep, minwalk,
crosscheck, structure.  Run from a checkout of the repository; the package
is imported from its ``src/`` directory, as it stands, in this one process.
One caller runs jobs in a closed loop: each job starts when the previous one
returns, and the benchmark's own answer checks run between jobs, outside
the timed calls.

Untraced run (``--trace 0``): set-up is done nine times and its median
reported; then the workload's batch is run ``--seconds`` / its nominal
length rounds (at least one; see ``workloads.BATCH_S``).  Reports setup_s,
solve_s (the sum over jobs of each job's median time over the rounds),
job_p50_s (the median of those job times), peak_rss_mib (through set-up and
the first batch) and fail_frac; the result JSON carries the metrics that
BENCHMARK.json declares.  Times are scaled to a reference machine speed by
a probe timed between jobs (bench/speed.py); the report line gives the
wall-clock set-up and batch times too.

Traced run (``--trace 1``): one untraced round, then one round with every
public layer function wrapped (see bench/tracing.py); reports the per-layer
metrics of that round, trace.overhead and trace.uncovered_frac, and writes
the spans to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 unless the run could not start
(for example when ``src/spanlab`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 9
SEGMENT_S = 0.5      # job time between two speed probes, at least
LAYER_MODULES = ("cli", "graphs", "products", "spans", "walks", "oracle",
                 "structure", "theorems", "families")

import speed  # noqa: E402  (sibling files, importable once HERE is on the path)
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def import_spanlab():
    """Import spanlab from this checkout, afresh, with every layer module."""
    for name in [m for m in sys.modules if m == "spanlab" or m.startswith("spanlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        sl = importlib.import_module("spanlab")
    except ImportError as exc:
        raise SetupError(f"cannot import spanlab from {SRC}: {exc}") from None
    if Path(sl.__file__).resolve().parent != SRC / "spanlab":
        raise SetupError(f"spanlab came from {sl.__file__}, not from {SRC}")
    for mod in LAYER_MODULES:
        importlib.import_module(f"spanlab.{mod}")
    return sl


def setup(workload: str, seed: int, tiny: bool = False):
    """Import spanlab, make and serialise the seed's graphs, load the answers."""
    sl = import_spanlab()
    jobs = W.make_jobs(sl, workload, seed, tiny)
    W.write_inputs(jobs, OUT / "inputs" / f"{workload}-seed{seed}")
    reference = None if tiny else W.load_reference(REFERENCE, workload, seed)
    return sl, jobs, reference


@dataclass
class Round:
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)   # times at reference speed
    failures: list[tuple[str, list[str]]] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def run_round(sl, jobs, reference, tracer: Tracer | None = None,
              probed: bool = False) -> Round:
    """Run the batch once.  With ``probed``, time a speed probe before the
    first job and after every SEGMENT_S of job time, and scale each job by
    the probes around its segment."""
    result = Round()
    before = speed.probe() if probed else 0.0
    pending: list[float] = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            outcome = W.run_job(sl, job)
        except SystemExit as exc:
            outcome = W.Outcome(rc=exc.code if isinstance(exc.code, int) else 2, out="",
                                error=f"SystemExit({exc.code!r})")
        except Exception:  # a job that raises is a failed job; the run goes on
            outcome = W.Outcome(rc=None, out="", error=traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(dt)
        result.times.append(dt)
        problems = W.check_job(sl, job, outcome, reference)
        if problems:
            result.failures.append((job.id, problems))
        # each job starts on a collected heap, so neither its time nor the
        # peak RSS depends on garbage the previous job left behind
        del outcome
        gc.collect()
        if probed:
            pending.append(dt)
            if sum(pending) >= SEGMENT_S or i == len(jobs) - 1:
                after = speed.probe()
                factor = speed.scale(before, after)
                result.scaled += [t * factor for t in pending]
                before, pending = after, []
    return result


def machine_stamp(workload: str, seed: int, traced: bool) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "source": source_digest(), "seed": seed,
            "workload": workload, "mode": "traced" if traced else "untraced"}


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 prefix of the measured package's sources; it names the code
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "spanlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def upper_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    if n < 20:
        return None
    return min(99, int(100 * (1 - 10 / n)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = bool(args.trace)

    try:
        units = declared_metrics(traced)
        setups, scaled_setups = [], []
        before = speed.probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            sl, jobs, reference = setup(args.workload, args.seed)
            setups.append(time.perf_counter() - t0)
            after = speed.probe()
            scaled_setups.append(setups[-1] * speed.scale(before, after))
            before = after
    except (SetupError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    stamp = machine_stamp(args.workload, args.seed, traced)
    print("# " + " | ".join(f"{k} {v}" for k, v in stamp.items()))
    if reference is None:
        print(f"# reference check: not run (no recorded answers for seed {args.seed});"
              " invariants only")
    else:
        print(f"# reference check: on ({len(reference)} recorded answers)")

    rounds: list[Round] = []
    metrics: dict[str, float] = {}
    if not traced:
        # the round count follows from --seconds and the batch's nominal
        # length, not from measured times, so every run takes the same median
        for _ in range(max(1, round(args.seconds / W.BATCH_S[args.workload]))):
            rounds.append(run_round(sl, jobs, reference, probed=True))
            if len(rounds) == 1:
                # later batches reuse the heap the first one grew, so the
                # peak is taken here and does not depend on the batch count
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each job's median over the rounds: a burst of load on the shared
        # machine that slows one run of a job is voted out by the others
        per_job = [statistics.median(r.scaled[i] for r in rounds) for i in range(len(jobs))]
        job_p50_s = statistics.median(per_job)
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "solve_s": sum(per_job),
            "peak_rss_mib": peak_rss_mib,
        }
        times = [t for r in rounds for t in r.scaled]
        pct = upper_percentile(len(times))
        tail = ""
        if pct is not None:
            tail = f", p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4f} s"
        print(f"# {len(rounds)} round(s) of {len(jobs)} jobs; scaled job times: "
              f"{len(times)} samples, p50 {statistics.median(times):.4f} s{tail}")
    else:
        untraced = run_round(sl, jobs, reference)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin(-1)
            t0 = time.perf_counter()
            W.make_jobs(sl, args.workload, args.seed)
            tracer.end(time.perf_counter() - t0)
            traced_round = run_round(sl, jobs, reference, tracer)
        finally:
            tracer.uninstall()
        rounds = [untraced, traced_round]
        metrics = tracer.metrics(jobs)
        metrics["trace.overhead"] = traced_round.solve_s / untraced.solve_s
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path, jobs)
        print(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    for r in rounds:
        for job_id, problems in r.failures[:5]:
            print(f"# FAILED {job_id}: {'; '.join(problems)[:500]}")
    if not traced:
        # job_p50_s and fail_frac are reported here but are not BENCHMARK.json
        # metrics: fail_frac is 0 on a passing run, and bench/METRICS.md says
        # why the median job time carries no bound
        text = [f"{name} {metrics[name]:.6g} {units[name]}" for name in units]
        text += [f"job_p50_s {job_p50_s:.6g} s", f"fail_frac {failed / attempted:.6g} ratio",
                 f"wall setup_s {statistics.median(setups):.6g} s",
                 f"wall solve_s {statistics.median(r.solve_s for r in rounds):.6g} s"]
        print("# " + " | ".join(text))

    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT.mkdir(parents=True, exist_ok=True)
    mode = "traced" if traced else "untraced"
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_{mode}.json").write_text(
        json.dumps({"stamp": stamp, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
