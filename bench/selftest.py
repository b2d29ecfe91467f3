"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 bench/selftest.py

Covers: the checker counts a wrong span, an invalid walk and a missing cut
set as failed jobs; every workload runs clean on tiny inputs; a probed
round scales every job; two traced runs give identical per-layer counts;
the atlas data file and the recorded reference inputs match what set-up
makes.
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pairs", ".arcs", ".kept_pairs", "thresholds_tried",
                  ".subsets", ".found", ".moves", ".state_bound", "span_calls_per_graph")


def _sl():
    return run.import_spanlab()


def _reference(sl, jobs):
    """Answers of a clean run, in the layout of a recorded reference."""
    return {job.id: {"g6": job.g6, "answer": W.answer(job, W.run_job(sl, job))}
            for job in jobs}


def _cli_job(sl, jid, kind, n, edges, **kw):
    job = W.graph_job(sl, jid, kind, "test", n, edges, **kw)
    W.write_inputs([job], run.OUT / "inputs" / "selftest")
    return job


class CheckerCountsFailures(unittest.TestCase):
    """Each kind of wrong answer must make its job count in fail_frac."""

    def setUp(self):
        self.sl = _sl()
        cat_n, cat_edges = W.caterpillar(2)
        self.jobs = [
            _cli_job(self.sl, "span-c5", "span", 5, [(i, (i + 1) % 5) for i in range(5)]),
            _cli_job(self.sl, "minwalk-p4", "minwalk", 4, [(0, 1), (1, 2), (2, 3)],
                     rule="traditional"),
            _cli_job(self.sl, "analyze-cat", "analyze", cat_n, cat_edges),
        ]
        self.reference = _reference(self.sl, self.jobs)

    def _round_with(self, corrupt):
        """fail_frac of one round in which ``corrupt`` edits each job's output."""
        real = W.run_job

        def fake(sl, job):
            outcome = real(sl, job)
            doc = json.loads(outcome.out)
            corrupt(job, doc["results"])
            outcome.out = json.dumps(doc)
            return outcome

        W.run_job = fake
        try:
            result = run.run_round(self.sl, self.jobs, self.reference)
        finally:
            W.run_job = real
        return result

    def test_clean_round_has_no_failures(self):
        result = run.run_round(self.sl, self.jobs, self.reference)
        self.assertEqual(result.failures, [])

    def test_wrong_span(self):
        def corrupt(job, res):
            if job.kind == "span":
                res["spans"]["active"]["vertex"] += 1

        failed = self._round_with(corrupt).failures
        self.assertEqual([jid for jid, _ in failed], ["span-c5"])
        # the same error is caught with no reference, by the span chain
        self.assertTrue(W.check_job(self.sl, self.jobs[0], self._corrupted(corrupt, 0), None))

    def test_invalid_walk(self):
        def corrupt(job, res):
            if job.kind == "minwalk":
                a0 = int(res["alice"][0])
                adj = W.adjacency(job.n, job.edges)
                res["alice"][1] = str(next(v for v in range(job.n)
                                           if v != a0 and v not in adj[a0]))

        failed = self._round_with(corrupt).failures
        self.assertEqual([jid for jid, _ in failed], ["minwalk-p4"])
        self.assertTrue(W.check_job(self.sl, self.jobs[1], self._corrupted(corrupt, 1), None))

    def test_missing_cut_set(self):
        def corrupt(job, res):
            if job.kind == "analyze":
                res["cut_sets"].pop()

        failed = self._round_with(corrupt).failures
        self.assertEqual([jid for jid, _ in failed], ["analyze-cat"])

    def test_exception_and_exit_code_count(self):
        def boom(sl, job):
            raise RuntimeError("boom")

        real = W.run_job
        W.run_job = boom
        try:
            result = run.run_round(self.sl, self.jobs, self.reference)
        finally:
            W.run_job = real
        self.assertEqual(len(result.failures), len(self.jobs))
        bad = W.Outcome(rc=3, out="")
        self.assertTrue(W.check_job(self.sl, self.jobs[0], bad, self.reference))

    def _corrupted(self, corrupt, i):
        job = self.jobs[i]
        outcome = W.run_job(self.sl, job)
        doc = json.loads(outcome.out)
        corrupt(job, doc["results"])
        outcome.out = json.dumps(doc)
        return outcome


class TinyWorkloads(unittest.TestCase):
    def test_each_workload_runs_clean(self):
        for workload in W.WORKLOADS:
            with self.subTest(workload=workload):
                sl, jobs, reference = run.setup(workload, 0, tiny=True)
                self.assertIsNone(reference)
                self.assertTrue(jobs)
                result = run.run_round(sl, jobs, reference)
                self.assertEqual(result.failures, [])

    def test_probed_round_scales_every_job(self):
        sl, jobs, reference = run.setup("span-sweep", 0, tiny=True)
        result = run.run_round(sl, jobs, reference, probed=True)
        self.assertEqual(len(result.scaled), len(result.times))
        for wall, scaled in zip(result.times, result.scaled):
            self.assertGreater(scaled, 0)
            # a probe stays within a factor of 10 of the reference speed
            self.assertLess(abs(math.log(scaled / wall)), math.log(10))
        self.assertAlmostEqual(speed.scale(2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S), 0.5)

    def test_traced_counts_repeat(self):
        for workload in W.WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                for _ in range(2):
                    sl, jobs, _ = run.setup(workload, 3, tiny=True)
                    tracer = tracing.Tracer()
                    tracer.install()
                    try:
                        result = run.run_round(sl, jobs, None, tracer)
                    finally:
                        tracer.uninstall()
                    self.assertEqual(result.failures, [])
                    metrics = tracer.metrics(jobs)
                    counts.append({k: v for k, v in metrics.items()
                                   if k.endswith(COUNT_SUFFIXES)})
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(sum(counts[0].values()), 0)

    def test_uninstall_restores_every_function(self):
        sl = _sl()
        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("spanlab")}
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(sl.walks.build_product, before["spanlab.walks"]["build_product"])
        tracer.uninstall()
        for name, attrs in before.items():
            for attr, val in attrs.items():
                self.assertIs(getattr(sys.modules[name], attr), val, f"{name}.{attr}")


class Data(unittest.TestCase):
    def test_atlas_matches_networkx(self):
        try:
            import networkx as nx
        except ImportError:
            self.skipTest("networkx is not installed")
        sl = _sl()
        expected = []
        for gx in nx.graph_atlas_g():
            if 1 <= gx.number_of_nodes() <= 6 and nx.is_connected(gx):
                nodes = sorted(gx.nodes())
                index = {v: i for i, v in enumerate(nodes)}
                g = sl.graphs.Graph(len(nodes), [(index[u], index[v]) for u, v in gx.edges()])
                expected.append(sl.graphs.to_graph6(g))
        self.assertEqual(W.atlas(), expected)
        self.assertEqual(len(expected), 143)

    def test_reference_inputs_match_setup(self):
        sl = _sl()
        files = sorted(run.REFERENCE.glob("seed-*.json"))
        self.assertGreaterEqual(len(files), 2)
        for path in files:
            doc = json.loads(path.read_text())
            for workload in W.WORKLOADS:
                jobs = W.make_jobs(sl, workload, doc["seed"])
                recorded = doc["workloads"][workload]
                self.assertEqual(sorted(j.id for j in jobs), sorted(recorded), path.name)
                for job in jobs:
                    self.assertEqual(job.g6, recorded[job.id]["g6"], job.id)


if __name__ == "__main__":
    unittest.main()
