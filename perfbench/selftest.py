"""Self-tests of the benchmark (about two minutes on a 2-core host).

    python3 perfbench/selftest.py

* the correctness gate rejects a changed digest and a report with a
  planted decoder mismatch;
* a timed run times every event and carries host-speed samples;
* a traced round reproduces the untraced pass's simulated metrics and
  CSV digests, so wrapping changes no message or bit count, and its
  wrapped layers account for most, not all, of its wall time;
* the command prints exactly the metrics ``BENCHMARK.json`` names, each
  with its unit, on every workload, traced and untraced;
* without the program's sources beside it, the command fails without
  printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
SEED = 1000
BENCH = None
WORKDIR = None


def setUpModule():
    global BENCH, WORKDIR
    # a small verify-mix round still covers all four functions, both
    # models and both port models
    workloads.VERIFY_MIX_EVENTS = 80
    run.OUT.mkdir(exist_ok=True)
    WORKDIR = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    # a seed with no recorded digests: the shrunk round's CSVs differ
    # from the recorded full-size ones
    BENCH = run.Bench("verify-mix", SEED, WORKDIR)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


def _command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class GateTest(unittest.TestCase):
    def _one_run(self):
        case = BENCH.cases[0]
        config = BENCH._config(case)
        report = BENCH.harness.run(config)
        digests = [BENCH.gate.file_digest(p) for p in BENCH._paths(case)[1:]]
        return case, report, digests

    def test_passing_run_passes(self):
        case, report, digests = self._one_run()
        self.assertEqual(
            BENCH.gate.check(report, len(case.events), digests, digests), [])

    def test_changed_digest_fails(self):
        case, report, digests = self._one_run()
        changed = [digests[0], "0" * 64]
        problems = BENCH.gate.check(report, len(case.events), digests, changed)
        self.assertEqual(len(problems), 1)
        self.assertIn("digests", problems[0])

    def test_planted_mismatch_fails(self):
        case, report, digests = self._one_run()
        report.mismatches.append(BENCH.harness.Mismatch(SEED, 1, 0, 0, "1", "0"))
        problems = BENCH.gate.check(report, len(case.events), digests, digests)
        self.assertEqual(len(problems), 1)
        self.assertIn("1 mismatches", problems[0])

    def test_recorded_digest_counts_as_failure(self):
        case = BENCH.cases[1]
        BENCH.recorded[case.name] = ["0" * 64, "0" * 64]
        failed = BENCH.failed
        try:
            self.assertTrue(BENCH.run_case(case).problems)
        finally:
            del BENCH.recorded[case.name]
        self.assertEqual(BENCH.failed, failed + 1)


class TimedPassTest(unittest.TestCase):
    def test_every_event_timed_and_every_run_scaled(self):
        for cr in BENCH.timed_pass(0.001)[0]:
            self.assertEqual(len(cr.event_ns), len(cr.case.events))
            self.assertTrue(cr.cal_ns)
            self.assertGreater(cr.scale, 0)


class TracedRoundTest(unittest.TestCase):
    def test_traced_round_repeats_simulated_metrics(self):
        rounds = BENCH.timed_pass(0.001)
        tracer, traced, _ = BENCH.traced_round()
        self.assertTrue(tracer.spans)
        self.assertTrue(tracer.calls["functions.oracle"])
        for untraced, cr in zip(rounds[0], traced):
            self.assertEqual(untraced.case.name, cr.case.name)
            self.assertEqual(untraced.sim, cr.sim, cr.case.name)
            self.assertEqual(cr.problems, [], cr.case.name)

    def test_layers_account_for_most_of_the_round(self):
        rounds = BENCH.timed_pass(0.001)
        tracer, traced, copies = BENCH.traced_round()
        share = run.per_layer(BENCH, rounds, tracer, traced,
                              copies)["trace.accounted_share"]
        # the rest is the benchmark's own gate and bookkeeping
        self.assertLess(share, 1.0)
        self.assertGreater(share, 0.9)


class CommandTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in workloads.BUILDERS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = _command("--workload", workload, "--seed", "5",
                                   "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    info = json.loads(lines[-2])["info"]
                    self.assertEqual(info["nproc"],
                                     len(os.sched_getaffinity(0)))
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_program_sources(self):
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = _command("--workload", "verify-mix", "--seed", "0",
                           "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
