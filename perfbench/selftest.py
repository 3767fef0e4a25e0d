"""Self-test of the benchmark: its checks catch wrong outputs, its tracer
restores the engine and accounts for the traced time, and it refuses to run
without the engine sources.

    python3 perfbench/selftest.py

Runs in a few seconds; only the export and round-trip jobs call the engine.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)
SEED = 7


def jobs_of(workload, reference=REFERENCE):
    lib = workloads.import_library()
    return lib, {job.name: job for job in workloads.make_jobs(workload, lib, SEED, reference)}


class FakePass:
    def __init__(self, outputs):
        self.outputs = outputs


class CorruptedReferenceIsAFailure(unittest.TestCase):
    """Each check accepts the recorded output and rejects it once one
    recorded fact is changed."""

    def assert_caught(self, job, output, corrupt):
        self.assertEqual(job.check(REFERENCE, job, output), [])
        bad = copy.deepcopy(REFERENCE)
        corrupt(bad)
        self.assertNotEqual(job.check(bad, job, output), [])
        self.assertEqual(run.check_outputs(bad, [job], [FakePass([output])]), 1)

    def test_groups(self):
        _, jobs = jobs_of("groups")
        table = copy.deepcopy(REFERENCE["groups"]["table"])

        def corrupt(ref):
            ref["groups"]["table"][-1][2] += 1

        self.assert_caught(jobs["petersen_homology"], table, corrupt)

    def test_ring_export_runs_the_engine(self):
        lib, jobs = jobs_of("ring")
        job = jobs["petersen_export"]
        text = job.run(lib, *job.args)

        def corrupt(ref):
            ref["ring"]["export"]["bidegrees"][-1]["rank"] += 1

        self.assert_caught(job, text, corrupt)
        self.assertNotEqual(job.check(REFERENCE, job, text.replace("1", "2", 1)), [])

    def test_ring_products(self):
        _, jobs = jobs_of("ring")
        job = jobs["petersen_products"]
        products = workloads.expected_products(REFERENCE, job.args[1])

        def corrupt(ref):
            for block in ref["ring"]["products"].values():
                for _, _, entries in block["table"]:
                    entries[0][1] += 1

        self.assert_caught(job, products, corrupt)

    def test_recover_runs_the_engine(self):
        lib, jobs = jobs_of("recover")
        for name in ("graph00_n4", "digraph00_n3", "quasimetric00_n3"):
            job = jobs[name]
            verdict = job.run(lib, *job.args)

            def corrupt(ref):
                ref["recover"]["verdict"] = False

            self.assert_caught(job, verdict, corrupt)

    def test_series(self):
        _, jobs = jobs_of("series")
        for name, key in (("cycle_series", "cycle"), ("chorded_series", "chorded")):
            series = REFERENCE["series"][key]

            def corrupt(ref):
                ref["series"][key][1][1] += 1

            self.assert_caught(jobs[name], [series, copy.deepcopy(series)], corrupt)
            self.assertNotEqual(jobs[name].check(REFERENCE, jobs[name], [series, series[:-1]]), [])

    def test_exception_is_a_failure(self):
        _, jobs = jobs_of("series")
        job = jobs["cycle_series"]
        self.assertEqual(run.check_outputs(REFERENCE, [job], [FakePass([RuntimeError("x")])]), 1)


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("groups", "ring", "recover", "series"):
            _, first = jobs_of(workload)
            _, second = jobs_of(workload)
            self.assertEqual(
                [(j.name, repr(j.args)) for j in first.values()],
                [(j.name, repr(j.args)) for j in second.values()],
            )


class Tracing(unittest.TestCase):
    def snapshot(self, lib):
        objects = {}
        for module in vars(lib).values():
            for key, value in vars(module).items():
                objects[(module.__name__, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        objects[(module.__name__, key, attr)] = member
        return objects

    def test_spans_account_for_the_traced_time_and_are_removed(self):
        lib, jobs = jobs_of("recover")
        job = jobs["graph05_n6"]
        before = self.snapshot(lib)
        original_snf = lib.snf.smith_normal_form
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            self.assertIsNot(lib.homology.smith_normal_form, original_snf)
            self.assertIs(lib.homology.smith_normal_form, lib.snf.smith_normal_form)
            self.assertIs(lib.recovery.is_isometric, lib.spaces.is_isometric)
            p = run.Pass(lib, [job], tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(self.snapshot(lib), before)
        self.assertEqual(p.outputs, [True])

        names = {span[0] for span in tracer.spans}
        for layer in ("spaces.build", "spaces.isometry", "complexes.enumerate", "snf.transforms",
                      "homology.quotient", "ring.cup", "ring.export", "ring.json",
                      "recovery.idempotents", "recovery.adjacency", "recovery.recover"):
            self.assertIn(layer, names)
        self.assertTrue(all(span[4] == job.name for span in tracer.spans))
        repairs = [span for span in tracer.spans if span[0] == "snf.repair"]
        self.assertTrue(repairs)
        parents = {tracer.spans[span[3]][0] for span in repairs}
        self.assertLessEqual(parents, {"snf.factors", "snf.transforms"})

        metrics = tracer.metrics(p.wall, p.wall)
        layer_self = sum(metrics[f"{name}_s"] for name in tracing.TIMED)
        self.assertAlmostEqual(layer_self + metrics["trace.unattributed_s"], p.wall, places=9)
        self.assertGreaterEqual(metrics["trace.unattributed_s"], 0.0)
        self.assertGreater(metrics["recovery.mult_calls"], 0)
        self.assertEqual(metrics["spaces.build_calls"], 2)  # the graph and the recovered space


class DeclaredMetrics(unittest.TestCase):
    """The run computes exactly the metrics that BENCHMARK.json declares."""

    def test_end_to_end(self):
        p = FakePass([None])
        p.wall, p.cpu, p.durations = 1.0, 1.0, [1.0]
        self.assertEqual(set(run.end_to_end([0.1], [p], 1.0)), set(run.declared_metrics("end_to_end")))

    def test_per_layer(self):
        self.assertEqual(set(tracing.Tracer().metrics(1.0, 1.0)), set(run.declared_metrics("per_layer")))


class MissingEngine(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "groups", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
