"""The benchmark's own self-test and one pass each of its ring and recover
workloads, run from the repository root: the harness wraps engine functions
by name, so a renamed or re-signed function breaks it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _one_untraced_pass(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True, proc.stdout


def test_ring_workload_pass_is_correct():
    """One untraced pass of the ring workload: the export's sha256 and the
    class products are checked against perfbench/reference.json."""
    _one_untraced_pass("ring")


def test_recover_workload_pass_is_correct():
    """One untraced pass of the recover workload: every scrambled round trip
    (100 seeded small spaces and the Petersen graph) must recover an
    isometric space, as perfbench/reference.json records."""
    _one_untraced_pass("recover")
