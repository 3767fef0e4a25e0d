"""The benchmark's own self-test, one untraced and one traced pass of each
of its four workloads (groups, ring, recover, series), and the product half
of its reference recorder, run from the repository root.  The tracer wraps
engine functions by name and binds their signatures
(QuasiMetricSpace.__init__, boundary_matrix, smith_normal_form,
export_presentation, ...), so a renamed or re-signed function breaks the
traced pass, and each pass checks its outputs against
perfbench/reference.json, so a wrong group, export byte, recovered space or
series coefficient fails here."""

import json
import os
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["groups", "ring", "recover", "series"])
def test_workload_pass_is_correct(workload):
    """One untraced and one traced pass of each workload, both checked
    against perfbench/reference.json: the groups tables, the ring export's
    sha256 and class products, every scrambled recover round trip, and both
    series."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True, proc.stdout


def test_reference_recorder_reproduces_the_recorded_products():
    """make_reference.products_reference(), which reads the engine's blocks
    (simplices, index, cohomology_quotient) and checks class_product against
    its own direct cup, gives the dims and products in reference.json.  It
    runs in a subprocess because the module imports the engine afresh, and
    main(), which rewrites the file, is not called."""
    code = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import make_reference; "
        "dims, products = make_reference.products_reference(); "
        "print(json.dumps({'dims': dims, 'products': products}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        ring = json.load(fh)["ring"]
    assert json.loads(proc.stdout) == {"dims": ring["dims"], "products": ring["products"]}
