"""Benchmark of the exact magnitude (co)homology engine.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run makes as many whole passes over the
workload's jobs as fit in ``--seconds``, at least one.  Before each pass it
sets up afresh: it imports the engine from ``src/`` again and generates the
workload's inputs from the seed.  Each job builds its own engines, so every
pass pays every lazy cache again.  All outputs are checked exactly after the
timed passes.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics and
writes the spans to ``perfbench/out/``.  Metric names and units are those
that ``BENCHMARK.json`` declares.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def deciles(values):
    """The nine deciles, interpolated between samples (a single sample is
    every decile)."""
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


class Pass:
    """One timed pass over every job of a workload, traced if `tracer` is
    given."""

    def __init__(self, lib, jobs, tracer=None):
        self.tracer = tracer
        self.durations = []
        self.outputs = []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = job.run(lib, *job.args)
                else:
                    output = tracer.run_job(job.name, job.run, lib, *job.args)
            except Exception as exc:  # a failed job is counted, the run goes on
                traceback.print_exc()
                output = exc
            self.durations.append(time.perf_counter() - t0)
            self.outputs.append(output)
        self.wall = time.perf_counter() - start
        self.cpu = cpu_seconds() - cpu0


def run_passes(workload, seed, reference, deadline, trace):
    """Set up, then make one pass; repeat while the next pass is expected to
    end by the deadline.  Every pass gets a fresh set-up, so the set-up
    times are spread over the run like the pass times.  With `trace`, passes
    alternate untraced and traced, and there is at least one of each.

    Returns the set-up times, the passes and the jobs of the last set-up."""
    setups, passes = [], []
    while True:
        gc.collect()  # garbage of the previous pass is not this set-up's cost
        t0 = time.perf_counter()
        lib = workloads.import_library()
        jobs = workloads.make_jobs(workload, lib, seed, reference)
        setups.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if trace and len(passes) % 2 else None
        if tracer is not None:
            tracer.install(lib)
        try:
            passes.append(Pass(lib, jobs, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if time.perf_counter() + passes[-1].wall > deadline and len(passes) >= (2 if trace else 1):
            return setups, passes, jobs


def end_to_end(setups, passes, peak_rss_mb) -> dict:
    job_deciles = deciles([d for p in passes for d in p.durations])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "job_p50_s": job_deciles[4],
        "job_p90_s": job_deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }


def check_outputs(reference, jobs, passes):
    failed = 0
    for p in passes:
        for job, output in zip(jobs, p.outputs):
            if isinstance(output, Exception):
                problems = [f"raised {type(output).__name__}: {output}"]
            else:
                problems = job.check(reference, job, output)
            if problems:
                failed += 1
                print(f"FAIL {job.name}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "magnitude", "__init__.py")):
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    deadline = time.perf_counter() + args.seconds
    setups, passes, jobs = run_passes(args.workload, args.seed, reference, deadline, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(jobs) * len(passes)
    failed = check_outputs(reference, jobs, passes)

    if args.trace:
        traced = [p for p in passes if p.tracer is not None]
        untraced_wall = statistics.median(p.wall for p in passes if p.tracer is None)
        per_pass = [p.tracer.metrics(p.wall, untraced_wall) for p in traced]
        units = declared_metrics("per_layer")
        values = {name: statistics.median(m[name] for m in per_pass) for name in units}
        write_spans(args, traced)
    else:
        units = declared_metrics("end_to_end")
        values = end_to_end(setups, passes, peak_rss_mb)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
        f"jobs/pass {len(jobs)}  trace {args.trace}"
    )
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} jobs)")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def write_spans(args, traced):
    """Spans of every traced pass, and the largest boundary blocks."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "job"],
        "passes": [{"spans": p.tracer.spans, "blocks": p.tracer.block_rows()} for p in traced],
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    blocks = sorted(traced[0].tracer.block_rows(), key=lambda b: -b["nnz"])
    print(f"spans written to {os.path.relpath(path)}; largest boundary blocks:")
    for b in blocks[:6]:
        print(
            f"  {b['job']:20s} k={b['k']} l={b['l']} {b['orientation']:2s} "
            f"{b['rows']}x{b['cols']} nnz={b['nnz']} rank={b.get('rank', '-')} "
            f"nonunit={b.get('nonunit_pivots', '-')} {','.join(b.get('modes', []))}"
        )


if __name__ == "__main__":
    sys.exit(main())
