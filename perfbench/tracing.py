"""Spans and counters around the calls into each engine layer.

``Tracer.install(lib)`` wraps the public functions of the layers listed in
``SPANS`` and ``COUNTERS``.  A function is rebound wherever an engine module
holds it, so names imported elsewhere (``magnitude.homology.smith_normal_form``,
``magnitude.recovery.is_isometric``, ...) are traced too; methods are wrapped
on their class.  ``Tracer.uninstall()`` restores every original object.

``snf._fix_divisibility``, the one private function wrapped, is a child span
of a ``smith_normal_form`` call with ``divisibility=True``: ``snf.repair`` is
the divisibility repair, and ``snf.factors`` and ``snf.transforms`` keep the
elimination.

Spans are kept in memory as ``[name, start, end, parent, job]`` and written
out at the end of the run.  A layer's self time is the duration of its spans
minus the part covered by their child spans; the time of a pass not covered
by any layer span is reported as ``trace.unattributed_s``, so the layer self
times and that remainder add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

JOB = "job"


def _snf_span(args):
    if args["need"]:
        return "snf.transforms"
    return "snf.factors" if args["divisibility"] else "snf.rank_only"


# Counters: f(tracer, bound arguments, result, span name, nested in a span of
# the same name).


def _count_build(tracer, args, space, name, nested):
    if not nested:
        tracer.counts["spaces.build_calls"] += 1
        tracer.counts["spaces.points"] += (space or args["self"]).n


def _count_enumerate(tracer, args, simplices, name, nested):
    tracer.counts["complexes.enumerate_calls"] += 1
    tracer.counts["complexes.simplices"] += len(simplices)


def _count_boundary(tracer, args, matrix, name, nested):
    tracer.counts["complexes.boundary_nnz"] += matrix.nnz()
    tracer.tag_block(matrix, args["k"], args["l"], "d")


def _count_snf(tracer, args, decomposition, name, nested):
    diag = decomposition.diag
    nonunit = sum(1 for d in diag if d != 1)
    c = tracer.counts
    c["snf.calls"] += 1
    c["snf.nnz_in"] += args["matrix"].nnz()
    c["snf.pivots"] += len(diag)
    c["snf.nonunit_pivots"] += nonunit
    if args["divisibility"]:
        c["snf.divisibility_pivots"] += len(diag)
        c["snf.divisibility_nonunit"] += nonunit
    for t in (decomposition.U, decomposition.UinvT, decomposition.VT, decomposition.Vinv):
        if t is not None:
            c["snf.transform_nnz"] += t.nnz()
    block = tracer.block_of(args["matrix"])
    if block is not None:
        block["rank"] = len(diag)
        block["nonunit_pivots"] = nonunit
        block.setdefault("modes", []).append(name)


def _count_quotient(tracer, args, result, name, nested):
    tracer.counts["homology.quotients"] += 1
    tracer.counts["homology.quotient_dim"] += args["self"].dim


def _count_reduce(tracer, args, result, name, nested):
    tracer.counts["homology.reduce_calls"] += 1


def _count_cup(tracer, args, cochain, name, nested):
    tracer.counts["ring.cup_calls"] += 1
    tracer.counts["ring.cup_targets"] += len(cochain.coords)


def _count_export(tracer, args, pres, name, nested):
    """Products the export attempted (every basis pair whose target block is
    kept) against those it recorded as nonzero, read from the presentation."""
    kmax, lmax = args["kmax"], args["lmax"]
    attempted = 0
    for ka, la in pres.bidegrees:
        for kb, lb in pres.bidegrees:
            target = (ka + kb, la + lb)
            if target[0] <= kmax and target[1] <= lmax and target in pres.ranks:
                attempted += pres.dim((ka, la)) * pres.dim((kb, lb))
    tracer.counts["ring.products_attempted"] += attempted
    tracer.counts["ring.products_nonzero"] += sum(len(p) for p in pres.table.values())


def _count_json(tracer, args, text, name, nested):
    tracer.counts["ring.json_bytes"] += len(text)


def _count_mult(tracer, args, result):
    tracer.counts["recovery.mult_calls"] += 1


def _count_transpose(tracer, args, result):
    block = tracer.block_of(args[0])
    if block is not None:
        _, k, l, orientation = tracer.tags[id(args[0])]
        tracer.tag_block(result, k, l, "dT" if orientation == "d" else "d")


# (module, attribute, span name or function of the bound arguments, counter)
SPANS = (
    ("spaces", "space_from_graph", "spaces.build", _count_build),
    ("spaces", "QuasiMetricSpace.__init__", "spaces.build", _count_build),
    ("spaces", "is_isometric", "spaces.isometry", None),
    ("complexes", "enumerate_simplices", "complexes.enumerate", _count_enumerate),
    ("complexes", "boundary_matrix", "complexes.boundary", _count_boundary),
    ("snf", "smith_normal_form", _snf_span, _count_snf),
    ("snf", "_fix_divisibility", "snf.repair", None),
    ("homology", "LatticeQuotient.__init__", "homology.quotient", _count_quotient),
    ("homology", "LatticeQuotient.reduce", "homology.reduce", _count_reduce),
    ("ring", "cup_cochain", "ring.cup", _count_cup),
    ("ring", "export_presentation", "ring.export", _count_export),
    ("ring", "RingPresentation.to_json", "ring.json", _count_json),
    ("ring", "RingPresentation.from_json", "ring.json", None),
    ("recovery", "primitive_idempotents", "recovery.idempotents", None),
    ("recovery", "adjacency_weights", "recovery.adjacency", None),
    ("recovery", "recover_space", "recovery.recover", None),
    ("series", "euler_series", "series.euler", None),
    ("series", "inversion_series", "series.inversion", None),
)

# Called too often for a span each: counted only, f(tracer, args, result).
COUNTERS = (
    ("ring", "RingPresentation.mult", _count_mult),
    ("snf", "SparseMatrix.transpose", _count_transpose),
)

TIMED = (
    "spaces.build", "spaces.isometry", "complexes.enumerate", "complexes.boundary",
    "snf.rank_only", "snf.factors", "snf.repair", "snf.transforms", "homology.quotient",
    "homology.reduce", "ring.cup", "ring.export", "ring.json", "recovery.idempotents",
    "recovery.adjacency", "recovery.recover", "series.euler", "series.inversion",
)

COUNTED = (
    "spaces.build_calls", "spaces.points", "complexes.enumerate_calls", "complexes.simplices",
    "complexes.boundary_nnz", "snf.calls", "snf.nnz_in", "snf.pivots", "snf.nonunit_pivots",
    "snf.divisibility_pivots", "snf.transform_nnz", "homology.quotients",
    "homology.quotient_dim", "homology.reduce_calls", "ring.cup_calls", "ring.cup_targets",
    "ring.products_attempted", "ring.products_nonzero", "ring.json_bytes", "recovery.mult_calls",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.blocks = {}  # (job, k, l, "d" or "dT") -> counters of one boundary block
        self.tags = {}  # id(matrix) -> (matrix, k, l, orientation); kept alive per job
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self, lib):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "magnitude"]
        for module, attr, span, count in SPANS:
            self._wrap(getattr(lib, module), attr, modules, self._traced(span, count))
        for module, attr, count in COUNTERS:
            self._wrap(getattr(lib, module), attr, modules, self._counted(count))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _wrap(self, module, attr, modules, make_wrapper):
        if "." in attr:
            cls_name, key = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[key]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(make_wrapper(original.__func__))
            else:
                wrapper = make_wrapper(original)
            self._restore.append((owner, key, original))
            setattr(owner, key, wrapper)
            return
        func = getattr(module, attr)
        wrapper = make_wrapper(func)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is func:
                    self._restore.append((m, key, func))
                    setattr(m, key, wrapper)

    def _counted(self, count):
        def make(func):
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                count(self, args, result)
                return result

            return counted

        return make

    def _traced(self, span, count):
        spans, stack = self.spans, self.stack

        def make(func):
            signature = inspect.signature(func)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = span if isinstance(span, str) else span(bound.arguments)
                parent = stack[-1] if stack else None
                record = [name, 0.0, 0.0, parent, self.job]
                stack.append(len(spans))
                spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
                if count is not None:
                    nested = parent is not None and spans[parent][0] == name
                    count(self, bound.arguments, result, name, nested)
                return result

            return traced

        return make

    def run_job(self, job_name, fn, *args):
        """Run one job under a root span, so every layer span has a job id."""
        self.job = job_name
        record = [JOB, 0.0, 0.0, None, job_name]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
            self.job = None
            self.tags.clear()

    # -- boundary blocks, followed through transposes into the SNF ----------

    def tag_block(self, matrix, k, l, orientation):
        self.tags[id(matrix)] = (matrix, k, l, orientation)
        self.blocks.setdefault(
            (self.job, k, str(l), orientation),
            {"rows": matrix.nrows, "cols": matrix.ncols, "nnz": matrix.nnz()},
        )

    def block_of(self, matrix):
        tag = self.tags.get(id(matrix))
        if tag is None:
            return None
        _, k, l, orientation = tag
        return self.blocks[(self.job, k, str(l), orientation)]

    # -- derived metrics ---------------------------------------------------------

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return totals

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics of one traced pass of wall time `traced_wall`."""
        totals = self.self_times()
        out = {f"{name}_s": totals.get(name, 0.0) for name in TIMED}
        out.update({name: self.counts.get(name, 0) for name in COUNTED})
        c = self.counts
        out["snf.nonunit_ratio"] = _ratio(c["snf.divisibility_nonunit"], c["snf.divisibility_pivots"])
        out["ring.nonzero_ratio"] = _ratio(c["ring.products_nonzero"], c["ring.products_attempted"])
        out["trace.wall_s"] = traced_wall
        out["trace.unattributed_s"] = traced_wall - sum(out[f"{name}_s"] for name in TIMED)
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out

    def block_rows(self) -> list:
        return [
            dict(job=job, k=k, l=l, orientation=o, **counters)
            for (job, k, l, o), counters in self.blocks.items()
        ]


def _ratio(part, base):
    return part / base if base else 0.0
