"""Command-line interface.

Subcommands: homology, cohomology (rank/torsion tables per bidegree), ring
(RingPresentation JSON export), recover (presentation -> metric CSV, or a
full scrambled round-trip with a JSON verdict), and verify
{diagonal, cyclic, poset, series}.

Exit codes: 0 success, 1 verification failure (with a counterexample dump),
2 input error.  Identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cyclic, graph_algebra, posets, series
from .complexes import realizable_grades
from .homology import MagnitudeHomology
from .rationals import format_grade
from .recovery import recover_space
from .ring import RingPresentation, export_presentation
from .spaces import (
    builtin_graph,
    format_metric_csv,
    is_isometric,
    load_graph,
    load_space,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError (one-line message,
    exit 2) instead of printing the usage block."""

    def error(self, message):
        raise InputError(message)


def _space_from_args(args):
    if getattr(args, "metric", None):
        return load_space(args.metric, kind="metric")
    if getattr(args, "graph", None):
        return load_space(args.graph, kind="graph")
    raise InputError("one of --graph or --metric is required")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _blocks_table(space, kmax: int, lmax, side: str):
    engine = MagnitudeHomology(space)
    rows = []
    for l in realizable_grades(space, Fraction(lmax)):
        top = min(kmax, engine.degree_bound(l))
        for k in range(top + 1):
            group = engine.homology(k, l) if side == "homology" else engine.cohomology(k, l)
            rows.append((k, l, group.rank, list(group.torsion)))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def _format_table(rows, fmt: str, side: str) -> str:
    if fmt == "tsv":
        lines = ["k\tl\trank\ttorsion"]
        for k, l, rank_, torsion in rows:
            lines.append(f"{k}\t{format_grade(l)}\t{rank_}\t{','.join(map(str, torsion))}")
        return "\n".join(lines) + "\n"
    doc = {
        "table": side,
        "blocks": [
            {"k": k, "l": format_grade(l), "rank": rank_, "torsion": torsion}
            for k, l, rank_, torsion in rows
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def cmd_table(args) -> int:
    """The homology or cohomology table, after args.command."""
    space = _space_from_args(args)
    rows = _blocks_table(space, args.kmax, args.lmax, args.command)
    _emit(_format_table(rows, args.format, args.command), args.out)
    return EXIT_OK


def cmd_ring(args) -> int:
    space = _space_from_args(args)
    pres = export_presentation(space, args.kmax, Fraction(args.lmax), scramble_seed=args.seed)
    _emit(pres.to_json(), args.out)
    return EXIT_OK


def cmd_recover(args) -> int:
    if args.ring:
        with open(args.ring) as fh:
            pres = RingPresentation.from_json(fh.read())
        recovered = recover_space(pres)
        _emit(format_metric_csv(recovered.space), args.out)
        return EXIT_OK
    space = _space_from_args(args)
    lmax = Fraction(args.lmax) if args.lmax is not None else space.max_finite_distance()
    pres = export_presentation(space, args.kmax, lmax, scramble_seed=args.seed)
    recovered = recover_space(RingPresentation.from_json(pres.to_json()))
    verdict = is_isometric(space, recovered.space)
    _emit(format_metric_csv(recovered.space), args.out)
    sys.stdout.write(
        json.dumps(
            {"roundtrip": verdict, "n": space.n, "seed": args.seed}, sort_keys=True
        )
        + "\n"
    )
    return EXIT_OK if verdict else EXIT_VERIFICATION


def _report(ok: bool, doc: dict, failures) -> int:
    doc = dict(doc)
    doc["verdict"] = "pass" if ok else "fail"
    if failures:
        doc["counterexamples"] = failures[:20]
    sys.stdout.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    if args.check == "diagonal":
        if not args.graph:
            raise InputError("--graph is required")
        graph = load_graph(args.graph)
        if args.lmax is None:
            raise InputError("verify diagonal needs --lmax")
        lmax = int(args.lmax)
        kmax = args.kmax if args.kmax is not None else min(lmax, 3)
        theorem_ok, failures = graph_algebra.verify_diagonal_theorem(graph, kmax)
        diagonal, witness = graph_algebra.is_diagonal(graph, lmax)
        if not diagonal:
            failures = failures + [f"not diagonal: {witness}"]
        return _report(
            theorem_ok and diagonal,
            {
                "check": "diagonal",
                "graph": args.graph,
                "lmax": lmax,
                "kmax": kmax,
                "diagonal_up_to_lmax": diagonal,
                "path_algebra_theorem": theorem_ok,
            },
            failures,
        )
    if args.check == "cyclic":
        if args.n is None or args.kmax is None:
            raise InputError("verify cyclic needs --n and --kmax")
        if args.n == 3 or args.n == 1:
            # C_3 = K_3 and C_1 = K_1 are complete graphs: verify diagonally
            graph = builtin_graph(f"k{args.n}")
            ok, failures = graph_algebra.verify_diagonal_theorem(graph, args.kmax)
            return _report(
                ok,
                {"check": "cyclic", "n": args.n, "routed": "complete-graph machinery"},
                failures,
            )
        gu_ok, gu_failures = cyclic.verify_gu_basis(args.n, args.kmax)
        pres_ok, pres_failures = cyclic.verify_presentation(args.n, args.kmax)
        return _report(
            gu_ok and pres_ok,
            {
                "check": "cyclic",
                "n": args.n,
                "kmax": args.kmax,
                "gu_basis": gu_ok,
                "presentation": pres_ok,
            },
            gu_failures + pres_failures,
        )
    if args.check == "poset":
        if not args.poset:
            raise InputError("verify poset needs --poset")
        poset = _poset_from_source(args.poset)
        kmax = args.kmax if args.kmax is not None else 3
        ok, failures = posets.check_graded_commutativity(poset, kmax)
        return _report(
            ok,
            {"check": "poset", "poset": args.poset, "kmax": kmax, "n": poset.n},
            failures,
        )
    if args.check == "series":
        space = _space_from_args(args)
        if args.lmax is None:
            raise InputError("verify series needs --lmax")
        lmax = Fraction(args.lmax)
        left = series.euler_series(space, lmax)
        right = series.inversion_series(space, lmax)
        ok = left == right
        failures = (
            []
            if ok
            else [f"euler: {left}", f"inversion: {right}"]
        )
        return _report(
            ok,
            {
                "check": "series",
                "lmax": format_grade(lmax),
                "euler": left.as_pairs(),
                "inversion": right.as_pairs(),
            },
            failures,
        )
    raise InputError(f"unknown check {args.check!r}")


def _poset_from_source(source: str):
    if os.path.exists(source):
        with open(source) as fh:
            return posets.parse_poset_file(fh.read())
    name = source.strip().lower()
    if name == "circle":
        return posets.circle_poset()
    if name.startswith("chain") and name[5:].isdigit():
        return posets.chain_poset(int(name[5:]))
    if name.startswith("antichain") and name[9:].isdigit():
        return posets.antichain_poset(int(name[9:]))
    raise InputError(f"unknown poset {source!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magnitude",
        description="Exact magnitude homology, cohomology rings, and recovery "
        "for finite graphs and quasi-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_args(p, lmax_required=True):
        p.add_argument("--graph", help="builtin name (kN, pN, cN, kPQ, petersen, "
                       "icosahedron) or an edge-list file")
        p.add_argument("--metric", help="metric CSV file (entries p/q, int, inf)")
        p.add_argument("--kmax", type=int, required=lmax_required)
        p.add_argument("--lmax", required=lmax_required)
        p.add_argument("--out", help="output path (default stdout)")

    for name in ("homology", "cohomology"):
        p = sub.add_parser(name, help=f"{name} table per bidegree")
        add_space_args(p)
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.set_defaults(fn=cmd_table)

    p = sub.add_parser("ring", help="export the cohomology ring presentation")
    add_space_args(p)
    p.add_argument("--seed", type=int, help="scramble the bases with this seed")
    p.set_defaults(fn=cmd_ring)

    p = sub.add_parser("recover", help="reconstruct a space from a ring presentation")
    p.add_argument("--ring", help="RingPresentation JSON file")
    p.add_argument("--graph")
    p.add_argument("--metric")
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--lmax")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("verify", help="run one of the theorem checks")
    p.add_argument("check", choices=("diagonal", "cyclic", "poset", "series"))
    p.add_argument("--graph")
    p.add_argument("--metric")
    p.add_argument("--poset")
    p.add_argument("--n", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--lmax")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag in ("kmax", "lmax"):
            value = getattr(args, flag, None)
            try:
                negative = value is not None and Fraction(value) < 0
            except ZeroDivisionError:
                raise InputError(f"--{flag} has a zero denominator: {value}") from None
            if negative:
                raise InputError(f"--{flag} must be nonnegative, got {value}")
        return args.fn(args)
    # InvalidSpace, ZeroDistance, InvalidPoset and InvalidPresentation are
    # ValueErrors
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
