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
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction

from . import cyclic, graph_algebra, posets, series
from .complexes import realizable_grades
from .homology import MagnitudeHomology
from .rationals import format_grade, parse_grade
from .recovery import recover_space
from .ring import RingPresentation, export_presentation
from .spaces import (
    InputError,
    adjacent_pairs,
    builtin_graph,
    format_metric_csv,
    is_isometric,
    load_graph,
    parse_metric_file,
    space_from_graph,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


@contextmanager
def _parsing():
    """Report a ValueError raised while reading an input file as an
    InputError; ValueErrors of the engine itself are faults, not exit 2."""
    try:
        yield
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(exc) from None


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError (one-line message,
    exit 2) instead of printing the usage block."""

    def error(self, message):
        raise InputError(message)


def nonnegative_int(text: str) -> int:
    """The type of --kmax and of diagonal's --lmax."""
    with suppress(ValueError):
        if (value := int(text)) >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def grade(text: str) -> Fraction:
    """The type of every other --lmax: a refusal names parse_grade's reason."""
    try:
        return parse_grade(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _space_from_args(args):
    with _parsing():
        if args.metric:
            with open(args.metric) as fh:
                return parse_metric_file(fh.read())
        return space_from_graph(load_graph(args.graph))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table(args) -> int:
    """The homology or cohomology table, after args.command, in (l, k) order."""
    space = _space_from_args(args)
    engine = MagnitudeHomology(space)
    rows = []
    for l in realizable_grades(space, args.lmax):
        for k in range(min(args.kmax, engine.degree_bound(l)) + 1):
            group = engine.homology(k, l) if args.command == "homology" else engine.cohomology(k, l)
            rows.append((k, format_grade(l), group.rank, list(group.torsion)))
    if args.format == "tsv":
        lines = ["k\tl\trank\ttorsion"]
        for k, l, rank_, torsion in rows:
            lines.append(f"{k}\t{l}\t{rank_}\t{','.join(map(str, torsion))}")
        text = "\n".join(lines) + "\n"
    else:
        blocks = [{"k": k, "l": l, "rank": rank_, "torsion": torsion} for k, l, rank_, torsion in rows]
        text = json.dumps({"table": args.command, "blocks": blocks}, indent=1, sort_keys=True) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_ring(args) -> int:
    space = _space_from_args(args)
    pres = export_presentation(space, args.kmax, args.lmax, scramble_seed=args.seed)
    _emit(pres.to_json(), args.out)
    return EXIT_OK


def cmd_recover(args) -> int:
    if args.ring:
        for flag in ("kmax", "lmax", "seed"):
            if getattr(args, flag) is not None:
                raise InputError(f"argument --{flag}: not allowed with argument --ring")
        with _parsing(), open(args.ring) as fh:
            text = fh.read()
        _emit(format_metric_csv(recover_space(RingPresentation.from_json(text))), args.out)
        return EXIT_OK
    space = _space_from_args(args)
    # the defaults apply to the round trip alone; the grade range is the
    # space's, which the parser cannot know
    kmax = 1 if args.kmax is None else args.kmax
    seed = 0 if args.seed is None else args.seed
    lmax = space.max_finite_distance() if args.lmax is None else args.lmax
    pairs = adjacent_pairs(space)
    longest = max((p.length for p in pairs), default=0)
    if pairs and (kmax < 1 or lmax < longest):
        raise InputError(
            f"--kmax {kmax} --lmax {format_grade(lmax)} hides degree-one blocks the "
            f"round trip needs (kmax >= 1, lmax >= {format_grade(longest)})"
        )
    pres = export_presentation(space, kmax, lmax, scramble_seed=seed)
    recovered = recover_space(RingPresentation.from_json(pres.to_json()))
    verdict = is_isometric(space, recovered)
    _emit(format_metric_csv(recovered), args.out)
    sys.stdout.write(
        json.dumps(
            {"roundtrip": verdict, "n": space.n, "seed": seed}, sort_keys=True
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


def cmd_diagonal(args) -> int:
    with _parsing():
        graph = load_graph(args.graph)
    # the default degree range follows --lmax, which the parser cannot read
    kmax = min(args.lmax, 3) if args.kmax is None else args.kmax
    theorem_ok, failures = graph_algebra.verify_diagonal_theorem(graph, kmax)
    diagonal, witness = graph_algebra.is_diagonal(graph, args.lmax)
    if not diagonal:
        failures = failures + [f"not diagonal: {witness}"]
    return _report(
        theorem_ok and diagonal,
        {
            "check": "diagonal",
            "graph": args.graph,
            "lmax": args.lmax,
            "kmax": kmax,
            "diagonal_up_to_lmax": diagonal,
            "path_algebra_theorem": theorem_ok,
        },
        failures,
    )


def cmd_cyclic(args) -> int:
    if args.n == 3:
        # C_3 = K_3 is a complete graph: verify diagonally
        graph = builtin_graph("k3")
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


def cmd_poset(args) -> int:
    with _parsing():
        poset = posets.load_poset(args.poset)
    ok, failures = posets.check_graded_commutativity(poset, args.kmax)
    return _report(
        ok,
        {"check": "poset", "poset": args.poset, "kmax": args.kmax, "n": poset.n},
        failures,
    )


def cmd_series(args) -> int:
    space = _space_from_args(args)
    left = series.euler_series(space, args.lmax)
    right = series.inversion_series(space, args.lmax)
    ok = left == right
    failures = [] if ok else [f"euler: {left}", f"inversion: {right}"]
    return _report(
        ok,
        {
            "check": "series",
            "lmax": format_grade(args.lmax),
            "euler": left.as_pairs(),
            "inversion": right.as_pairs(),
        },
        failures,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magnitude",
        description="Exact magnitude homology, cohomology rings, and recovery "
        "for finite graphs and quasi-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sources(p):
        """The space sources, of which exactly one must be given."""
        sources = p.add_mutually_exclusive_group(required=True)
        sources.add_argument("--graph", help="builtin name (kN, pN, cN, kPQ, petersen, "
                             "icosahedron, mooreP) or an edge-list file")
        sources.add_argument("--metric", help="metric CSV file (entries p/q, int, inf)")
        return sources

    def add_space_args(p):
        add_sources(p)
        p.add_argument("--kmax", type=nonnegative_int, required=True)
        p.add_argument("--lmax", type=grade, required=True)
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
    add_sources(p).add_argument("--ring", help="RingPresentation JSON file")
    p.add_argument("--kmax", type=nonnegative_int, help="default: 1 (round trip only)")
    p.add_argument("--lmax", type=grade, help="default: the largest finite distance "
                   "(round trip only)")
    p.add_argument("--seed", type=int, help="default: 0 (round trip only)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("verify", help="run one of the theorem checks")
    checks = p.add_subparsers(dest="check", required=True)

    c = checks.add_parser("diagonal", help="diagonality and the path-algebra theorem")
    c.add_argument("--graph", required=True, help="builtin name or edge-list file")
    c.add_argument("--lmax", type=nonnegative_int, required=True)
    c.add_argument("--kmax", type=nonnegative_int, help="default: min(lmax, 3)")
    c.set_defaults(fn=cmd_diagonal)

    c = checks.add_parser("cyclic", help="Gu basis and presentation of the odd cycle C_n")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--kmax", type=nonnegative_int, required=True)
    c.set_defaults(fn=cmd_cyclic)

    c = checks.add_parser("poset", help="graded commutativity of a poset's ring")
    c.add_argument("--poset", required=True,
                   help="circle, chainN, antichainN, mooreP or a poset file")
    c.add_argument("--kmax", type=nonnegative_int, default=3)
    c.set_defaults(fn=cmd_poset)

    c = checks.add_parser("series", help="Euler series against similarity-matrix inversion")
    add_sources(c)
    c.add_argument("--lmax", type=grade, required=True)
    c.set_defaults(fn=cmd_series)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
