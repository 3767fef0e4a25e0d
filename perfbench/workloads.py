"""Seeded inputs, jobs and exact output checks for the four benchmark workloads.

Every job calls the public library functions that one CLI subcommand calls
(``homology``, ``ring``, ``recover`` and ``verify series``) on inputs that are
generated here from the run's seed.  The engine only ever receives ``Graph``
or ``QuasiMetricSpace`` values.  Outputs are checked after the timed region
against ``reference.json``, which ``make_reference.py`` records.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

MODULES = ("rationals", "spaces", "complexes", "snf", "homology", "ring", "recovery", "series")

# Sizes are chosen so that one pass over a workload's jobs takes a few
# seconds, and a run measures several passes.
GROUPS_KMAX, GROUPS_LMAX = 4, 5
EXPORT_KMAX, EXPORT_LMAX = 2, 2
# Export cost moves by about 20% with the scramble seed (the density of the
# random unimodular change of basis), which would add to the seed-to-seed
# spread of wall_s, so the export's scramble is fixed; the seed picks the
# class coordinates of the products.
EXPORT_SCRAMBLE_SEED = 0
PRODUCT_BLOCKS = (((1, 1), (2, 3)), ((2, 3), (1, 1)))  # both land in PRODUCT_TARGET
PRODUCT_TARGET = (3, 4)
PRODUCTS_PER_BLOCK = 10
PRODUCT_COEFFS = (-2, -1, 0, 1, 2)
GRAPH_SIZES = (4, 5, 5, 6, 6, 6)
SERIES_LMAX = 4
SERIES_CYCLE = 48
SERIES_CHORDED, SERIES_CHORDS = 40, 3


def import_library() -> SimpleNamespace:
    """Import the engine afresh, dropping any cached modules, so that every
    set-up pays for the import."""
    for name in [m for m in sys.modules if m == "magnitude" or m.startswith("magnitude.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"magnitude.{m}") for m in MODULES})


@dataclass
class Job:
    name: str
    run: Callable  # run(lib, *args) -> output
    args: tuple
    check: Callable  # check(reference, job, output) -> list of problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# groups: the homology table of a relabelled Petersen graph
# --------------------------------------------------------------------------

def groups_jobs(lib, rng, reference):
    perm = list(range(10))
    rng.shuffle(perm)
    petersen = lib.spaces.petersen_graph()
    graph = lib.spaces.Graph.undirected(10, [(perm[u], perm[v]) for u, v in petersen.edges])
    return [Job("petersen_homology", run_homology_table, (graph,), check_groups)]


def run_homology_table(lib, graph):
    space = lib.spaces.space_from_graph(graph)
    engine = lib.homology.MagnitudeHomology(space)
    rows = []
    for l in lib.complexes.realizable_grades(space, Fraction(GROUPS_LMAX)):
        for k in range(min(GROUPS_KMAX, engine.degree_bound(l)) + 1):
            group = engine.homology(k, l)
            rows.append([k, lib.rationals.format_grade(l), group.rank, list(group.torsion)])
    return rows


def check_groups(reference, job, rows):
    expected = reference["groups"]["table"]
    if rows == expected:
        return []
    wrong = [r for r in rows if r not in expected] + [r for r in expected if r not in rows]
    return [f"homology table differs at {wrong[:3]}"]


# --------------------------------------------------------------------------
# ring: scrambled presentation export and class products into (3, 4)
# --------------------------------------------------------------------------

def ring_jobs(lib, rng, reference):
    graph = lib.spaces.petersen_graph()
    dims = reference["ring"]["dims"]
    pairs = []
    for a, b in PRODUCT_BLOCKS:
        for _ in range(PRODUCTS_PER_BLOCK):
            pairs.append(
                (
                    (a, tuple(rng.choice(PRODUCT_COEFFS) for _ in range(dims[bideg_key(a)]))),
                    (b, tuple(rng.choice(PRODUCT_COEFFS) for _ in range(dims[bideg_key(b)]))),
                )
            )
    return [
        Job("petersen_export", run_export, (graph, EXPORT_SCRAMBLE_SEED), check_export),
        Job("petersen_products", run_products, (graph, tuple(pairs)), check_products),
    ]


def run_export(lib, graph, scramble_seed):
    space = lib.spaces.space_from_graph(graph)
    pres = lib.ring.export_presentation(
        space, EXPORT_KMAX, Fraction(EXPORT_LMAX), scramble_seed=scramble_seed
    )
    return pres.to_json()


def run_products(lib, graph, pairs):
    space = lib.spaces.space_from_graph(graph)
    engine = lib.homology.MagnitudeHomology(space, kmax=PRODUCT_TARGET[0], lmax=PRODUCT_TARGET[1])
    out = []
    for (a, coords_a), (b, coords_b) in pairs:
        alpha = lib.ring.RingClass(a[0], Fraction(a[1]), coords_a)
        beta = lib.ring.RingClass(b[0], Fraction(b[1]), coords_b)
        product = lib.ring.class_product(engine, alpha, beta)
        out.append([product.k, lib.rationals.format_grade(product.l), list(product.coords)])
    return out


def check_export(reference, job, text):
    ref = reference["ring"]["export"]
    bidegrees = json.loads(text)["bidegrees"]
    if bidegrees != ref["bidegrees"]:
        return [f"export bidegrees differ: {bidegrees} != {ref['bidegrees']}"]
    if digest(text) != ref["sha256"]:
        return [f"presentation digest {digest(text)[:16]} != recorded {ref['sha256'][:16]}"]
    return []


def expected_products(reference, pairs):
    """Seeded class products by bilinearity from the recorded products of
    basis classes (the recorded blocks are torsion-free)."""
    out = []
    for (a, coords_a), (b, coords_b) in pairs:
        block = reference["ring"]["products"][f"{bideg_key(a)}x{bideg_key(b)}"]
        want = [0] * block["dim"]
        for i, j, entries in block["table"]:
            c = coords_a[i] * coords_b[j]
            if c:
                for t, v in entries:
                    want[t] += c * v
        out.append([block["target"][0], block["target"][1], want])
    return out


def check_products(reference, job, out):
    pairs = job.args[1]
    expected = expected_products(reference, pairs)
    if len(out) != len(expected):
        return [f"{len(out)} products for {len(expected)} pairs"]
    return [
        f"class product {n} ({a} x {b}) differs"
        for n, (((a, _), (b, _)), got, want) in enumerate(zip(pairs, out, expected))
        if got != want
    ]


def bideg_key(b) -> str:
    return f"{b[0]},{b[1]}"


# --------------------------------------------------------------------------
# recover: scrambled export -> JSON -> recovery -> isometry, on many spaces
# --------------------------------------------------------------------------

def recover_jobs(lib, rng, reference):
    Graph = lib.spaces.Graph
    jobs = []

    def add(name, source):
        jobs.append(Job(name, run_roundtrip, (source, rng.randrange(2**31)), check_roundtrip))

    # Sizes and edge counts cycle through fixed profiles so that every seed
    # gives the same mix of job costs; the seed picks the structure.  Half of
    # the graphs have n = 6, so job_p90_s falls inside one size class.
    for idx in range(60):
        n, extra = GRAPH_SIZES[idx % 6], 1 + (idx // 6) % 3
        add(f"graph{idx:02d}_n{n}", Graph.undirected(n, _connected_edges(rng, n, extra)))
    for idx in range(20):
        n, extra = 3 + idx % 4, (idx // 4) % 4
        add(f"digraph{idx:02d}_n{n}", Graph.directed_graph(n, _strong_arcs(rng, n, extra)))
    for idx in range(20):
        n = 3 + idx % 3
        add(f"quasimetric{idx:02d}_n{n}", lib.spaces.QuasiMetricSpace(_quasi_metric(rng, n)))
    # One larger, highly symmetric space, with a fixed scramble: its cost
    # moves with the scramble, which would add to the seed-to-seed spread.
    jobs.append(Job("petersen", run_roundtrip, (lib.spaces.petersen_graph(), 0), check_roundtrip))
    return jobs


def _connected_edges(rng, n, extra):
    """A random spanning tree plus `extra` further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    return sorted(edges | set(rng.sample(missing, min(extra, len(missing)))))


def _strong_arcs(rng, n, extra):
    """A random directed Hamiltonian cycle plus `extra` further random arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    missing = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in arcs]
    return sorted(arcs | set(rng.sample(missing, min(extra, len(missing)))))


def _quasi_metric(rng, n):
    """Shortest-path closure of random asymmetric weights p/q (q <= 3)."""
    d = [
        [Fraction(0) if i == j else Fraction(rng.randint(2, 9), rng.randint(1, 3)) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def run_roundtrip(lib, source, scramble_seed):
    space = source
    if isinstance(source, lib.spaces.Graph):
        space = lib.spaces.space_from_graph(source)
    return lib.recovery.recovery_roundtrip(space, scramble_seed=scramble_seed)


def check_roundtrip(reference, job, verdict):
    expected = reference["recover"]["verdict"]
    return [] if verdict is expected else [f"round-trip verdict {verdict!r}, expected {expected!r}"]


# --------------------------------------------------------------------------
# series: Euler series against similarity-matrix inversion on large cycles
# --------------------------------------------------------------------------

def series_jobs(lib, rng, reference):
    n = SERIES_CHORDED
    edges = [(i, (i + 1) % n) for i in range(n)] + _spread_chords(rng, n, SERIES_CHORDS)
    return [
        Job("cycle_series", run_series, (lib.spaces.cycle_graph(SERIES_CYCLE),), check_series),
        Job("chorded_series", run_series, (lib.spaces.Graph.undirected(n, edges),), check_series),
    ]


def _spread_chords(rng, n, count):
    """`count` random chords of the n-cycle whose 2*count endpoints are at
    least 5 apart along the cycle and whose ends are at least 9 apart.

    No path of length <= 4 then uses two chords, and no chord closes a cycle
    shorter than 10, so every seed gives the same local structure up to grade
    4 and the same amount of work; the seed picks where the chords sit."""
    gaps = [5] * (2 * count)
    for _ in range(n - sum(gaps)):
        gaps[rng.randrange(len(gaps))] += 1
    offset = rng.randrange(n)
    ends, at = [], offset
    for gap in gaps:
        ends.append(at % n)
        at += gap
    while True:
        rng.shuffle(ends)
        chords = list(zip(ends[::2], ends[1::2]))
        if all(min((u - v) % n, (v - u) % n) >= 9 for u, v in chords):
            return chords


def run_series(lib, graph):
    space = lib.spaces.space_from_graph(graph)
    lmax = Fraction(SERIES_LMAX)
    euler = lib.series.euler_series(space, lmax)
    inversion = lib.series.inversion_series(space, lmax)
    return [[list(p) for p in euler.as_pairs()], [list(p) for p in inversion.as_pairs()]]


def check_series(reference, job, out):
    euler, inversion = out
    problems = [] if euler == inversion else ["Euler series differs from the inversion series"]
    if euler != reference["series"][job.name.removesuffix("_series")]:
        problems.append("Euler series differs from the recorded coefficients")
    return problems


WORKLOADS = {"groups": groups_jobs, "ring": ring_jobs, "recover": recover_jobs, "series": series_jobs}


def make_jobs(workload: str, lib, seed: int, reference) -> list:
    return WORKLOADS[workload](lib, random.Random(f"{workload}/{seed}"), reference)
