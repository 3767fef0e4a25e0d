"""Record the exact outputs that the benchmark checks against.

    python3 perfbench/make_reference.py

writes ``perfbench/reference.json`` from the engine in this checkout (about
20 seconds).  The recorded facts do not depend on the run's seed:

* ``groups``: the homology table of the Petersen graph for k <= 4, l <= 5
  (a relabelling is an isometry, so every seed must reproduce it);
* ``ring.export``: the bidegrees (rank and torsion) and the SHA-256 of the
  bytes of the Petersen presentation for k <= 2, l <= 2 at its fixed
  scramble seed;
* ``ring.products``: the class product of every pair of basis classes of
  (1,1) x (2,3) and (2,3) x (1,1) into (3,4), from which the benchmark
  derives any seeded product by bilinearity.  The cochain cup is computed
  here directly from the supports of sparse representatives, independently
  of ``cup_cochain``, and a sample is compared with ``class_product``;
* ``series``: the Euler series to grade 4 of C48 and of the chorded C40
  (checked against the similarity-matrix inversion, and at three seeds,
  before it is recorded);
* ``recover.verdict``: every scrambled round-trip must recover an isometric
  space.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

lib = workloads.import_library()
homology, ring, series, spaces = lib.homology, lib.ring, lib.series, lib.spaces


def groups_reference():
    return {"table": workloads.run_homology_table(lib, spaces.petersen_graph())}


def export_reference():
    text = workloads.run_export(lib, spaces.petersen_graph(), workloads.EXPORT_SCRAMBLE_SEED)
    return {
        "scramble_seed": workloads.EXPORT_SCRAMBLE_SEED,
        "sha256": workloads.digest(text),
        "bidegrees": json.loads(text)["bidegrees"],
    }


def products_reference():
    space = spaces.space_from_graph(spaces.petersen_graph())
    engine = homology.MagnitudeHomology(space, kmax=4, lmax=5)
    dims, blocks = {}, {}
    for a, b in workloads.PRODUCT_BLOCKS:
        target = (a[0] + b[0], a[1] + b[1])
        qa, qb, qt = (engine.cohomology_quotient(k, Fraction(l)) for k, l in (a, b, target))
        for bideg, q in ((a, qa), (b, qb), (target, qt)):
            dims[workloads.bideg_key(bideg)] = q.dim
            if q.group.torsion:
                raise SystemExit(f"torsion in {bideg}: bilinear reference needs free blocks")
        reps_a = [_support(qa.representative(i), engine.simplices(*a)) for i in range(qa.dim)]
        reps_b = [_support(qb.representative(j), engine.simplices(*b)) for j in range(qb.dim)]
        index = engine.index(target[0], Fraction(target[1]))
        table = []
        for i, phi in enumerate(reps_a):
            for j, psi in enumerate(reps_b):
                cochain = [0] * len(index)
                for front, x in phi:
                    for back, y in psi:
                        if front[-1] == back[0]:
                            cochain[index[front + back[1:]]] += x * y
                if any(cochain):
                    coords = qt.reduce(cochain)
                    entries = [[t, v] for t, v in enumerate(coords) if v]
                    if entries:
                        table.append([i, j, entries])
        _spot_check(engine, a, b, qa.dim, qb.dim, qt.dim, table)
        blocks[f"{workloads.bideg_key(a)}x{workloads.bideg_key(b)}"] = {
            "target": [target[0], str(target[1])],
            "dim": qt.dim,
            "table": table,
        }
    return dims, blocks


def _support(vec, basis):
    return [(basis[r], v) for r, v in enumerate(vec) if v]


def _spot_check(engine, a, b, da, db, dt, table):
    rng = random.Random(0)
    lookup = {(i, j): entries for i, j, entries in table}
    for _ in range(20):
        i, j = rng.randrange(da), rng.randrange(db)
        alpha = ring.RingClass(a[0], Fraction(a[1]), tuple(int(t == i) for t in range(da)))
        beta = ring.RingClass(b[0], Fraction(b[1]), tuple(int(t == j) for t in range(db)))
        got = ring.class_product(engine, alpha, beta).coords
        want = [0] * dt
        for t, v in lookup.get((i, j), []):
            want[t] = v
        if list(got) != want:
            raise SystemExit(f"direct cup disagrees with class_product at {a}:{i} x {b}:{j}")


def series_reference():
    """The cycle, and the chorded cycle at several seeds: the chords are
    spread out, so every seed must give the same series."""
    recorded = {}
    for seed in range(3):
        for job in workloads.series_jobs(lib, random.Random(seed), None):
            euler, inversion = job.run(lib, *job.args)
            if euler != inversion:
                raise SystemExit(f"{job.name}: Euler series differs from the inversion series")
            key = job.name.removesuffix("_series")
            if recorded.setdefault(key, euler) != euler:
                raise SystemExit(f"{job.name}: the series depends on the seed")
    return recorded


def main():
    dims, products = products_reference()
    reference = {
        "groups": groups_reference(),
        "ring": {"export": export_reference(), "dims": dims, "products": products},
        "recover": {"verdict": True},
        "series": series_reference(),
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
