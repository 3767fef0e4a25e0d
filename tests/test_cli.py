import hashlib
import json
import random

import pytest

from magnitude import cli
from magnitude.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_table_tsv(capsys):
    code, out, _ = run(capsys, "homology", "--graph", "c5", "--kmax", "3", "--lmax", "3", "--format", "tsv")
    assert code == 0
    lines = [ln.rstrip() for ln in out.strip().splitlines()]
    assert lines[0] == "k\tl\trank\ttorsion"
    assert "2\t3\t10" in lines
    assert "3\t3\t10" in lines


def test_homology_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "cohomology", "--graph", "p3", "--kmax", "3", "--lmax", "3")
    assert code == 0
    doc = json.loads(out1)
    blocks = {(b["k"], b["l"]): (b["rank"], b["torsion"]) for b in doc["blocks"]}
    assert blocks[(0, "0")] == (3, [])
    assert blocks[(1, "1")] == (4, [])
    code, out2, _ = run(capsys, "cohomology", "--graph", "p3", "--kmax", "3", "--lmax", "3")
    assert out2 == out1


def test_empty_graph_table(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0 undirected\n")
    code, out, _ = run(capsys, "homology", "--graph", str(f), "--kmax", "2", "--lmax", "2")
    assert code == 0
    assert json.loads(out)["blocks"] == []


def test_ring_export_and_recover_roundtrip(capsys, tmp_path):
    ring_path = tmp_path / "p3.ring.json"
    code, _, _ = run(
        capsys, "ring", "--graph", "p3", "--kmax", "1", "--lmax", "2",
        "--seed", "5", "--out", str(ring_path),
    )
    assert code == 0
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "recover", "--ring", str(ring_path), "--out", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 3
    entries = sorted(x for row in rows for x in row.split(","))
    assert entries.count("0") == 3 and entries.count("1") == 4 and entries.count("2") == 2


def test_recover_roundtrip_verdict(capsys):
    code, out, _ = run(capsys, "recover", "--graph", "p3", "--seed", "3")
    assert code == 0
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict["roundtrip"] is True and verdict["n"] == 3
    # a point has no adjacent pair, so nothing is truncated at kmax 0
    code, out, _ = run(capsys, "recover", "--graph", "k1", "--kmax", "0")
    assert code == 0 and json.loads(out.strip().splitlines()[-1])["roundtrip"] is True


def test_ring_export_bytes_are_pinned(capsys, tmp_path):
    """The scramble is drawn in sorted (k, l) order; in grade order the (2, 2)
    block (rank 2) would come before (1, 3) (rank 4) and change these bytes."""
    f = tmp_path / "m.csv"
    f.write_text("0,1,3\n1,0,3\n3,3,0\n")
    code, out, _ = run(
        capsys, "ring", "--metric", str(f), "--kmax", "2", "--lmax", "3", "--seed", "1"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1d093dd535ab0c628f74fa426aa2f75536181bdc1952b4361750ec837ab52f27"
    )


def test_recover_pseudo_metric_is_input_error(capsys, tmp_path):
    f = tmp_path / "pseudo.csv"
    f.write_text("0,0\n0,0\n")
    for argv in (
        ("recover", "--metric", str(f)),
        ("homology", "--metric", str(f), "--kmax", "1", "--lmax", "1"),
    ):
        assert run(capsys, *argv) == (2, "", "error: distinct points 0, 1 are at distance 0\n"), argv


def test_flag_errors_name_their_reason(capsys):
    for argv, message in (
        (("homology", "--graph", "k3", "--kmax", "1", "--lmax", "inf"),
         "argument --lmax: infinite distance has no finite value"),
        (("homology", "--graph", "k3", "--kmax", "1", "--lmax", "1/0"),
         "argument --lmax: zero denominator in '1/0'"),
        (("homology", "--graph", "k3", "--kmax", "1", "--lmax", "-1"),
         "argument --lmax: distances must be nonnegative, got -1"),
        (("homology", "--graph", "k3", "--kmax", "1", "--lmax", "x"),
         "argument --lmax: expected p/q or an integer, got 'x'"),
        (("homology", "--graph", "k3", "--kmax", "-1", "--lmax", "1"),
         "argument --kmax: expected a nonnegative integer, got '-1'"),
        (("homology", "--graph", "k3", "--kmax", "x", "--lmax", "1"),
         "argument --kmax: expected a nonnegative integer, got 'x'"),
        (("recover", "--graph", "k3", "--lmax", "oo"),
         "argument --lmax: infinite distance has no finite value"),
        (("verify", "series", "--graph", "k3", "--lmax=-1/2"),
         "argument --lmax: distances must be nonnegative, got -1/2"),
        (("verify", "diagonal", "--graph", "k3", "--lmax", "-1"),
         "argument --lmax: expected a nonnegative integer, got '-1'"),
        (("verify", "diagonal", "--graph", "k3", "--lmax", "1/2"),
         "argument --lmax: expected a nonnegative integer, got '1/2'"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_a_grade_that_is_no_number_names_the_grade_forms(capsys, tmp_path):
    """A grade is finite, so refusing a non-number does not offer inf (the
    --lmax case is in the table above); a metric cell keeps its text."""
    code, ring, _ = run(capsys, "ring", "--graph", "p2", "--kmax", "1", "--lmax", "1")
    doc = json.loads(ring)
    assert code == 0 and doc["bidegrees"][1]["l"] == "1"
    doc["bidegrees"][1]["l"] = "x"
    path = tmp_path / "x.ring.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "recover", "--ring", str(path)) == (
        2, "", "error: bidegree entry 1: expected p/q or an integer, got 'x'\n"
    )


def test_verify_cyclic(capsys):
    code, out, _ = run(capsys, "verify", "cyclic", "--n", "5", "--kmax", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_cyclic_routes_k3(capsys):
    code, out, _ = run(capsys, "verify", "cyclic", "--n", "3", "--kmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["routed"] == "complete-graph machinery"


def test_verify_series(capsys):
    code, out, _ = run(capsys, "verify", "series", "--graph", "k3", "--lmax", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["euler"] == doc["inversion"]


def test_verify_diagonal_reports_nondiagonal(capsys):
    code, out, _ = run(capsys, "verify", "diagonal", "--graph", "c5", "--lmax", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["path_algebra_theorem"] is True
    assert any("MH_{2,3}" in c for c in doc["counterexamples"])


def test_verify_diagonal_pass(capsys):
    code, out, _ = run(capsys, "verify", "diagonal", "--graph", "k4", "--lmax", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_poset(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "poset", "--poset", "circle", "--kmax", "2")
    assert code == 0
    f = tmp_path / "poset.txt"
    f.write_text("3\n0 < 1\n1 < 2\n")
    code, out, _ = run(capsys, "verify", "poset", "--poset", str(f), "--kmax", "2")
    assert code == 0


def test_verify_diagonal_on_a_directed_path(capsys, tmp_path):
    f = tmp_path / "path.graph"
    f.write_text("3 directed\n0 1\n1 2\n")
    code, out, _ = run(capsys, "verify", "diagonal", "--graph", str(f), "--lmax", "2")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_verify_builtin_posets(capsys):
    # '²' is a digit but not a decimal, so int() would refuse it
    for name, want in (("chain3", 0), ("antichain2", 0), ("nosuch", 2), ("chain²", 2)):
        code, _, _ = run(capsys, "verify", "poset", "--poset", name)
        assert code == want, name


def test_moore_builtins(capsys):
    code, out, err = run(capsys, "homology", "--graph", "moore3", "--kmax", "3", "--lmax", "4")
    blocks = {(b["k"], b["l"]): (b["rank"], b["torsion"]) for b in json.loads(out)["blocks"]}
    assert (code, err) == (0, "") and blocks[(3, "4")] == (0, [3])
    code, out, err = run(capsys, "verify", "poset", "--poset", "moore2", "--kmax", "2")
    assert (code, err) == (0, "") and json.loads(out)["verdict"] == "pass"
    for name in ("moore1", "moore0", "moorex"):
        for argv in (("homology", "--graph", name, "--kmax", "1", "--lmax", "1"),
                     ("verify", "poset", "--poset", name)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and err.count("\n") == 1, argv


def test_verify_without_its_flags_exits_2(capsys):
    for argv in (
        ("diagonal", "--lmax", "2"),
        ("diagonal", "--graph", "k3"),
        ("diagonal", "--graph", "k3", "--lmax", "1/0"),
        ("cyclic", "--n", "5"),
        ("cyclic", "--n", "5", "--kmax", "2", "--poset", "circle"),
        ("poset",),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_input_errors_exit_2(capsys, tmp_path):
    for name in ("nosuch", "k²"):
        code, _, err = run(capsys, "homology", "--graph", name, "--kmax", "1", "--lmax", "1")
        assert (code, err) == (2, f"error: unknown builtin graph {name!r}\n"), name
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,3\n1,0,1\n3,1,0\n")  # triangle inequality fails
    code, _, err = run(capsys, "homology", "--metric", str(bad), "--kmax", "1", "--lmax", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "series", "--graph", "k3")
    assert code == 2
    # C_1 is no simple graph, as C_0, C_2 and C_-3 are not
    code, out, err = run(capsys, "verify", "cyclic", "--n", "1", "--kmax", "2")
    assert (code, out, err) == (2, "", "error: cycle needs at least 3 vertices\n")
    # covers naming an element outside 0..n-1, and a negative element count
    for name, text in (("above", "3\n0 < 5\n"), ("negative", "3\n0 < -1\n"), ("count", "-1\n")):
        poset = tmp_path / f"{name}.poset"
        poset.write_text(text)
        code, out, err = run(capsys, "verify", "poset", "--poset", str(poset), "--kmax", "2")
        assert code == 2 and out == "", name
        assert err.startswith("error:") and err.count("\n") == 1, name
    # a negative vertex count, and headers other than 'n [directed|undirected]'
    for name, text in (("negative", "-2\n"), ("sideways", "2 sideways\n"), ("extra", "3 undirected extra\n")):
        graph = tmp_path / f"{name}.graph"
        graph.write_text(text)
        code, out, err = run(capsys, "homology", "--graph", str(graph), "--kmax", "1", "--lmax", "1")
        assert code == 2 and out == "", name
        assert err.startswith("error:") and err.count("\n") == 1, name
    # an indented comment is a comment, not a vertex count or an edge
    outputs = []
    for name, text in (("plain", "3\n0 1\n"), ("indented", "  # note\n3\n  # note\n0 1\n")):
        graph = tmp_path / f"{name}.graph"
        graph.write_text(text)
        code, out, _ = run(capsys, "homology", "--graph", str(graph), "--kmax", "1", "--lmax", "1")
        assert code == 0, name
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # a malformed graph, poset or metric line names its number and its expected form
    for name, text, message in (
        ("fields", "3\n0 1 2\n", "line 2: expected 'u v'"),
        ("one", "3\n# note\n0\n", "line 3: expected 'u v'"),
        ("word", "3\n0 x\n", "line 2: expected 'u v'"),
        ("header", "x\n", "line 1: expected 'n [directed|undirected]'"),
        ("fraction", "3.5\n", "line 1: expected 'n [directed|undirected]'"),
        ("pair.poset", "3\n0 1\n", "line 2: expected 'a < b'"),
        ("chain.poset", "3\n0 < 1 < 2\n", "line 2: expected 'a < b'"),
        ("count.poset", "x\n", "line 1: expected 'n'"),
        ("cell.csv", "0,1\n1,x\n", "line 2: expected p/q, an integer or inf, got 'x'"),
        ("short.csv", "0,1\n1\n", "line 2: expected 2 comma-separated entries (p/q, integer or inf)"),
    ):
        path = tmp_path / name
        path.write_text(text)
        if name.endswith(".poset"):
            code, out, err = run(capsys, "verify", "poset", "--poset", str(path), "--kmax", "1")
        elif name.endswith(".csv"):
            code, out, err = run(capsys, "homology", "--metric", str(path), "--kmax", "1", "--lmax", "1")
        else:
            code, out, err = run(capsys, "homology", "--graph", str(path), "--kmax", "1", "--lmax", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n"), name
    poset = tmp_path / "indented.poset"
    poset.write_text("3\n  # note\n0 < 1\n")
    code, out, _ = run(capsys, "verify", "poset", "--poset", str(poset), "--kmax", "2")
    assert code == 0 and json.loads(out)["n"] == 3
    bare = tmp_path / "bare.json"
    bare.write_text('{"format":"magnitude-ring/1"}')
    code, _, err = run(capsys, "recover", "--ring", str(bare))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(capsys, "homology", "--graph", "c5", "--kmax", "-1", "--lmax", "2")
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(capsys, "homology", "--graph", "c5", "--kmax", "2", "--lmax", "-2")
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    for flags in (("--kmax", "1", "--lmax", "-1/2"), ("--kmax", "x", "--lmax", "1")):
        code, out, err = run(capsys, "homology", "--graph", "c5", *flags)
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    code, export, _ = run(capsys, "ring", "--graph", "p3", "--kmax", "1", "--lmax", "2")
    assert code == 0
    # space sources are exclusive, even when each alone is valid
    two = tmp_path / "two.csv"
    two.write_text("0,1\n1,0\n")
    ring = tmp_path / "p3.ring.json"
    ring.write_text(export)
    for argv in (
        ("homology", "--graph", "c5", "--metric", str(two), "--kmax", "1", "--lmax", "1"),
        ("recover", "--ring", str(ring), "--graph", "c5"),
        ("ring", "--graph", "p3", "--kmax", "1", "--lmax", "1/0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # a presentation fixes its truncation and bases: the round trip's flags are refused
    for flag, value in (("--kmax", "0"), ("--lmax", "1/2"), ("--seed", "9")):
        assert run(capsys, "recover", "--ring", str(ring), flag, value) == (
            2, "", f"error: argument {flag}: not allowed with argument --ring\n"
        ), flag

    def drop_rank(doc):
        del doc["bidegrees"][0]["rank"]

    def string_bidegree(doc):
        doc["bidegrees"][0] = "0,0"

    def short_unit(doc):
        doc["unit"].pop()

    def index_99(doc):
        doc["products"][0][0][2] = 99

    def short_coords(doc):
        doc["products"][0][3].pop()

    def repeat_product_9(doc):
        # the seeded export with a second product 9, every coordinate plus 1:
        # kept, the repeat would recover a triangle from p3
        doc.update(json.loads(seeded))
        first, second, target, coords = doc["products"][9]
        doc["products"].append([first, second, target, [v + 1 for v in coords]])

    code, seeded, _ = run(
        capsys, "ring", "--graph", "p3", "--kmax", "1", "--lmax", "2", "--seed", "1"
    )
    assert code == 0
    corruptions = (drop_rank, string_bidegree, short_unit, index_99, short_coords, repeat_product_9)
    for corrupt in corruptions:
        doc = json.loads(export)
        corrupt(doc)
        f = tmp_path / f"{corrupt.__name__}.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "recover", "--ring", str(f))
        assert code == 2 and out == "", corrupt.__name__
        assert err.startswith("error:") and err.count("\n") == 1, corrupt.__name__
    assert err == "error: product 33: repeats an earlier product\n"  # the last case
    # one point whose degree-one classes pair it with itself in grades 1 and 2
    bidegrees = [
        {"k": k, "l": l, "rank": 1, "torsion": []} for k, l in ((0, "0"), (1, "1"), (1, "2"))
    ]
    products = [[[0, "0", 0], [0, "0", 0], [0, "0"], [1]]]
    for l in ("1", "2"):
        products += [[[0, "0", 0], [1, l, 0], [1, l], [1]], [[1, l, 0], [0, "0", 0], [1, l], [1]]]
    self_pair = tmp_path / "self_pair.json"
    self_pair.write_text(json.dumps(
        {"format": "magnitude-ring/1", "bidegrees": bidegrees, "unit": [1], "products": products}
    ))
    code, out, err = run(capsys, "recover", "--ring", str(self_pair))
    assert code == 2 and out == ""
    assert err == "error: points 0 and 0 pair nontrivially in grades 1 and 2\n"
    # a round trip whose truncation hides a degree-one block is an input error
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("0,1,3\n1,0,2\n3,2,0\n")  # the adjacent pair (1, 2) has length 2
    for argv in (("--graph", "p3", "--kmax", "0"), ("--metric", str(trunc), "--lmax", "1")):
        code, out, err = run(capsys, "recover", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_product_degrees_must_be_ints(capsys, tmp_path):
    """A product naming k as 1.0 or true is refused, although both hash as 1
    and would otherwise resolve to the declared degree-one bidegree."""
    code, export, _ = run(
        capsys, "ring", "--graph", "p3", "--kmax", "1", "--lmax", "2", "--seed", "1"
    )
    assert code == 0
    for k in (1.0, True):
        doc = json.loads(export)
        for product in doc["products"]:
            for part in product[:3]:
                if part[0] == 1:
                    part[0] = k
        f = tmp_path / f"k_{k}.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "recover", "--ring", str(f))
        assert code == 2 and out == "", k
        assert err.startswith("error:") and err.count("\n") == 1, k


def test_engine_value_error_is_not_an_input_error(capsys, monkeypatch):
    """Only InputError and OSError exit 2; a ValueError raised inside the
    engine is a fault and propagates."""

    def fault(*args, **kwargs):
        raise ValueError("vector is not in the kernel")

    monkeypatch.setattr(cli, "export_presentation", fault)
    with pytest.raises(ValueError, match="vector is not in the kernel"):
        main(["ring", "--graph", "p3", "--kmax", "1", "--lmax", "2"])
    assert capsys.readouterr().err == ""


def _mutate(doc, rng):
    """One seeded corruption of an export document, named for the report."""
    products, entries = doc["products"], doc["bidegrees"]
    kind = rng.choice(("drop", "perturb", "swap", "unit", "torsion", "grade", "grade_everywhere"))
    if kind == "drop":
        products.pop(rng.randrange(len(products)))
    elif kind == "perturb":
        coords = rng.choice(products)[3]
        coords[rng.randrange(len(coords))] += rng.choice((-2, -1, 1, 2))
    elif kind == "swap":
        a, b = rng.sample(products, 2)
        a[3], b[3] = b[3], a[3]
    elif kind == "unit":
        doc["unit"][rng.randrange(len(doc["unit"]))] += rng.choice((-1, 1, 2))
    elif kind == "torsion":
        # trade a free generator for a torsion one, so the dimension stays
        entry = rng.choice([e for e in entries if e["rank"]])
        entry["rank"] -= 1
        entry["torsion"].append((entry["torsion"] or [1])[-1] * rng.choice((2, 3)))
    else:
        entry = rng.choice(entries)
        old, new = entry["l"], rng.choice(("0", "1/2", "1", "3/2", "2", "3"))
        entry["l"] = new
        if kind == "grade_everywhere":
            for product in products:
                for part in product[:3]:
                    if part[0] == entry["k"] and part[1] == old:
                        part[1] = new
    return kind


def test_mutated_exports_recover_or_exit_2(capsys, tmp_path):
    """Seeded mutations of scrambled exports: every run recovers a space
    (exit 0) or reports one error line (exit 2); none raises."""
    rng = random.Random(2024)
    codes = []
    for seed, graph in enumerate(("p3", "c4", "c5", "k23")):
        code, export, _ = run(
            capsys, "ring", "--graph", graph, "--kmax", "1", "--lmax", "2", "--seed", str(seed)
        )
        assert code == 0
        for n in range(25):
            doc = json.loads(export)
            kind = _mutate(doc, rng)
            f = tmp_path / f"{graph}_{n}.json"
            f.write_text(json.dumps(doc))
            code, out, err = run(capsys, "recover", "--ring", str(f))
            assert code in (0, 2), (graph, n, kind)
            if code == 2:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1
            else:
                assert err == ""
            codes.append(code)
    assert codes.count(0) >= 10 and codes.count(2) >= 10


def test_metric_input(capsys, tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("0,1/2\n1/2,0\n")
    code, out, _ = run(capsys, "homology", "--metric", str(f), "--kmax", "2", "--lmax", "1")
    assert code == 0
    blocks = {(b["k"], b["l"]): b["rank"] for b in json.loads(out)["blocks"]}
    assert blocks[(1, "1/2")] == 2


def test_distance_reader_output_bytes_are_pinned(capsys, tmp_path):
    """One sha256 of stdout per command that reads the public distances: the
    table of a metric with inf and 1/2 entries (TSV and JSON), the recovered
    CSV and verdict of an asymmetric metric and of K2,3, and the series check
    of a fractional metric."""
    files = {
        "inf.csv": "0,1/2,1,1\ninf,0,1/2,1\ninf,inf,0,1/2\ninf,inf,inf,0\n",
        "asym.csv": "0,1,3/2\n2,0,1/2\ninf,inf,0\n",
        "frac.csv": "0,1/2,1\n1/2,0,1/2\n1,1/2,0\n",
        "neg.csv": "0,-1\n1,0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in files}
    pins = (
        (("homology", "--metric", path["inf.csv"], "--kmax", "3", "--lmax", "2", "--format", "tsv"),
         "61d1ddcc0fc7717f4b831b35f8023fe63ad678f56ca998849cf3360b9f018aef"),
        (("cohomology", "--metric", path["inf.csv"], "--kmax", "3", "--lmax", "2"),
         "58704ec1d15c4916b73bb8da7e156ece0bb5267c158f3ce8f86eaf98f67d021a"),
        (("recover", "--metric", path["asym.csv"], "--seed", "4"),
         "c25facfafeb65aee2a83584ebfafc0464022b534d4a17899f4cf48ed79ba73ca"),
        (("recover", "--graph", "k23", "--seed", "2"),
         "fceb96e703febf7d64beedddd30e62d717e882198516c1ea3bbfbf1e56a83be3"),
        (("verify", "series", "--metric", path["frac.csv"], "--lmax", "3"),
         "75415291c6911a96b60184b9b655b315de7d289758cad35a0a76358592f8a0e2"),
    )
    for argv, digest in pins:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    # an infinite or undefined grade, and a negative distance
    for argv in (
        ("homology", "--graph", "k3", "--kmax", "1", "--lmax", "inf"),
        ("homology", "--graph", "k3", "--kmax", "1", "--lmax", "1/0"),
        ("homology", "--metric", path["neg.csv"], "--kmax", "1", "--lmax", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # the grade of a presentation's bidegree: each refusal keeps its text
    code, ring, _ = run(capsys, "ring", "--graph", "p2", "--kmax", "1", "--lmax", "1")
    doc = json.loads(ring)
    assert code == 0 and doc["bidegrees"][1]["l"] == "1"
    for grade, message in (
        ("inf", "infinite distance has no finite value"),
        ("-1", "distances must be nonnegative, got -1"),
        ("1/0", "zero denominator in '1/0'"),
    ):
        doc["bidegrees"][1]["l"] = grade
        (tmp_path / "bad.ring.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "recover", "--ring", str(tmp_path / "bad.ring.json"))
        assert (code, out, err) == (2, "", f"error: bidegree entry 1: {message}\n"), grade
