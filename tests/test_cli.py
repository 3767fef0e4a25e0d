import json

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


def test_recover_pseudo_metric_is_input_error(capsys, tmp_path):
    f = tmp_path / "pseudo.csv"
    f.write_text("0,0\n0,0\n")
    code, _, err = run(capsys, "recover", "--metric", str(f))
    assert code == 2
    assert "error" in err


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


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "homology", "--graph", "nosuch", "--kmax", "1", "--lmax", "1")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,3\n1,0,1\n3,1,0\n")  # triangle inequality fails
    code, _, err = run(capsys, "homology", "--metric", str(bad), "--kmax", "1", "--lmax", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "series", "--graph", "k3")
    assert code == 2
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

    for corrupt in (drop_rank, string_bidegree, short_unit, index_99, short_coords):
        doc = json.loads(export)
        corrupt(doc)
        f = tmp_path / f"{corrupt.__name__}.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "recover", "--ring", str(f))
        assert code == 2 and out == "", corrupt.__name__
        assert err.startswith("error:") and err.count("\n") == 1, corrupt.__name__


def test_metric_input(capsys, tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("0,1/2\n1/2,0\n")
    code, out, _ = run(capsys, "homology", "--metric", str(f), "--kmax", "2", "--lmax", "1")
    assert code == 0
    blocks = {(b["k"], b["l"]): b["rank"] for b in json.loads(out)["blocks"]}
    assert blocks[(1, "1/2")] == 2
