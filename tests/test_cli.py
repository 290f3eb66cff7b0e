import json

import pytest

from condchrom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_col(capsys):
    code, out, _ = run(capsys, "generate", "wd:3,1")
    assert code == 0
    assert out.splitlines()[0] == "p edge 3 3"


def test_generate_dot(capsys):
    code, out, _ = run(capsys, "generate", "cyc:4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")


def test_generate_to_file_writes_provenance(tmp_path, capsys):
    target = tmp_path / "g.col"
    code, out, _ = run(capsys, "generate", "M(fr:1)", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("p edge 6 ")
    sidecar = json.loads((tmp_path / "g.col.provenance.json").read_text())
    assert sidecar["spec"] == "M(fr:1)"
    assert len(sidecar["paper_pos"]) == 6


@pytest.mark.parametrize("spec, scheme, paper_pos", [
    ("L(wd:4,2)", "line-windmill", list(range(1, 13))),
    ("M(cyc:5)", "middle-cycle", [1, 2, 3, 4, 5, 6, 10, 7, 8, 9]),
    ("M(fr:2)", "middle-friendship", [5, 6, 7, 8, 9, 1, 2, 3, 4, 10, 11]),
    ("M(kpart:1,1,2)", "middle-multipartite", [6, 7, 8, 9, 1, 2, 3, 4, 5]),
    ("M(kpart:2,3)", "middle-bipartite", list(range(1, 12))),
    ("wd:3,2", "identity", [1, 2, 3, 4, 5]),
])
def test_generate_sidecar_numbering(tmp_path, capsys, spec, scheme, paper_pos):
    target = tmp_path / "g.col"
    assert run(capsys, "generate", spec, "-o", str(target))[0] == 0
    sidecar = json.loads((tmp_path / "g.col.provenance.json").read_text())
    assert (sidecar["scheme"], sidecar["paper_pos"]) == (scheme, paper_pos)


def test_generate_bad_spec(capsys):
    code, _, err = run(capsys, "generate", "zz:3")
    assert code == 2
    assert "error:" in err


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "M(cyc:4)", "-r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi_r"] == 4
    assert doc["proven"] is True
    assert len(doc["witness"]["colors"]) == 8


def test_solve_from_file(tmp_path, capsys):
    target = tmp_path / "g.col"
    run(capsys, "generate", "wd:3,2", "-o", str(target))
    code, out, _ = run(capsys, "solve", "--file", str(target), "-r", "4")
    assert code == 0
    assert json.loads(out)["chi_r"] == 5


def test_solve_size_cap(capsys):
    code, _, err = run(capsys, "solve", "M(cyc:30)", "-r", "2")
    assert code == 2 and "--force" in err


def test_solve_budget_exit(capsys):
    code, out, _ = run(capsys, "solve", "M(fr:2)", "-r", "5", "--max-nodes", "3")
    assert code == 3
    assert json.loads(out)["proven"] is False
    # The budget runs out at k = 5, but the exact Vset-d2r bound 5 meets the
    # all-distinct coloring of C_5: the bracket is closed, so exit 0.
    code, out, _ = run(capsys, "solve", "cyc:5", "-r", "2", "--max-nodes", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["bracket"] == [5, 5] and doc["proven"] is True and doc["chi_r"] == 5


def test_solve_requires_input(capsys):
    code, _, err = run(capsys, "solve", "-r", "2")
    assert code == 2 and "spec" in err


def test_construct_verify_valid(capsys):
    code, out, _ = run(capsys, "construct", "M(cyc:5)", "-r", "2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["proposition"] == 5
    assert doc["verification"]["valid"] is True


def test_construct_verify_invalid(capsys):
    # the published small-r constants clash at n=1; exit reflects the check
    code, out, _ = run(capsys, "construct", "M(fr:1)", "-r", "2", "--verify")
    assert code == 1
    assert json.loads(out)["verification"]["valid"] is False


def test_construct_unsupported_case(capsys):
    code, _, err = run(capsys, "construct", "M(cyc:5)", "-r", "4")
    assert code == 2 and "error:" in err


def test_verify_command(tmp_path, capsys):
    gfile = tmp_path / "g.col"
    run(capsys, "generate", "cyc:4", "-o", str(gfile))

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"k": 4, "colors": [1, 2, 3, 4]}))
    code, out, _ = run(capsys, "verify", str(gfile), str(good), "-r", "2")
    assert code == 0 and json.loads(out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2, "colors": [1, 2, 1, 2]}))
    code, out, _ = run(capsys, "verify", str(gfile), str(bad), "-r", "2")
    assert code == 1
    assert json.loads(out)["c2_violations"]

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"k": 2, "colors": [1, 2]}))
    code, _, err = run(capsys, "verify", str(gfile), str(short), "-r", "2")
    assert code == 2 and "entries" in err

    code, _, err = run(capsys, "verify", str(tmp_path / "nope.col"), str(good), "-r", "2")
    assert code == 2


@pytest.mark.parametrize(
    "coloring",
    ['{"k": 4, "colors": [1, 2', '{"k": 4}', '{"k": 4, "colors": [1, "2", 3, 4]}'],
    ids=["malformed-json", "missing-colors", "non-integer-color"],
)
def test_verify_rejects_bad_coloring_file(tmp_path, capsys, coloring):
    gfile = tmp_path / "g.col"
    run(capsys, "generate", "cyc:4", "-o", str(gfile))
    cfile = tmp_path / "c.json"
    cfile.write_text(coloring)
    code, _, err = run(capsys, "verify", str(gfile), str(cfile), "-r", "2")
    assert code == 2 and err.startswith("error:")


def test_dimacs_non_integer_endpoint(tmp_path, capsys):
    gfile = tmp_path / "g.col"
    gfile.write_text("p edge 2 1\ne 1 x\n")
    code, _, err = run(capsys, "solve", "--file", str(gfile), "-r", "1")
    assert code == 2 and err.startswith("error:") and "line 2" in err


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "1", "--n", "1..x")
    assert code == 2 and err.startswith("error:")


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "M(fr:1)", "-r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["clique"]["value"] == 3
    assert doc["vset_d2r"]["value"] == 6
    assert doc["best"]["value"] == 6 and doc["best"]["kind"] == "vset-d2r"

    # A small --max-nodes cuts the Vset search; best is picked from the
    # reports shown, not from a second search under another budget.
    code, out, _ = run(capsys, "bounds", "M(fr:1)", "-r", "4", "--max-nodes", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["vset_d2r"]["exact"] is False
    shown = [rep for key, rep in doc.items() if key != "best"]
    assert doc["best"] == max(shown, key=lambda rep: rep["value"])


def test_basic_bound_on_a_disconnected_graph(tmp_path, capsys):
    # K_{1,4} plus an isolated vertex: min{r, Delta} + 1 holds on any graph
    # with an edge, and at r = 3 it beats the clique (2) and the Vset (2).
    path = tmp_path / "star.col"
    path.write_text("p edge 6 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n")
    code, out, _ = run(capsys, "bounds", "--file", str(path), "-r", "3")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["clique", "vset_d2r", "best", "basic_r_delta"]
    assert doc["best"] == {"value": 4, "kind": "basic-r-delta",
                           "certificate": None, "exact": True}
    code, out, _ = run(capsys, "solve", "--file", str(path), "-r", "3")
    doc = json.loads(out)
    assert code == 0 and doc["chi_r"] == 4 and doc["proven"] is True
    assert doc["lower_bound"]["kind"] == "basic-r-delta"
    assert doc["lower_bound"]["value"] == 4


def test_table_single_prop(capsys):
    code, out, _ = run(capsys, "table", "5", "--n", "4..5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proposition,instance,")
    assert "ms" not in lines[0]
    assert len(lines) == 5  # header + (n, r) in {4,5} x {2,3}
    assert all(",True," in line for line in lines[1:])


def test_table_deterministic(capsys):
    code1, out1, _ = run(capsys, "table", "7")
    code2, out2, _ = run(capsys, "table", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_timing_column_opt_in(capsys):
    _, out, _ = run(capsys, "table", "5", "--n", "4..4", "--timing")
    assert out.splitlines()[0].endswith(",ms")


def test_table_json_format(capsys):
    code, out, _ = run(capsys, "table", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["match"] for row in rows)
    assert [row["formula"] for row in rows] == [6, 4, 6, 8]


def test_table_bad_proposition(capsys):
    code, _, err = run(capsys, "table", "9")
    assert code == 2 and "proposition" in err
    code, _, err = run(capsys, "table", "x")
    assert code == 2 and err.startswith("error:") and "proposition" in err


def test_bad_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("CONDCHROM_MAX_NODES", "abc")
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "wd:3,2", "-r", "2"])
    assert exit_.value.code == 2 and "error:" in capsys.readouterr().err
    monkeypatch.setenv("CONDCHROM_MAX_NODES", "-5")
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "wd:3,2", "-r", "2"])
    assert exit_.value.code == 2 and "error:" in capsys.readouterr().err
    monkeypatch.delenv("CONDCHROM_MAX_NODES")
    # A negative budget is a usage error on every command that takes one.
    for argv in (["solve", "cyc:5", "-r", "2"], ["bounds", "cyc:5", "-r", "2"],
                 ["table", "5"]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--max-nodes", "-1"])
        assert exit_.value.code == 2, argv
        assert "error:" in capsys.readouterr().err
    # Commands without --max-nodes do not read it.
    code, _, _ = run(capsys, "construct", "wd:3,2", "-r", "2")
    assert code == 0
