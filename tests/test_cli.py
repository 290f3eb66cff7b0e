import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from condchrom import cli, constructions, families
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


def test_solve_builds_each_graph_once(capsys, monkeypatch):
    # A spec is sized before it is built; sizing a line or middle graph of a
    # line or middle graph would build its inner graph, so that is built once,
    # whole, and sized afterwards.
    build, calls = families.build, []

    def counted(spec):
        calls.append(str(spec))
        return build(spec)

    monkeypatch.setattr(families, "build", counted)
    for spec, code, builds in (("M(cyc:5)", 0, 2), ("M(cyc:30)", 2, 0),
                               ("L(L(cyc:5))", 0, 3), ("L(L(cyc:30))", 2, 3)):
        calls.clear()
        assert run(capsys, "solve", spec, "-r", "2")[0] == code, spec
        assert len(calls) == builds, (spec, calls)


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
    for option, text in (("--n", "1..x"), ("--k", "5..1")):
        code, out, err = run(capsys, "table", "1", option, text)
        assert code == 2 and err.startswith("error:") and not out, text


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


def test_parser_is_built_once(monkeypatch, capsys):
    build_parser, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for argv in (["solve", "cyc:5", "-r", "2"], ["construct", "wd:3,2", "-r", "2"],
                     ["table", "5", "--n", "4"], ["bounds", "cyc:5", "-r", "2"]):
            assert run(capsys, *argv)[0] == 0, argv
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_budget_variable_is_read_on_every_call(capsys, monkeypatch):
    def solve(*extra):
        code, out, _ = run(capsys, "solve", "M(fr:3)", "-r", "7", *extra)
        doc = json.loads(out)
        return code, doc["bracket"], doc["nodes_expanded"]

    monkeypatch.setenv("CONDCHROM_MAX_NODES", "5")
    assert solve() == (3, [8, 16], 6)
    monkeypatch.delenv("CONDCHROM_MAX_NODES")
    code, bracket, _ = solve()
    assert (code, bracket) == (0, [8, 8])
    # --max-nodes on the command line wins over the variable, good or bad.
    monkeypatch.setenv("CONDCHROM_MAX_NODES", "5")
    assert solve("--max-nodes", "0")[:2] == (0, [8, 8])
    for bad in ("abc", "-5"):
        monkeypatch.setenv("CONDCHROM_MAX_NODES", bad)
        assert solve("--max-nodes", "5") == (3, [8, 16], 6)
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "M(fr:3)", "-r", "7"])
        assert exit_.value.code == 2 and "error:" in capsys.readouterr().err


def test_help_twice(capsys):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("usage: condchrom")


def test_table_all_builds_each_delta_once(capsys, monkeypatch):
    # covered_levels, predicted_chi_r and construct share one Delta per spec.
    build, calls = families.build, []

    def counted(spec):
        calls.append(spec)
        return build(spec)

    constructions._max_degree.cache_clear()
    monkeypatch.setattr(families, "build", counted)
    golden = Path(__file__).parents[1] / "condbench" / "table_all.csv"
    code, out, _ = run(capsys, "table", "all")
    assert code == 0 and out == golden.read_text()
    assert len(calls) <= 63


def _capped_cli(*argv):
    """The CLI in a child process under a 512 MB address-space limit, so an
    input that allocates without bound fails there, not in the test runner."""
    limit = 512 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "condchrom.cli", *argv],
                          env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)


def test_oversized_inputs_exit_2_before_building(tmp_path):
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 99999999999 0\n")
    for argv in (["solve", "wd:3,99999999", "-r", "1"],
                 ["solve", "wd:3,99999999", "-r", "1", "--force"],
                 ["bounds", "--file", str(huge), "-r", "1"]):
        proc = _capped_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert _capped_cli("solve", "M(cyc:5)", "-r", "2").returncode == 0
