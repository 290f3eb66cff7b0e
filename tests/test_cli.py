import csv
import importlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_graphs import graphs

from condchrom import cli, families, kernel
from condchrom.cli import main
from condchrom.graphs import to_dimacs
from condchrom.verify import Coloring, check_conditional


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


# Nested documents of the types the CLI writes, and some it does not:
# floats, keys that are not strings, subclasses of int, str and dict, and
# text outside ASCII.
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
            | st.floats() | st.text() | st.sampled_from(["", "a\"b\\c\n\t", "\u00e9\U0001f600\x7f"]))
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=3)),
    max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(_documents)
def test_dumps_writes_what_json_dumps_writes(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_writes_subclasses_as_json_dumps_does():
    import enum

    class Level(enum.IntEnum):
        TOP = 3

    class Name(str):
        pass

    doc = {"a": [Level.TOP, Name("x"), {Name("k"): (1.5, float("nan"))}], "b": {}, "c": []}
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


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


def test_solve_and_bounds_take_a_spec_or_a_file(tmp_path, capsys):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(families.build("cyc:6")[0]))
    for command in ("solve", "bounds"):
        code, out, err = run(capsys, command, "cyc:5", "--file", str(path), "-r", "2")
        assert (code, out) == (2, "") and err.startswith("error:"), command
        code, out, err = run(capsys, command, "-r", "2")
        assert (code, out, err) == (2, "", "error: provide a family spec or --file\n")


def test_solve_size_cap(capsys):
    code, _, err = run(capsys, "solve", "M(cyc:30)", "-r", "2")
    assert code == 2 and "--force" in err


def test_negative_size_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["table", "all", "--size-cap", "-1"])
    assert exit_.value.code == 2
    assert "argument --size-cap: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [101, 1200])
def test_deeply_nested_spec_is_an_input_error(capsys, depth):
    spec = "L(" * depth + "cyc:4" + ")" * depth
    for argv in (["generate", spec], ["solve", spec, "-r", "2"],
                 ["construct", spec, "-r", "2"], ["bounds", spec, "-r", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith("error: more than 100 nested"), argv[0]


def test_spec_nested_to_the_limit_builds(capsys):
    # L(C_4) is C_4 again.
    spec = "L(" * 100 + "cyc:4" + ")" * 100
    code, out, _ = run(capsys, "generate", spec)
    assert code == 0 and out.splitlines()[0] == "p edge 4 4"


@pytest.mark.parametrize("spec", ["cyc:4 " + "x" * 3000, "kpart:1," + "," * 3000, "z" * 3000],
                         ids=["trailing", "parameters", "family"])
def test_long_bad_spec_is_quoted_in_part(capsys, spec):
    code, out, err = run(capsys, "solve", spec, "-r", "2")
    assert (code, out) == (2, "") and err.startswith("error:")
    assert len(err.encode()) < 200, err


def test_spec_over_the_size_limits_is_quoted_in_part(capsys):
    spec = "kpart:" + ",".join(["1"] * 3000)
    for command in ("construct", "bounds"):
        code, out, err = run(capsys, command, spec, "-r", "2")
        assert (code, out) == (2, "") and err.startswith("error:"), command
        assert "has 3000 vertices" in err and len(err.encode()) < 200, err


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
    # The local search colours k = 6, the lower bound, before any kernel
    # search (with the all-distinct coloring, hi would be 11 and the exit 3).
    code, out, _ = run(capsys, "solve", "M(fr:2)", "-r", "5", "--max-nodes", "3")
    doc = json.loads(out)
    assert code == 0 and doc["bracket"] == [6, 6]
    assert doc["upper_bound"] == {"source": "local-search", "moves": 2}
    # k = 7 fails 500 moves, then k = 8 is colored: the bracket stays open.
    code, out, _ = run(capsys, "solve", "M(kpart:4,4)", "-r", "6", "--max-nodes", "1000")
    doc = json.loads(out)
    assert code == 3 and doc["proven"] is False and doc["bracket"] == [7, 8]
    assert doc["nodes_expanded"] == 1001
    # The budget runs out at k = 5, but the bound 5 meets the all-distinct
    # coloring of C_5: the bracket is closed, so exit 0, with no search.
    code, out, _ = run(capsys, "solve", "cyc:5", "-r", "2", "--max-nodes", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["bracket"] == [5, 5] and doc["proven"] is True and doc["chi_r"] == 5
    assert doc["upper_bound"] == {"source": "all-distinct", "moves": 0}


@pytest.mark.parametrize("spec, r, budget, code, bracket, moves", [
    ("M(fr:5)", 11, 500_000, 0, [12, 12], 2),
    ("M(kpart:4,4)", 6, 300_000, 3, [7, 8], 511),
])
def test_budget_cut_solve_takes_hi_from_the_local_search(capsys, spec, r, budget,
                                                         code, bracket, moves):
    # The local search colors M(F_5) at r = 11, k = 12, the lower bound, in
    # 2 moves, so chi_11 = 12 is proven with no kernel node (the kernel does
    # not color it in 500,000). On M(K_{4,4}) at r = 6 it fails k = 7 and
    # colors k = 8 (chi_6 = 8): the whole budget goes on refuting k = 7, and
    # the bracket stays open.
    got = run(capsys, "solve", spec, "-r", str(r), "--force", "--max-nodes", str(budget))
    doc = json.loads(got[1])
    assert got[0] == code and doc["bracket"] == bracket
    assert doc["nodes_expanded"] == (budget + 1 if code == 3 else 0)
    assert doc["upper_bound"] == {"source": "local-search", "moves": moves}
    g = families.build(spec)[0]
    assert check_conditional(g, Coloring.from_json_dict(doc["witness"]), r).valid


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_table_all_is_proven_by_the_local_search_on_one_node(capsys, monkeypatch, name):
    # Under a one-node budget every golden row still reaches its exact value
    # with no kernel node: the lower bound meets the local search's colouring
    # or the all-distinct one, so only the nodes column changes, to 0.
    monkeypatch.setattr(kernel, "_backend", kernel.backends()[name])
    code, out, _ = run(capsys, "table", "all", "--max-nodes", "1")
    golden = (Path(__file__).parents[1] / "condbench" / "table_all.csv").read_text()
    keep = ("proposition", "instance", "n_vertices", "r", "formula", "exact", "match", "proven")
    table = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and {row["nodes"] for row in table} == {"0"}
    rows = [[row[c] for c in keep] for row in table]
    assert rows == [[row[c] for c in keep] for row in csv.DictReader(io.StringIO(golden))]


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
    ['{"k": 4, "colors": [1, 2', '{"k": 4}', '{"k": 4, "colors": [1, "2", 3, 4]}',
     "[" * 100_000 + "]" * 100_000, '{"k": 4, "colors": [' + "1" * 5000 + ", 2, 3, 4]}"],
    ids=["malformed-json", "missing-colors", "non-integer-color", "deeply-nested",
         "integer-too-long"],
)
def test_verify_rejects_bad_coloring_file(tmp_path, capsys, coloring):
    gfile = tmp_path / "g.col"
    run(capsys, "generate", "cyc:4", "-o", str(gfile))
    cfile = tmp_path / "c.json"
    cfile.write_text(coloring)
    code, _, err = run(capsys, "verify", str(gfile), str(cfile), "-r", "2")
    assert code == 2 and err.startswith("error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8)


@st.composite
def coloring_texts(draw):
    """The JSON text of a colouring of a 4-vertex graph, with k or the colours
    or the whole document possibly replaced by another JSON value, then up to
    three text edits: a slice dropped or repeated, a character or a long run
    of digits inserted, or the whole text nested in brackets."""
    doc = {"k": draw(st.integers(-1, 6)),
           "colors": draw(st.lists(st.integers(-1, 6), min_size=3, max_size=5))}
    for key in draw(st.sets(st.sampled_from(["k", "colors", "doc"]))):
        if key == "doc":
            doc = draw(JSON_VALUES)
        elif isinstance(doc, dict):
            doc[key] = draw(JSON_VALUES)
    text = json.dumps(doc)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "char", "digits", "nest"]))
        i, j = sorted(draw(st.integers(0, len(text))) for _ in range(2))
        if op == "drop":
            text = text[:i] + text[j:]
        elif op == "repeat":
            text = text[:j] + text[i:j] + text[j:]
        elif op == "char":
            text = text[:i] + draw(st.sampled_from('[]{}",:-.0123456789eE ')) + text[i:]
        elif op == "digits":
            text = text[:i] + "9" * draw(st.sampled_from([1, 20, 5000])) + text[i:]
        else:
            depth = draw(st.sampled_from([1, 50, 5000, 100_000]))
            text = "[" * depth + text + "]" * depth
    return text


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=coloring_texts(), r=st.integers(1, 3))
def test_mangled_coloring_files_exit_cleanly(tmp_path, text, r):
    gfile, cfile = tmp_path / "g.col", tmp_path / "c.json"
    gfile.write_text(to_dimacs(families.build("cyc:4")[0]))
    cfile.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(gfile), str(cfile), "-r", str(r)])
    assert code in (0, 1, 2), (text[:200], code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and not out.getvalue()
    else:
        assert json.loads(out.getvalue())["valid"] is (code == 0)


def test_dimacs_non_integer_endpoint(tmp_path, capsys):
    gfile = tmp_path / "g.col"
    gfile.write_text("p edge 2 1\ne 1 x\n")
    code, _, err = run(capsys, "solve", "--file", str(gfile), "-r", "1")
    assert code == 2 and err.startswith("error:") and "line 2" in err


def test_dimacs_second_problem_line(tmp_path, capsys):
    gfile = tmp_path / "g.col"
    gfile.write_text("p edge 3 0\np edge 4 0\n")
    code, out, err = run(capsys, "solve", "--file", str(gfile), "-r", "1")
    assert code == 2 and not out
    assert err.startswith("error:") and "second problem line" in err


JUNK_LINES = ["c a comment", "", "p edge", "p col 3 1", "p edge 3 -1", "e 1",
              "e 1 1", "e 0 2", "e a b", "x 1 2", "\t"]


@st.composite
def dimacs_texts(draw):
    """The DIMACS text of a graph on at most 12 vertices, then up to three
    edits: drop a line, repeat one, insert a junk line, or set a token to a
    small integer."""
    lines = to_dimacs(draw(graphs(max_n=12))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "junk", "number"]))
        i = draw(st.integers(0, len(lines)))
        if op == "junk":
            lines.insert(i, draw(st.sampled_from(JUNK_LINES)))
        elif not lines or i == len(lines):
            continue
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif tokens := lines[i].split():
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(draw(st.integers(-2, 14)))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(len(kernel.backends()) < 2, reason="only one backend loads")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=dimacs_texts(), command=st.sampled_from(["solve", "bounds"]),
       r=st.integers(0, 5))
def test_dimacs_files_exit_cleanly_on_both_backends(tmp_path, monkeypatch, text, command, r):
    # The file is rewritten for every example. kernel._backend is swapped in
    # place, so the `backend` field of solve names the loaded backend in
    # both runs and the rest of stdout must match. Only solve takes a budget.
    path = tmp_path / "g.col"
    path.write_text(text)
    argv = [command, "--file", str(path), "-r", str(r)]
    if command == "solve":
        argv += ["--max-nodes", "2000"]
    runs = []
    for mod in kernel.backends().values():
        monkeypatch.setattr(kernel, "_backend", mod)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (text, argv, code)
        assert "Traceback" not in err.getvalue(), (text, argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1], (text, argv)


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
    # best is picked from the reports shown, not from a search of its own.
    shown = [rep for key, rep in doc.items() if key != "best"]
    assert doc["best"] == max(shown, key=lambda rep: rep["value"])


def test_bounds_vset_search_stops_at_the_distinctness_clique(capsys):
    # The Vset-d2r of L(W_{4,12}) at r = 37 is omega(H) = 39. The search
    # reaches it at node 39 and stops there; without that stop it runs out
    # of its default 200,000 nodes and reports the set as inexact.
    code, out, _ = run(capsys, "bounds", "L(wd:4,12)", "-r", "37")
    assert code == 0
    doc = json.loads(out)
    assert doc["distinct_clique"]["value"] == 39
    assert doc["vset_d2r"]["value"] == 39 and doc["vset_d2r"]["exact"] is True
    assert doc["best"]["exact"] is True


def test_solve_starts_from_the_best_bound_of_bounds(capsys, corpus):
    for spec, g in corpus:
        for r in range(1, g.max_degree() + 2):
            _, out, _ = run(capsys, "solve", spec, "-r", str(r))
            solved = json.loads(out)
            _, out, _ = run(capsys, "bounds", spec, "-r", str(r))
            best = json.loads(out)["best"]
            assert solved["proven"], (spec, r)
            assert solved["lower_bound"]["value"] == best["value"] <= solved["chi_r"], (spec, r)


def test_basic_bound_on_a_disconnected_graph(tmp_path, capsys):
    # K_{1,4} plus an isolated vertex: min{r, Delta} + 1 holds on any graph
    # with an edge, and at r = 3 it beats the clique (2), the Vset (2) and
    # the distinctness clique (2).
    path = tmp_path / "star.col"
    path.write_text("p edge 6 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n")
    code, out, _ = run(capsys, "bounds", "--file", str(path), "-r", "3")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["clique", "vset_d2r", "best", "basic_r_delta", "distinct_clique"]
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


def test_table_refuses_a_range_its_grid_ignores(capsys):
    # Grids 4 and 7 are fixed; grids 3, 5 and 6 take only --n.
    for argv, option in ((["4", "--n", "3"], "--n"), (["5", "--k", "9"], "--k"),
                         (["7", "--k", "3", "--n", "2"], "--k")):
        code, out, err = run(capsys, "table", *argv)
        assert code == 2 and err.startswith("error:") and option in err and not out, argv


def test_table_all_applies_a_range_where_it_is_taken(capsys):
    # --k reaches grids 1 and 2 only; the other grids keep their defaults.
    golden = (Path(__file__).parents[1] / "condbench" / "table_all.csv").read_text()
    code, out, _ = run(capsys, "table", "all", "--k", "3")
    assert code == 0
    assert out.splitlines() == [line for line in golden.splitlines() if '"wd:4,' not in line]


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


def test_negative_budget_is_a_usage_error(capsys):
    # A negative budget is a usage error on every command that takes one.
    for argv in (["solve", "cyc:5", "-r", "2"], ["table", "5"]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--max-nodes", "-1"])
        assert exit_.value.code == 2, argv
        assert "error:" in capsys.readouterr().err
    # Commands without --max-nodes have no budget.
    code, _, _ = run(capsys, "construct", "wd:3,2", "-r", "2")
    assert code == 0


def test_a_line_spelled_in_full_builds_no_parser(monkeypatch, capsys):
    # A line spelled in full is read from COMMANDS alone; a line that needs
    # argparse, here for the abbreviation --max, builds the full tree once
    # and reads as the line spelled in full does.
    trees = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: trees.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for argv in (["solve", "cyc:5", "-r", "2"], ["construct", "wd:3,2", "-r", "2"],
                     ["table", "5", "--n", "4"], ["bounds", "cyc:5", "-r", "2"],
                     ["solve", "cyc:6", "-r", "2", "--max-nodes", "9"]):
            assert run(capsys, *argv)[0] == 0, argv
        assert not trees
        full = run(capsys, "solve", "cyc:6", "-r", "2", "--max-nodes", "9")
        assert run(capsys, "solve", "cyc:6", "-r", "2", "--max", "9") == full
        assert len(trees) == 1 and full[0] == 0
    finally:
        cli._parser.cache_clear()


# Words for the lines below: values that int(), a choice or nothing at all
# may take or refuse, and words only argparse reads.
QUICK_VALUES = ["", "-1", "+3", " 4", "\u0663", "a b", "two", "3..4", "0", "7", "xml"]
QUICK_JUNK = ["-h", "--", "-", "--max", "-r7", "--file=x", "nope"]


@st.composite
def command_lines(draw):
    """A command line of declared option strings, their valid and invalid
    values, positional words and words only argparse reads, under a command
    or an unknown one."""
    name = draw(st.sampled_from([*cli.COMMANDS, "nope"]))
    arguments = cli.COMMANDS[name][2:] if name in cli.COMMANDS else ()
    flags = st.sampled_from([f for fs, _ in arguments for f in fs if f.startswith("-")]
                            or QUICK_JUNK)
    values = st.sampled_from([*QUICK_VALUES, *(c for _, kw in arguments
                                               for c in kw.get("choices", ()))])
    item = st.one_of(st.tuples(flags, values).map(list), flags.map(lambda f: [f]),
                     values.map(lambda v: [v]), st.sampled_from(QUICK_JUNK).map(lambda j: [j]))
    return [name, *(word for words in draw(st.lists(item, max_size=6)) for word in words)]


@settings(max_examples=2000, deadline=None)
@given(argv=command_lines())
def test_quick_args_reads_as_the_full_tree(argv):
    quick = cli._quick_args(argv)
    if quick is not None:
        assert vars(quick) == vars(cli._parser().parse_args(argv)), argv


def test_every_documented_and_benchmarked_line_takes_the_quick_path(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "condbench"))
    workloads = importlib.import_module("workloads")
    for make in workloads.WORKLOADS.values():
        lines += [op.argv for op in make(1, tmp_path)]
    assert len(lines) > 6 + 63
    for argv in lines:
        assert cli._quick_args(argv) is not None, argv


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in cli.COMMANDS),
    ["solve", "cyc:5"],  # no -r
    ["construct", "wd:3,2", "-r", "two"],
    ["table", "5", "--max-nodes", "-1"],
    ["solve", "cyc:5", "-r", "2", "--bogus"],
])
def test_command_parser_prints_and_exits_as_the_full_tree(capsys, argv):
    outcomes = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exit_:
            parse(argv)
        out = capsys.readouterr()
        outcomes.append((exit_.value.code, out.out, out.err))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    if argv[-1] == "-h":
        assert code == 0 and out.startswith(f"usage: condchrom {argv[0]} [-h]")
    else:
        assert code == 2 and out == ""
        # Words left over are reported with the top-level usage.
        top = argv[-1] == "--bogus"
        assert err.startswith("usage: condchrom [-h]" if top else f"usage: condchrom {argv[0]}")


def test_solve_is_set_by_its_options_alone(capsys, monkeypatch):
    # The node budget comes from --max-nodes only, and the size cap is
    # lifted by --force only.
    monkeypatch.setenv("CONDCHROM_MAX_NODES", "5")
    code, out, _ = run(capsys, "solve", "M(fr:3)", "-r", "7")
    assert (code, json.loads(out)["bracket"]) == (0, [8, 8])
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "cyc:4", "-r", "2", "--size-cap", "30"])
    assert exit_.value.code == 2 and "--size-cap" in capsys.readouterr().err


def test_bounds_takes_no_node_budget(capsys):
    # Every bound that `bounds` reports runs under its own fixed budget.
    with pytest.raises(SystemExit) as exit_:
        main(["bounds", "cyc:5", "-r", "2", "--max-nodes", "5"])
    assert exit_.value.code == 2 and "--max-nodes" in capsys.readouterr().err


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

    families.declared_max_degree.cache_clear()
    monkeypatch.setattr(families, "build", counted)
    golden = Path(__file__).parents[1] / "condbench" / "table_all.csv"
    code, out, _ = run(capsys, "table", "all")
    assert code == 0 and out == golden.read_text()
    assert len(calls) <= 54


def test_construct_after_table_all_builds_each_spec_once(capsys, monkeypatch):
    # construct takes Delta from families.declared_max_degree, which `table
    # all` has worked out already, so at r = Delta it builds the spec once
    # (build builds the G of L(G) or M(G) on its way).
    golden = Path(__file__).parents[1] / "condbench" / "table_all.csv"
    families.declared_max_degree.cache_clear()
    assert run(capsys, "table", "all")[0] == 0
    rows = {(row["instance"], int(row["r"]))
            for row in csv.DictReader(io.StringIO(golden.read_text()))}
    at_delta = sorted((spec, r) for spec, r in rows if r == families.declared_max_degree(spec))
    assert len(at_delta) == 18
    build, calls = families.build, []

    def counted(spec):
        calls.append(str(spec))
        return build(spec)

    monkeypatch.setattr(families, "build", counted)
    for spec, r in at_delta:
        calls.clear()
        assert run(capsys, "construct", spec, "-r", str(r), "--verify")[0] == 0
        inner = families.parse_spec(spec).inner
        assert calls == ([spec] if inner is None else [spec, str(inner)]), spec


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
                 ["bounds", "--file", str(huge), "-r", "1"],
                 ["table", "5", "--n", "4..100000000"],
                 ["table", "1", "--k", "3..99999999", "--n", "1"],
                 ["table", "5", "--n=-99999999..5"]):
        proc = _capped_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert _capped_cli("solve", "M(cyc:5)", "-r", "2").returncode == 0


def test_a_distinctness_graph_over_the_edge_limit_exits_2():
    # wd:2,5000 is the star K_{1,5000}; at r = 5000 its distinctness graph
    # H is K_5001, 12.5 M edges, which would take several GB.
    for argv in (["bounds", "wd:2,5000", "-r", "5000"],
                 ["solve", "wd:2,5000", "-r", "5000", "--force"]):
        proc = _capped_cli(*argv)
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, argv
        assert "more than 1000000 edges" in proc.stderr


def test_an_oversized_friendship_spec_is_named_as_given(capsys):
    # fr:50001 builds Wd(3,50001), 100,003 vertices; each command names the
    # spec it was given, not the windmill's.
    for argv in (["generate", "fr:50001"], ["solve", "fr:50001", "-r", "2", "--force"],
                 ["construct", "fr:50001", "-r", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: fr:50001 has 100003 vertices"), (argv, err)


def test_closed_stdout_exits_141_without_a_message(tmp_path):
    # The witness of C_9000 is about 80 kB of JSON, more than a pipe holds,
    # so writing it fails once the reader has closed the pipe after 100
    # bytes, as `| head -c 100` does. That is not an input error: a missing
    # --file still is.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "condchrom.cli", "solve", "cyc:9000", "-r", "2", "--force"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")
    missing = _capped_cli("solve", "--file", str(tmp_path / "missing.col"), "-r", "2")
    assert missing.returncode == 2 and missing.stderr.startswith("error:")
