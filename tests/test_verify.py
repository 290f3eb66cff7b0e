import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import distinct_set_oracle, vset_d2r_oracle
from test_graphs import graphs

from condchrom import (
    build,
    check_c3,
    check_conditional,
    check_distinct_set,
    check_proper,
    check_vset_d2r,
    lemma2_conclusion,
    paper_indexing,
)
from condchrom.cli import main
from condchrom.constructions import color_middle_cycle
from condchrom.errors import InputError, ParameterError, PreconditionError
from condchrom.graphs import Graph
from condchrom.verify import Coloring


def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_coloring_validation():
    with pytest.raises(InputError):
        Coloring((0, 1), 2)
    with pytest.raises(InputError):
        Coloring((1, 3), 2)
    assert Coloring((1, 3, 3), 3).colors_used == 2


def test_declared_k_below_one_is_an_input_error(tmp_path, capsys):
    # k > 0 in the paper's definition, also for a graph with no vertices.
    for colors, k in (((), -3), ((1, 2, 1), -1), ((), 0)):
        with pytest.raises(InputError, match=rf"^k must be >= 1, got {k}$"):
            Coloring(colors, k)
    gfile, cfile = tmp_path / "g.col", tmp_path / "c.json"
    gfile.write_text("p edge 0 0\n")
    cfile.write_text('{"k": -3, "colors": []}')
    assert main(["verify", str(gfile), str(cfile), "-r", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: k must be >= 1, got -3\n")


def test_check_proper():
    assert check_proper(k3(), Coloring((1, 2, 3), 3)).valid
    rep = check_proper(Graph(2, [(0, 1)]), Coloring((1, 1), 1))
    assert rep.c1_violations == ((0, 1),)
    with pytest.raises(InputError):
        check_proper(k3(), Coloring((1, 2), 2))


def test_check_proper_middle_cycle_construction():
    claim = color_middle_cycle(5, 2)
    assert check_proper(claim.graph, claim.coloring).valid


def test_check_conditional():
    assert check_conditional(k3(), Coloring((1, 2, 3), 3), 2).valid
    rep = check_conditional(c4(), Coloring((1, 2, 1, 2), 2), 2)
    assert not rep.valid
    assert len(rep.c2_violations) == 4
    assert all(seen == 1 and req == 2 for _, seen, req in rep.c2_violations)
    claim = color_middle_cycle(4, 3)
    assert check_conditional(claim.graph, claim.coloring, 3).valid
    with pytest.raises(ParameterError):
        check_conditional(k3(), Coloring((1, 2, 3), 3), 0)


def test_conditional_equals_proper_violations():
    c = Coloring((1, 1, 2, 2), 2)
    g = c4()
    assert (
        check_conditional(g, c, 2).c1_violations
        == check_proper(g, c).c1_violations
    )


def test_surjectivity_reporting():
    rep = check_conditional(k3(), Coloring((1, 2, 3), 3), 1)
    assert rep.surjective and rep.colors_used == 3
    rep = check_conditional(k3(), Coloring((1, 2, 4), 4), 1)
    assert not rep.surjective and rep.colors_used == 3


def test_check_conditional_saturates_at_delta():
    g, _ = build("M(cyc:4)")
    c = Coloring(tuple((v % 4) + 1 for v in range(g.n)), 4)
    d = g.max_degree()
    rep_big = check_conditional(g, c, d + 5)
    rep_delta = check_conditional(g, c, d)
    assert rep_big.c2_violations == rep_delta.c2_violations


def test_check_c3():
    ok, witnesses = check_c3(k3(), 2)
    assert ok and witnesses[(0, 1)] == 2
    ok, _ = check_c3(Graph(2, [(0, 1)]), 1)
    assert not ok
    g, _ = build("L(wd:3,2)")
    ok, witnesses = check_c3(g, g.max_degree())
    assert ok and len(witnesses) == g.m


def test_check_vset_d2r():
    g = c4()
    assert check_vset_d2r(g, {0}, 2)
    assert not check_vset_d2r(g, {0}, 1)  # degree 2 > r
    # antipodal pair: the common neighbors exist but are outside the set
    assert not check_vset_d2r(g, {0, 2}, 2)
    assert check_vset_d2r(g, {0, 1, 2}, 2)


def test_check_distinct_set():
    # Path 0-1-2-3: 0 and 2 share vertex 1, of degree 2.
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert check_distinct_set(g, {0, 1, 2}, 2)
    assert check_distinct_set(g, [2, 1, 2], 1)
    # The only common neighbour of 0 and 2 has degree 2 > r = 1.
    assert not check_distinct_set(g, {0, 2}, 1)
    # 0 and 3 share no neighbour at all.
    assert not check_distinct_set(g, {0, 3}, 3)
    with pytest.raises(InputError):
        check_distinct_set(g, {0, 4}, 2)
    with pytest.raises(InputError):
        check_distinct_set(g, {-1}, 2)
    with pytest.raises(ParameterError):
        check_distinct_set(g, {0}, 0)


def test_check_distinct_set_accepts_every_vset_d2r():
    g, _ = build("M(fr:1)")
    prov = paper_indexing("M(fr:1)")
    s = {prov.internal_of(i) for i in (1, 2, 3, 4, 5, 6)}
    assert check_vset_d2r(g, s, 4) and check_distinct_set(g, s, 4)


@st.composite
def graphs_with_members(draw):
    g = draw(graphs(max_n=9))
    members = draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    return g, members, draw(st.integers(1, g.n))


@given(graphs_with_members())
def test_certificate_checks_match_pair_loop_oracles(case):
    # Member lists repeat ids; each check reads them as a set.
    g, members, r = case
    assert check_vset_d2r(g, members, r) == vset_d2r_oracle(g, members, r)
    assert check_distinct_set(g, members, r) == distinct_set_oracle(g, members, r)


@given(graphs_with_members(), st.booleans())
def test_certificate_checks_reject_out_of_range_ids(case, above):
    g, members, r = case
    members = [*members, g.n if above else -1]
    for check in (check_vset_d2r, check_distinct_set):
        with pytest.raises(InputError):
            check(g, members, r)


def test_check_vset_paper_certificate_middle_friendship():
    # S = {v_1..v_5, v_6} at n=1, r = Delta = 4
    g, _ = build("M(fr:1)")
    prov = paper_indexing("M(fr:1)")
    s = {prov.internal_of(i) for i in (1, 2, 3, 4, 5, 6)}
    assert check_vset_d2r(g, s, 4)


def test_vset_monotone_in_r():
    g, _ = build("L(wd:3,2)")
    prov = paper_indexing("L(wd:3,2)")
    s = {prov.internal_of(i) for i in (1, 2, 3, 4, 5)}
    hit = [r for r in range(1, 8) if check_vset_d2r(g, s, r)]
    assert hit == list(range(hit[0], 8))  # once true, stays true


def test_lemma2_conclusion():
    assert lemma2_conclusion(k3(), Coloring((1, 2, 3), 3), 2)
    from condchrom.constructions import color_middle_multipartite_delta

    claim = color_middle_multipartite_delta([1, 1, 1])
    assert lemma2_conclusion(claim.graph, claim.coloring, claim.graph.max_degree())
    with pytest.raises(PreconditionError, match="C3"):
        lemma2_conclusion(Graph(2, [(0, 1)]), Coloring((1, 2), 2), 1)
    with pytest.raises(PreconditionError, match="C2"):
        lemma2_conclusion(k3(), Coloring((1, 1, 1), 1), 2)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_report_empty_iff_conditional_coloring(r, data):
    g = c4()
    colors = tuple(
        data.draw(st.integers(min_value=1, max_value=4)) for _ in range(g.n)
    )
    c = Coloring(colors, 4)
    rep = check_conditional(g, c, r)
    proper = all(colors[u] != colors[v] for u, v in g.edges())
    diverse = all(
        len({colors[u] for u in g.neighbors(v)}) >= min(g.degree(v), r)
        for v in range(g.n)
    )
    assert rep.valid == (proper and diverse)
