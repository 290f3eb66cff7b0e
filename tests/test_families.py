import pytest
from oracles import is_connected

from condchrom import (
    build,
    color_middle_multipartite_delta,
    complete_multipartite,
    cycle,
    declared_max_degree,
    declared_size,
    families,
    friendship,
    line_graph,
    middle_graph,
    paper_indexing,
    parse_spec,
    windmill,
)
from condchrom.errors import ParameterError
from condchrom.families import check_limits
from condchrom.graphs import EDGE_LIMIT, VERTEX_LIMIT, Graph
from conftest import CORPUS_SPECS


def test_windmill_counts():
    g, _ = windmill(3, 1)
    assert (g.n, g.m) == (3, 3)
    g, _ = windmill(3, 2)
    assert (g.n, g.m) == (5, 6)
    assert g.degree(0) == 4
    g, _ = windmill(4, 3)
    assert (g.n, g.m) == (10, 18)


def test_windmill_degree_profile():
    g, _ = windmill(4, 2)
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [3] * 6 + [6]  # k-1 everywhere, n(k-1) at the center


def test_windmill_parameter_errors():
    with pytest.raises(ParameterError):
        windmill(1, 2)
    with pytest.raises(ParameterError):
        windmill(3, 0)


def test_friendship_equals_windmill():
    assert friendship(2)[0] == windmill(3, 2)[0]
    assert friendship(1)[0] == windmill(3, 1)[0]
    assert friendship(3)[0].max_degree() == 6


def test_cycle():
    g, _ = cycle(3)
    assert (g.n, g.m) == (3, 3)
    g, _ = cycle(7)
    assert is_connected(g)
    assert all(g.degree(v) == 2 for v in range(7))
    with pytest.raises(ParameterError):
        cycle(2)


def test_complete_multipartite_edge_counts():
    assert complete_multipartite([1, 1, 1])[0].m == 3
    assert complete_multipartite([2, 3])[0].m == 6
    g, _ = complete_multipartite([2, 2, 2])
    assert (g.n, g.m) == (6, 12)
    with pytest.raises(ParameterError):
        complete_multipartite([3])


def test_bipartite_sizes_sorted():
    g, prov = complete_multipartite([3, 1])
    assert prov.notes["sizes"] == (1, 3)
    assert prov.notes["original_sizes"] == (3, 1)


def test_line_graph_basics():
    c5, p5 = cycle(5)
    lg, _ = line_graph(c5, p5)
    assert (lg.n, lg.m) == (5, 5)
    assert all(lg.degree(v) == 2 for v in range(5))  # L(C_n) = C_n

    lw, _ = build("L(wd:3,2)")
    assert lw.n == 6  # n * C(k,2)

    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    ls, _ = line_graph(star)
    assert (ls.n, ls.m) == (3, 3)  # K_3

    with pytest.raises(ParameterError):
        line_graph(Graph(3, []))


def test_line_graph_degree_identity():
    g, prov = build("wd:4,2")
    lg, lprov = line_graph(g, prov)
    for v, (kind, (a, b)) in enumerate(lprov.origin):
        assert lg.degree(v) == g.degree(a) + g.degree(b) - 2


def test_middle_graph_basics():
    single = Graph(2, [(0, 1)])
    mg, _ = middle_graph(single)
    assert (mg.n, mg.m) == (3, 2)  # path on 3 vertices

    mc4, _ = build("M(cyc:4)")
    assert mc4.n == 8
    assert mc4.max_degree() == 4

    mf1, _ = build("M(fr:1)")
    assert mf1.n == 6  # 5n+1
    assert mf1.max_degree() == 4  # 2n+2

    with pytest.raises(ParameterError):
        middle_graph(Graph(3, []))


def test_middle_graph_degree_identities_and_independence():
    g, prov = build("kpart:1,2")
    mg, mprov = middle_graph(g, prov)
    vertex_origin = []
    for v, (kind, src) in enumerate(mprov.origin):
        if kind == "vertex":
            assert mg.degree(v) == g.degree(src)
            vertex_origin.append(v)
        else:
            a, b = src
            assert mg.degree(v) == g.degree(a) + g.degree(b)
    for i, u in enumerate(vertex_origin):
        for w in vertex_origin[i + 1 :]:
            assert not mg.has_edge(u, w)


def test_spec_parsing():
    spec = parse_spec("M(kpart:1,2)")
    assert spec.tag == "M" and spec.inner.params == (1, 2)
    assert str(parse_spec("L(wd:3,2)")) == "L(wd:3,2)"
    for bad in ("", "zz:3", "L(wd:3,2", "wd:", "wd:a,b", "cyc:4 extra"):
        with pytest.raises(ParameterError):
            parse_spec(bad)


def test_parse_spec_returns_a_family_spec_unchanged():
    spec = parse_spec("M(L(kpart:1,2))")
    assert parse_spec(spec) is spec
    assert build(spec)[0] == build("M(L(kpart:1,2))")[0]


def test_nested_transform_allowed():
    g, prov = build("L(L(cyc:5))")
    assert g.n == 5
    assert prov.scheme == "identity"


@pytest.mark.parametrize("spec", [*CORPUS_SPECS, "wd:2,1", "kpart:2,1,3", "L(L(cyc:5))",
                                  "M(L(wd:4,2))", "L(M(kpart:1,2))", "cyc:1500",
                                  "L(kpart:1,500)"])
def test_declared_size_is_the_built_size(spec):
    g, _ = build(spec)
    assert declared_size(spec) == (g.n, g.m)
    assert declared_max_degree(spec) == g.max_degree()


def test_declared_max_degree_of_a_base_spec_builds_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(families, "build", lambda spec: calls.append(spec))
    families.declared_max_degree.cache_clear()
    assert [declared_max_degree(s) for s in ("wd:4,3", "fr:5", "cyc:9", "kpart:1,2,4")] == [
        9, 10, 2, 6]
    assert calls == []


@pytest.mark.parametrize("spec, n, m", [
    ("wd:3,99999999", 199999999, 299999997),
    (f"cyc:{VERTEX_LIMIT + 1}", VERTEX_LIMIT + 1, VERTEX_LIMIT + 1),
    # The line graph of K_{1,1500} is K_1500: m alone is over.
    ("L(kpart:1,1500)", 1500, 1124250),
    ("kpart:1000,1001", 2001, EDGE_LIMIT + 1000),
])
def test_build_refuses_a_graph_above_the_limit(spec, n, m):
    assert declared_size(spec) == (n, m)
    with pytest.raises(ParameterError, match=f"{n} vertices and {m} edges"):
        build(spec)
    with pytest.raises(ParameterError, match=f"{n} vertices and {m} edges"):
        declared_max_degree(spec)
    with pytest.raises(ParameterError, match=f"{n} vertices and {m} edges"):
        check_limits(spec)


def test_declared_size_rejects_what_build_rejects():
    for bad in ("fr:0", "cyc:2", "kpart:3", "wd:3", "L(L(wd:2,1))", "zz:1"):
        with pytest.raises(ParameterError) as built:
            build(bad)
        with pytest.raises(ParameterError) as declared:
            declared_size(bad)
        assert str(declared.value) == str(built.value), bad
        with pytest.raises(ParameterError) as declared:
            declared_max_degree(bad)
        assert str(declared.value) == str(built.value), bad
        with pytest.raises(ParameterError) as checked:
            check_limits(bad)
        assert str(checked.value) == str(built.value), bad


def test_paper_index_is_bijection():
    for spec in ("L(wd:4,2)", "M(cyc:5)", "M(fr:2)", "M(kpart:2,3)", "M(kpart:1,1,2)"):
        prov = paper_indexing(spec)
        assert sorted(prov.paper_pos) == list(range(1, len(prov.paper_pos) + 1))
    # The builders emit windmill blades and parts as consecutive id ranges and
    # edges lexicographically, which is the numbering of these propositions.
    for spec in ("L(wd:3,1)", "L(wd:4,2)", "L(wd:5,3)", "L(fr:4)", "M(kpart:1,2)",
                 "M(kpart:2,3)", "M(kpart:3,5)", "M(kpart:4,4)", "M(kpart:3,1)"):
        prov = paper_indexing(spec)
        assert prov.paper_pos == tuple(range(1, len(prov.paper_pos) + 1)), spec
        assert prov.scheme in ("line-windmill", "middle-bipartite")


def test_middle_cycle_indexing_matches_incidence():
    # v_{n+i} must be incident with v_i and v_{(i mod n)+1}.
    n = 4
    g, _ = build(f"M(cyc:{n})")
    prov = paper_indexing(f"M(cyc:{n})")
    for i in range(1, n + 1):
        e = prov.internal_of(n + i)
        a = prov.internal_of(i)
        b = prov.internal_of(i % n + 1)
        assert g.has_edge(e, a)
        assert g.has_edge(e, b)


def test_line_friendship_indexing():
    # v_1..v_4 are the center-incident edge vertices, v_5, v_6 the outer edges.
    prov = paper_indexing("L(fr:2)")
    for i in (1, 2, 3, 4):
        kind, (a, b) = prov.origin[prov.internal_of(i)]
        assert a == 0
    for i in (5, 6):
        kind, (a, b) = prov.origin[prov.internal_of(i)]
        assert a != 0
    # v_1, v_2 belong to copy 1 and v_5 is copy 1's outer edge
    assert prov.origin[prov.internal_of(1)][1][1] in (1, 2)
    assert prov.origin[prov.internal_of(5)][1] == (1, 2)


def test_middle_friendship_indexing_roles():
    # n=1: v_1, v_2 center-incident edges, v_3 the center, v_4, v_5 the
    # outer vertices, v_6 the outer edge.
    prov = paper_indexing("M(fr:1)")
    assert prov.origin[prov.internal_of(1)] == ("edge", (0, 1))
    assert prov.origin[prov.internal_of(2)] == ("edge", (0, 2))
    assert prov.origin[prov.internal_of(3)] == ("vertex", 0)
    assert prov.origin[prov.internal_of(4)] == ("vertex", 1)
    assert prov.origin[prov.internal_of(5)] == ("vertex", 2)
    assert prov.origin[prov.internal_of(6)] == ("edge", (1, 2))


def test_middle_bipartite_indexing():
    # v_{n+(i-1)n2+j} is the edge joining part-1 vertex i and part-2 vertex j.
    n1, n2 = 2, 3
    g, _ = build(f"M(kpart:{n1},{n2})")
    prov = paper_indexing(f"M(kpart:{n1},{n2})")
    n = n1 + n2
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            e = prov.internal_of(n + (i - 1) * n2 + j)
            assert prov.origin[e] == ("edge", (i - 1, n1 + j - 1))
            assert g.has_edge(e, prov.internal_of(i))
            assert g.has_edge(e, prov.internal_of(n1 + j))


def test_middle_multipartite_indexing_scheme():
    claim = color_middle_multipartite_delta([1, 2])
    g, prov = claim.graph, claim.provenance
    # v_1..v_l are the edge vertices, then the partition vertices in order.
    l = 2
    for i in range(1, l + 1):
        assert prov.origin[prov.internal_of(i)][0] == "edge"
    for i in range(l + 1, g.n + 1):
        assert prov.origin[prov.internal_of(i)][0] == "vertex"


def test_line_windmill_indexing_blocks():
    k, n = 4, 2
    prov = paper_indexing(f"L(wd:{k},{n})")
    ncenter = n * (k - 1)
    for i in range(1, len(prov.paper_pos) + 1):
        kind, (a, b) = prov.origin[prov.internal_of(i)]
        if i <= ncenter:
            assert a == 0
        else:
            assert a != 0


def test_paper_indexing_rejects_unsupported_transform():
    # line graphs of cycles have no proposition numbering
    with pytest.raises(ParameterError):
        paper_indexing("L(cyc:5)")
    with pytest.raises(ParameterError):
        paper_indexing("L(wd:2,2)")  # Wd(2,n) is a star; no proposition states it


def test_builders_number_nothing():
    for spec in ("L(wd:4,2)", "M(cyc:5)", "M(fr:2)", "M(kpart:1,1,2)"):
        _, prov = build(spec)
        assert prov.scheme == "identity"
        assert prov.paper_pos == tuple(range(1, len(prov.paper_pos) + 1))
