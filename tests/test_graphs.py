import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import is_connected

from condchrom import build, cycle, friendship, middle_graph, windmill
from condchrom.cli import main
from condchrom.errors import InputError
from condchrom.graphs import VERTEX_LIMIT, Graph, from_dimacs, to_dimacs, to_dot


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, edges)


def test_degree_examples():
    g, _ = cycle(5)
    assert g.degree(0) == 2
    wd, _ = windmill(3, 2)
    assert wd.degree(0) == 4  # center degree n(k-1)
    mc, _ = build("M(cyc:4)")
    edge_origin = next(v for v in range(mc.n) if v >= 4)
    assert mc.degree(edge_origin) == 4  # d(u) + d(v)


def test_max_degree_examples():
    assert windmill(3, 2)[0].max_degree() == 4
    assert build("M(fr:1)")[0].max_degree() == 4  # 2n+2 at n=1
    assert build("kpart:1,1")[0].max_degree() == 1


def test_neighborhood_examples():
    g = Graph(2, [(0, 1)])
    assert g.neighbors(0) == frozenset({1})
    k3, _ = windmill(3, 1)
    assert k3.neighbors(1) == frozenset({0, 2})
    lw, prov = build("L(wd:3,2)")
    center_edge = next(
        v for v, (kind, src) in enumerate(prov.origin) if src[0] == 0
    )
    assert len(lw.neighbors(center_edge)) == 4  # d(u)+d(v)-2


def test_is_connected():
    assert is_connected(cycle(4)[0])
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build("M(fr:2)")[0])


def test_vertex_range_errors():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        g.degree(3)
    with pytest.raises(InputError):
        g.neighbors(-1)
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 5)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@given(graphs())
def test_adjacency_symmetric_irreflexive(g):
    for v in range(g.n):
        assert v not in g.neighbors(v)
        for u in g.neighbors(v):
            assert v in g.neighbors(u)
        assert g.degree(v) == len(g.neighbors(v))


@given(graphs())
def test_dimacs_round_trip_bit_stable(g):
    text = to_dimacs(g)
    g2 = from_dimacs(text)
    assert g2 == g
    assert to_dimacs(g2) == text


def test_dimacs_parse_errors(tmp_path, capsys):
    with pytest.raises(InputError):
        from_dimacs("e 1 2\n")  # no problem line
    with pytest.raises(InputError):
        from_dimacs("p edge 2\n")
    with pytest.raises(InputError):
        from_dimacs("p edge 2 1\ne 0 1\n")  # 0-based endpoint
    with pytest.raises(InputError):
        from_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(InputError, match="line 1"):
        from_dimacs("p edge 3 x\ne 1 2\n")  # non-integer edge count
    with pytest.raises(InputError, match="declares 5 edges, found 1"):
        from_dimacs("p edge 3 5\ne 1 2\n")
    with pytest.raises(InputError, match="declares 0 edges, found 1"):
        from_dimacs("p edge 3 0\ne 1 2\n")
    with pytest.raises(InputError, match="line 2: a second problem line"):
        from_dimacs("p edge 3 0\np edge 4 0\n")
    # Endpoint errors name the line and the file's own 1-based ids, also for
    # an edge line before the problem line.
    for text, message in (("p edge 3 1\ne 1 5\n", "line 2: edge (1,5) out of range for n=3"),
                          ("p edge 3 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
                          ("e 4 1\np edge 3 1\n", "line 1: edge (4,1) out of range for n=3"),
                          ("c first\ne 3 3\np edge 3 1\n", "line 2: self-loop at vertex 3")):
        with pytest.raises(InputError) as exc:
            from_dimacs(text)
        assert str(exc.value) == message
    # The declared vertex count is checked before any vertex is allocated.
    with pytest.raises(InputError, match="limit"):
        from_dimacs("p edge 99999999999 0\n")
    assert from_dimacs(f"p edge {VERTEX_LIMIT} 0\n").n == VERTEX_LIMIT
    # A long token is quoted only in part, with its length: 5,000 digits are
    # over int()'s digit limit, 4,000 parse and are over the vertex limit or
    # out of range.
    nines = "9" * 5000
    for text in (f"p edge 3 1\ne 1 {nines}\n", f"p edge {nines[:4000]} 0\n",
                 f"p edge 3 1\ne 1 {nines[:4000]}\n", f"p edge 3 {nines[:4000]}\n",
                 f"p edge 3 1 {nines}\n", f"e 1 2 {nines}\n", f"{nines} 1\n"):
        path = tmp_path / "long.col"
        path.write_text(text)
        assert main(["solve", "--file", str(path), "-r", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 200, err[:300]
        assert "characters)" in err


def test_dimacs_edge_count_is_not_limited():
    # The edges are the file's own lines, so their count is not checked: K_450
    # has 101,025 edges, more than the vertex limit.
    n = 450
    lines = [f"e {u} {v}" for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    assert len(lines) > VERTEX_LIMIT
    g = from_dimacs(f"p edge {n} {len(lines)}\n" + "\n".join(lines))
    assert (g.n, g.m, g.max_degree()) == (n, len(lines), n - 1)


def test_dot_output():
    g, _ = friendship(1)
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot


def test_middle_graph_of_connected_is_connected():
    g, _ = friendship(2)
    mg, _ = middle_graph(g)
    assert is_connected(mg)
