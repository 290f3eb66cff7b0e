import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    best_lower_bound_of_both,
    clique_list_scan,
    distinct_clique_bruteforce,
    distinctness_graph,
    max_vset_d2r_bruteforce,
)
from test_graphs import graphs

from condchrom import (
    basic_lower_bound,
    bounds,
    best_lower_bound,
    build,
    check_distinct_set,
    check_vset_d2r,
    clique_number,
    cycle,
    distinct_clique,
    max_vset_d2r,
    paper_indexing,
)
from condchrom.bounds import DEFAULT_VSET_BUDGET, lower_bounds, strongest
from condchrom.errors import ParameterError
from condchrom.graphs import Graph


def test_clique_number_examples():
    g, _ = build("L(fr:2)")
    rep = clique_number(g)
    assert rep.value == 4  # omega(L(F_n)) = 2n
    assert len(rep.certificate) == 4
    assert all(
        g.has_edge(u, v)
        for i, u in enumerate(rep.certificate)
        for v in rep.certificate[i + 1 :]
    )
    assert clique_number(build("M(fr:1)")[0]).value == 3  # 2n+1
    assert clique_number(cycle(5)[0]).value == 2


def test_clique_certificate_is_paper_clique_for_line_friendship():
    # the center-incident edge vertices v_1..v_2n form the maximum clique
    g, _ = build("L(fr:2)")
    prov = paper_indexing("L(fr:2)")
    expected = {prov.internal_of(i) for i in (1, 2, 3, 4)}
    assert set(clique_number(g).certificate) == expected


def test_clique_number_handles_deep_graphs():
    # K_100 branches 100 levels deep; the search must not use the call stack.
    g = Graph(100, [(u, v) for u in range(100) for v in range(u + 1, 100)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        rep = clique_number(g)
    finally:
        sys.setrecursionlimit(limit)
    assert rep.value == 100 and rep.certificate == tuple(range(100))


def test_basic_lower_bound():
    g, _ = build("wd:3,2")
    assert basic_lower_bound(g, 5).value == 5  # min{5, 4} + 1
    assert basic_lower_bound(cycle(4)[0], 2).value == 3
    assert basic_lower_bound(cycle(4)[0], 1).value == 2
    with pytest.raises(ParameterError):
        basic_lower_bound(Graph(3, []), 2)


def test_max_vset_line_windmill():
    g, _ = build("L(wd:3,2)")
    prov = paper_indexing("L(wd:3,2)")
    r = g.max_degree()
    rep = max_vset_d2r(g, r)
    assert rep.exact
    assert rep.value >= 5
    paper_set = {prov.internal_of(i) for i in (1, 2, 3, 4, 5)}
    assert check_vset_d2r(g, paper_set, r)
    assert check_vset_d2r(g, rep.certificate, r)


def test_max_vset_middle_multipartite():
    g, _ = build("M(kpart:1,1,1)")
    rep = max_vset_d2r(g, g.max_degree())
    assert rep.value >= 6  # k + l


def test_max_vset_singleton_floor():
    g = Graph(2, [(0, 1)])
    assert max_vset_d2r(g, 1).value >= 1


def test_max_vset_budget_flag():
    g, _ = build("M(fr:2)")
    rep = max_vset_d2r(g, g.max_degree(), budget=3)
    assert not rep.exact
    if rep.certificate:
        assert check_vset_d2r(g, rep.certificate, g.max_degree())


def test_max_vset_handles_deep_graphs():
    # Every vertex of a long cycle is a candidate, but each anchor searches
    # only its 2-ball: anchor 0 finds {0, 1, 2} and every later anchor has
    # at most 3 candidates, so it is skipped and the search is exact.
    g, _ = build("cyc:1500")
    rep = max_vset_d2r(g, 2, budget=5000)
    assert rep.exact and rep.value == 3
    assert check_vset_d2r(g, rep.certificate, 2)


def test_max_vset_search_does_not_depend_on_vertex_ids():
    # A shuffled cycle puts 2-ball neighbours far apart in id order; the
    # search per anchor must still finish in 2,000 nodes.
    g, _ = build("cyc:200")
    perm = list(range(g.n))
    random.Random(0).shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    rep = max_vset_d2r(h, 2, budget=2000)
    assert rep.exact and rep.value == 3
    assert check_vset_d2r(h, rep.certificate, 2)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9))
def test_max_vset_matches_bruteforce(g):
    for r in range(1, g.max_degree() + 2):
        rep = max_vset_d2r(g, r)
        assert rep.exact
        assert rep.value == max_vset_d2r_bruteforce(g, r)
        assert check_vset_d2r(g, rep.certificate, r)


def test_max_vset_monotone_in_r(corpus):
    for spec, g in corpus[:8]:
        values = [max_vset_d2r(g, r).value for r in range(1, g.max_degree() + 1)]
        assert values == sorted(values)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=12), st.one_of(st.integers(1, 300), st.just(DEFAULT_VSET_BUDGET)))
def test_max_vset_ceiling_stops_at_the_same_set(g, budget):
    # omega(H) bounds every Vset-d2r, and the incumbent is replaced only by
    # a larger set: stopping there keeps the value and certificate, and a
    # search that stops short of omega(H) loses to the distinctness clique.
    for r in range(1, g.max_degree() + 2):
        full = max_vset_d2r(g, r, budget)
        capped = max_vset_d2r(g, r, budget, ceiling=distinct_clique(g, r).value)
        assert (capped.value, capped.certificate) == (full.value, full.certificate)
        assert capped.exact or not full.exact
        assert strongest(lower_bounds(g, r)).exact


def test_best_lower_bound_winners():
    g, _ = build("M(fr:1)")
    rep = best_lower_bound(g, 4)
    assert rep.value == 6 and rep.kind == "distinct-clique"

    # The clique of L(F_2) ties min{3, 4} + 1, which is listed first.
    g, _ = build("L(fr:2)")
    rep = best_lower_bound(g, 3)
    assert rep.value == 4 and rep.kind == "basic-r-delta"

    k4, _ = build("wd:4,1")
    assert best_lower_bound(k4, 3).value == 4

    # Disconnected: K_{1,4} plus an isolated vertex still has min{r,4}+1.
    star = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
    rep = best_lower_bound(star, 3)
    assert rep.value == 4 and rep.kind == "basic-r-delta"


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_best_lower_bound_matches_both_full_reports(g):
    # The clique search on H starts from the basic bound as its floor and
    # may return nothing; the report (value, kind, certificate, exact) is
    # the one the two full reports give, with or without a prebuilt H.
    for r in range(1, g.max_degree() + 2):
        expected = best_lower_bound_of_both(g, r)
        assert best_lower_bound(g, r) == expected
        assert best_lower_bound(g, r, bounds.distinctness_graph(g, r)) == expected


def test_lower_bounds_lists_every_bound():
    kinds = [rep.kind for rep in lower_bounds(Graph(4, [(0, 1)]), 2)]
    assert kinds == ["clique", "basic-r-delta", "vset-d2r", "distinct-clique"]
    kinds = [rep.kind for rep in lower_bounds(Graph(3, []), 2)]
    assert kinds == ["clique", "vset-d2r", "distinct-clique"]


def test_certificates_revalidate(corpus):
    for spec, g in corpus[:10]:
        r = g.max_degree()
        rep = best_lower_bound(g, r)
        if rep.kind == "clique":
            cert = rep.certificate
            assert all(
                g.has_edge(u, v)
                for i, u in enumerate(cert)
                for v in cert[i + 1 :]
            )
        elif rep.kind == "vset-d2r":
            assert check_vset_d2r(g, rep.certificate, r)
        elif rep.kind == "distinct-clique":
            assert len(rep.certificate) == rep.value
            assert check_distinct_set(g, rep.certificate, r)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=14))
def test_distinct_clique_matches_bruteforce(g):
    omega = clique_number(g).value
    for r in range(1, g.max_degree() + 2):
        rep = distinct_clique(g, r)
        assert rep.exact and len(rep.certificate) == rep.value
        assert rep.value == distinct_clique_bruteforce(g, r)
        assert check_distinct_set(g, rep.certificate, r)
        assert rep.value >= max(omega, max_vset_d2r(g, r).value)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=14))
def test_clique_search_matches_list_scanning_search(g):
    # The same nodes in the same order give the same value and certificate,
    # on g itself and on the distinctness graph H.
    rep = clique_number(g)
    assert (rep.value, rep.certificate) == clique_list_scan(
        [g.neighbors(v) for v in range(g.n)])
    for r in range(1, g.max_degree() + 2):
        rep = distinct_clique(g, r)
        assert (rep.value, rep.certificate) == clique_list_scan(distinctness_graph(g, r))


def test_distinct_clique_examples():
    # L(F_4) at r = 5: no Vset-d2r beyond one vertex, but the 8 edges at
    # the centre form a clique.
    g, _ = build("L(fr:4)")
    assert max_vset_d2r(g, 5).value == 1
    assert distinct_clique(g, 5).value == clique_number(g).value == 8
    # At r >= Delta, H is the square of g: C_5 squared is K_5.
    assert distinct_clique(cycle(5)[0], 2).certificate == (0, 1, 2, 3, 4)
    # On a long cycle at r = 2, H is the square of the cycle: omega(H) = 3.
    assert distinct_clique(build("cyc:1500")[0], 2).value == 3
    assert distinct_clique(Graph(0, []), 1).value == 0
    with pytest.raises(ParameterError):
        distinct_clique(cycle(4)[0], 0)


def test_distinctness_graph_stops_past_the_edge_limit(monkeypatch):
    # The star K_{1,4} at r = 4 has H = K_5, 10 edges: at a limit of 10 it
    # is built, at 9 it is refused before it is complete.
    g = build("wd:2,4")[0]
    monkeypatch.setattr(bounds, "EDGE_LIMIT", 10)
    assert sum(map(len, bounds.distinctness_graph(g, 4))) == 20
    monkeypatch.setattr(bounds, "EDGE_LIMIT", 9)
    with pytest.raises(ParameterError, match="more than 9 edges"):
        bounds.distinctness_graph(g, 4)
    # Below r = 4 the centre adds nothing, so H is the star itself.
    assert sum(map(len, bounds.distinctness_graph(g, 3))) == 8
