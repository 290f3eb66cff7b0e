import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_graphs import graphs

from condchrom import (
    bounds,
    build,
    check_conditional,
    chi_r_exact,
    exists_conditional_coloring,
    families,
    kernel,
    solver,
    sweep,
)
from condchrom.bounds import distinctness_graph
from condchrom.errors import ParameterError
from condchrom.graphs import Graph
from condchrom.kernel import backends
from oracles import (
    chi_r_bruteforce,
    ladder_then_local_search,
    proper_colorings,
    random_c2_colorings,
)


def test_chi_r_paper_examples():
    assert chi_r_exact(build("wd:3,2")[0], 2).chi_r == 3
    assert chi_r_exact(build("M(cyc:4)")[0], 3).chi_r == 4
    assert chi_r_exact(build("M(fr:1)")[0], 4).chi_r == 6
    assert chi_r_exact(build("M(kpart:1,1,1)")[0], 4).chi_r == 6
    assert chi_r_exact(build("wd:4,1")[0], 1).chi_r == 4  # chi_1 = chi on K_4


def test_chi_r_derived_example_c6():
    g, _ = build("cyc:6")
    res = chi_r_exact(g, 2)
    assert res.chi_r == 3
    assert res.chi_r == chi_r_bruteforce(g, 2)


def test_chi_r_bruteforce_cross_check_tiny(corpus):
    for spec, g in corpus:
        if g.n > 6:
            continue
        for r in (1, 2, g.max_degree()):
            assert chi_r_exact(g, r).chi_r == chi_r_bruteforce(g, r), (spec, r)


def test_witness_always_validates(corpus):
    for spec, g in corpus:
        for r in (1, 2, g.max_degree()):
            res = chi_r_exact(g, r)
            assert res.proven
            rep = check_conditional(g, res.witness, r)
            assert rep.valid and rep.surjective, (spec, r)
            assert res.witness.colors_used == res.chi_r


def test_chi_r_saturates_at_delta(corpus):
    for spec, g in corpus[:10]:
        d = g.max_degree()
        assert chi_r_exact(g, d).chi_r == chi_r_exact(g, d + 3).chi_r


def test_chi_r_monotone_in_r():
    g, _ = build("M(fr:1)")
    values = [chi_r_exact(g, r).chi_r for r in range(1, g.max_degree() + 1)]
    assert values == sorted(values)


def test_soundness_vs_lower_bound(corpus):
    for spec, g in corpus[:10]:
        for r in (2, g.max_degree()):
            res = chi_r_exact(g, r)
            assert res.lower_bound_used.value <= res.chi_r


def test_exists_conditional_coloring():
    g, _ = build("cyc:4")
    # The only proper 2-colorings of C_4 violate C2: check by enumeration
    assert all(
        any(
            len({a[u] for u in g.neighbors(v)}) < 2
            for v in range(4)
        )
        for a in proper_colorings(g, 2)
    )
    status, witness, _ = exists_conditional_coloring(g, 2, 2)
    assert status == "none" and witness is None

    status, witness, _ = exists_conditional_coloring(build("wd:3,1")[0], 3, 2)
    assert status == "found"
    status, witness, _ = exists_conditional_coloring(build("M(cyc:5)")[0], 3, 2)
    assert status == "found"
    assert check_conditional(build("M(cyc:5)")[0], witness, 2).valid


def test_budget_exhaustion():
    # The local search colours k = 6, the lower bound, so the kernel never
    # runs; the kernel alone needs more than 5 nodes there.
    g, _ = build("M(fr:2)")
    res = chi_r_exact(g, 5, budget=5)
    assert res.bracket == (6, 6) and res.proven
    assert res.nodes_expanded == 0 and res.upper_source == "local-search"
    assert check_conditional(g, res.witness, 5).valid

    # k = 5 is refuted without search (some vertex needs 5 neighbor colors)
    status, witness, nodes = exists_conditional_coloring(g, 5, 5, budget=2)
    assert status == "none" and nodes == 0
    # k = 6 is feasible but needs more than 2 nodes to reach
    status, witness, _ = exists_conditional_coloring(g, 6, 5, budget=2)
    assert status == "unknown" and witness is None


def test_bracket_counts_a_level_refuted_on_the_last_node():
    # The local search colours k = 7 first, so the kernel searches k = 6
    # alone. Refuting it takes exactly the 815 budgeted nodes; k = 6 is
    # refuted all the same, so the bracket starts at 7. C_7 at r = 2 is the
    # same at k = 3 and 7 nodes.
    res = chi_r_exact(build("M(kpart:3,3)")[0], 5, budget=815)
    assert res.bracket == (7, 7) and res.nodes_expanded == 815
    assert res.proven and res.upper_source == "local-search"
    res = chi_r_exact(build("cyc:7")[0], 2, budget=7)
    assert res.bracket == (4, 4) and res.nodes_expanded == 7


def test_upper_bound_names_its_source():
    res = chi_r_exact(build("M(fr:2)")[0], 5)
    assert (res.upper_source, res.local_moves) == ("kernel", 0)
    assert res.to_json_dict()["upper_bound"] == {"source": "kernel", "moves": 0}
    res = chi_r_exact(Graph(3, []), 2)
    assert (res.upper_source, res.local_moves, res.bracket) == ("edgeless", 0, (1, 1))
    res = chi_r_exact(build("M(kpart:4,4)")[0], 6, budget=1)
    assert (res.upper_source, res.local_moves, res.bracket) == ("local-search", 511, (7, 8))
    assert res.nodes_expanded == 2  # kernel nodes alone


# At r = 3 under a budget, the local search fails k = 5 in its 500 moves and
# colours k = 6 in 1; the kernel then colours k = 5 in 9 nodes.
KERNEL_AFTER_LOCAL = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (2, 4),
                               (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)])


@pytest.mark.parametrize("name", sorted(backends()))
def test_a_kernel_witness_keeps_the_local_search_moves(monkeypatch, name):
    monkeypatch.setattr(kernel, "_backend", backends()[name])
    res = chi_r_exact(KERNEL_AFTER_LOCAL, 3, budget=1000)
    assert (res.bracket, res.nodes_expanded) == ((5, 5), 9)
    assert res.to_json_dict()["upper_bound"] == {"source": "kernel", "moves": 501}


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=13), st.integers(1, 12), st.sampled_from([1, 7, 815, 10**6]))
@example(KERNEL_AFTER_LOCAL, 3, 10**6)
def test_local_moves_count_every_local_search_call(g, r, budget):
    # Whichever source gives hi, local_moves is the sum of the moves of
    # every local search the solve ran.
    real, made = kernel.local_search, []

    def spy(adj, req, k, start, max_moves):
        colors, moves = real(adj, req, k, start, max_moves)
        made.append(moves)
        return colors, moves

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "local_search", spy)
        res = chi_r_exact(g, r, budget=budget)
    assert res.local_moves == sum(made)


def test_local_search_gives_up_after_its_levels(monkeypatch):
    # With one level, k = 7 fails its 500 moves and hi falls back to n.
    monkeypatch.setattr(solver, "LOCAL_LEVELS", 1)
    res = chi_r_exact(build("M(kpart:4,4)")[0], 6, budget=1)
    assert (res.upper_source, res.local_moves, res.bracket) == ("all-distinct", 500, (7, 24))
    assert res.witness.colors == tuple(range(1, 25))
    # On M(K_{3,3}) at r = 5 it fails k = 6, so the kernel climbs with
    # hi = n and refutes k = 6 on the budget's last node; the second run
    # colours k = 7, the one level it had not tried.
    res = chi_r_exact(build("M(kpart:3,3)")[0], 5, budget=815)
    assert (res.upper_source, res.local_moves, res.bracket) == ("local-search", 509, (7, 7))


@pytest.mark.parametrize("spec, r, budget, bracket", [
    ("M(fr:2)", 5, 0, (6, 6)),
    ("M(fr:5)", 11, 500_000, (12, 12)),
    ("M(kpart:4,4)", 6, 1, (7, 8)),
])
def test_distinctness_graph_is_built_once_per_solve(monkeypatch, spec, r, budget, bracket):
    # The lower bound and the local search share one H, also on a solve
    # that the budget cuts.
    built = []

    def counted(g, r):
        built.append(r)
        return distinctness_graph(g, r)

    monkeypatch.setattr(solver, "distinctness_graph", counted)
    monkeypatch.setattr(bounds, "distinctness_graph", counted)
    assert chi_r_exact(build(spec)[0], r, budget=budget).bracket == bracket
    assert built == [r]


def test_local_search_coloring_is_used_only_once_verified(monkeypatch):
    # A coloring that check_conditional rejects is never hi: here the first
    # level, the lower bound 6, returns one with a clash, and the next
    # level's real one is used; the kernel then refutes k = 6.
    g = build("M(kpart:3,3)")[0]
    real = kernel.local_search
    calls = []

    def clashing_first(adj, req, k, start, max_moves):
        calls.append(k)
        if len(calls) == 1:
            return [1] * len(adj), 3
        return real(adj, req, k, start, max_moves)

    monkeypatch.setattr(kernel, "local_search", clashing_first)
    res = chi_r_exact(g, 5, budget=815)
    assert calls == [6, 7] and res.bracket == (7, 7) and res.local_moves > 3
    assert check_conditional(g, res.witness, 5).valid
    assert res.witness.colors_used == 7


def test_greedy_start_colors_every_vertex_within_k(corpus):
    for spec, g in corpus:
        h = distinctness_graph(g, max(g.max_degree(), 1))
        order = list(range(g.n))[::-1]
        for k in (1, 2, g.n):
            start = solver.greedy_start(h, k, order)
            assert len(start) == g.n and all(1 <= c <= k for c in start), (spec, k)
        # With n colors no two H-neighbours share one.
        start = solver.greedy_start(h, g.n, order)
        assert all(start[u] != start[v] for v in range(g.n) for u in h[v]), spec
    # Out of colors, a vertex takes the one fewest colored neighbours have.
    h = [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]
    assert solver.greedy_start(h, 2, [0, 1, 2, 3]) == [1, 2, 1, 2]


def test_budgeted_brackets_hold_chi_and_proven_means_closed(corpus):
    for spec, g in corpus:
        r = g.max_degree()
        chi = chi_r_exact(g, r).chi_r
        for budget in (1, 7):
            res = chi_r_exact(g, r, budget=budget)
            lo, hi = res.bracket
            assert lo <= chi <= hi and res.witness.k == hi, (spec, budget)
            assert res.proven == (lo == hi) and res.chi_r == hi, (spec, budget)
            assert check_conditional(g, res.witness, r).valid


@pytest.mark.parametrize("name", sorted(backends()))
def test_budgeted_solves_keep_the_ladder_first_brackets(corpus, monkeypatch, name):
    # The local search runs before the ladder, so the kernel searches no
    # level at or above a colouring the solve holds: only a kernel witness's
    # own level reaches hi. Every bracket equals the former order's.
    monkeypatch.setattr(kernel, "_backend", backends()[name])
    real, levels = kernel.search_coloring, []

    def recording(adj, req, k, budget=0):
        levels.append(k)
        return real(adj, req, k, budget)

    for spec, g in corpus:
        for r in range(1, g.max_degree() + 1):
            for budget in (1, 7, 815):
                want = ladder_then_local_search(g, r, budget)
                levels.clear()
                monkeypatch.setattr(kernel, "search_coloring", recording)
                res = chi_r_exact(g, r, budget=budget)
                monkeypatch.setattr(kernel, "search_coloring", real)
                held = levels[:-1] if res.upper_source == "kernel" else levels
                assert res.bracket == want, (spec, r, budget)
                assert all(k < res.bracket[1] for k in held), (spec, r, budget, levels)


def test_parameter_errors():
    g, _ = build("cyc:4")
    with pytest.raises(ParameterError):
        chi_r_exact(g, 0)
    with pytest.raises(ParameterError):
        exists_conditional_coloring(g, 0, 2)


def test_trivial_graphs():
    assert chi_r_exact(Graph(1, []), 3).chi_r == 1
    assert chi_r_exact(Graph(4, []), 2).chi_r == 1
    assert chi_r_exact(Graph(2, [(0, 1)]), 1).chi_r == 2


def test_backends_agree(corpus):
    bks = backends()
    if len(bks) < 2:
        pytest.skip("compiled backend not built")
    # Full k-ladders on two graphs that neither the corpus nor the kernel pins hold.
    cases = [(spec, g, g.max_degree()) for spec, g in corpus[:8]]
    cases += [(spec, build(spec)[0], r) for spec, r in (("M(cyc:7)", 3), ("wd:4,3", 9))]
    for spec, g, r in cases:
        adj = g.adjacency_lists()
        req = [min(g.degree(v), r) for v in range(g.n)]
        for k in range(1, g.n + 1):
            results = {
                name: mod.search_coloring(adj, req, k, 0)
                for name, mod in bks.items()
            }
            vals = list(results.values())
            assert all(v == vals[0] for v in vals), (spec, k)


def test_random_c2_colorings_satisfy_c2():
    g, _ = build("M(kpart:1,1,1)")
    r = g.max_degree()
    samples = random_c2_colorings(g, r, k=g.n, count=20, seed=7)
    assert len(samples) == 20
    for c in samples:
        assert not check_conditional(g, c, r).c2_violations


def test_random_c2_colorings_handles_deep_graphs():
    g, _ = build("cyc:1500")
    (sample,) = random_c2_colorings(g, 2, 3, 1)
    assert not check_conditional(g, sample, 2).c2_violations


def test_random_c2_colorings_deterministic():
    g, _ = build("M(cyc:4)")
    a = random_c2_colorings(g, 2, k=5, count=5, seed=3)
    b = random_c2_colorings(g, 2, k=5, count=5, seed=3)
    assert a == b


def test_sweep_rows(monkeypatch):
    built = []
    real_build = families.build
    monkeypatch.setattr(families, "build",
                        lambda spec: built.append(str(spec)) or real_build(spec))
    rows = sweep([("M(cyc:4)", 2), ("M(cyc:4)", 3)])
    assert [row["exact"] for row in rows] == [3, 4]
    assert all(row["match"] for row in rows)
    assert built.count("M(cyc:4)") == 1  # one build for both levels
    assert all(row["ms"] >= 0 for row in rows)
    built.clear()
    rows = sweep([("M(cyc:30)", 2), ("M(cyc:4)", 2), ("M(cyc:30)", 3)], size_cap=24)
    assert [row["n_vertices"] for row in rows] == [60, 8, 60]
    assert [row["proven"] for row in rows] == ["skipped", "yes", "skipped"]
    assert rows[0]["formula"] == 3
    assert rows[0]["exact"] is None
    assert "M(cyc:30)" not in built  # above the cap: sized, not built
