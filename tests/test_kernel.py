"""Kernel semantics pinned row by row: status, node count and coloring of
every corpus graph at every r <= Delta, every k <= n and budgets
{0, 1, 7, 50}, plus two budget-cut rows on the hard tail. The backends are
also compared on random graphs, with requirements from 0 to the degree
(above it both refute at once), on graphs that need more than 64
colours, on regular graphs where degree ties decide the pick, on graphs
of more than 64 and 128 vertices, and at 63 to 65 vertices and 62 to 64
colours, where the C kernel switches from its word state to its counter
state, and on K_{1,40}, whose centre's slack and saturation reach the
top bit plane of the word state. The C kernel's search on several
threads must give the serial answer for every thread count and every
start of its helpers, also when the budget runs out next to where the
search is split, and runs without a data race under ThreadSanitizer and
without undefined behaviour under UndefinedBehaviorSanitizer. The two
twins of the local search return the same colouring and move count on
random graphs, beyond one 64-bit vertex word and under both sanitizers,
and what they colour verifies. The loader's fallback is checked with no
compiler on PATH."""

import functools
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import graphs

from condchrom import _kernel_py, build, check_conditional, kernel, solver
from condchrom.bounds import distinctness_graph
from condchrom.graphs import Graph
from condchrom.verify import Coloring

PINS = Path(__file__).parent / "data" / "kernel_pins.txt"


def _pins():
    rows = []
    for line in PINS.read_text().splitlines():
        if line.startswith("#"):
            continue
        spec, r, k, budget, status, nodes, colors = line.split()
        colors = None if colors == "-" else [int(c) for c in colors.split(",")]
        rows.append((spec, int(r), int(k), int(budget), int(status), int(nodes), colors))
    return rows


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_kernel_matches_golden_pins(name):
    search = kernel.backends()[name].search_coloring
    rows = _pins()
    graphs = {spec: build(spec)[0] for spec in {row[0] for row in rows}}
    mismatches = []
    for spec, r, k, budget, status, nodes, colors in rows:
        g = graphs[spec]
        req = [min(g.degree(v), r) for v in range(g.n)]
        got = search(g.adjacency_lists(), req, k, budget)
        if got != (status, colors, nodes):
            mismatches.append((spec, r, k, budget, got))
    assert len(rows) == 2614
    assert mismatches == []


def _circulant(n, offsets):
    return Graph(n, {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})


needs_c = pytest.mark.skipif("c" not in kernel.backends(), reason="the C kernel does not load")


def _degree_order(g):
    """The vertices by degree descending, then id: the solver's start order."""
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _instance(spec, r):
    g = build(spec)[0]
    return g.adjacency_lists(), [min(g.degree(v), r) for v in range(g.n)]


@needs_c
def test_parallel_search_matches_golden_pins():
    # Helpers started after 0, 1 or 7 nodes split even the small searches
    # into pieces, so budgets 1, 7 and 50 run out inside or between pieces.
    search = kernel.backends()["c"]._search_coloring
    rows = _pins()
    instances = {(spec, r): _instance(spec, r) for spec, r, *_ in rows}
    mismatches = []
    for threads in (1, 2, 3, 4):
        for spawn_after in (0, 1, 7):
            for spec, r, k, budget, status, nodes, colors in rows:
                got = search(*instances[spec, r], k, budget, threads, spawn_after)
                if got != (status, colors, nodes):
                    mismatches.append((threads, spawn_after, spec, r, k, budget, got))
    assert mismatches == []


@st.composite
def _dense_graphs(draw, min_n, max_n):
    """Graphs of min_n..max_n vertices with edge density 0.4 or 0.5."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p, rng = draw(st.sampled_from((0.4, 0.5))), draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


@needs_c
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(graphs(max_n=14), st.integers(min_value=2, max_value=4)),
                 st.tuples(_dense_graphs(16, 22), st.integers(min_value=3, max_value=4))),
       st.sampled_from((0, 1)))
def test_parallel_search_agrees_with_pure_on_random_graphs(case, spawn_after):
    # Besides fixed budgets, N - 1, N and N + 1 nodes, N being the unbudgeted
    # search's count, run out at or next to the end of the last piece, and
    # N // 4, N // 2 and 3N // 4 inside the search. On 16 to 22 vertices
    # each r goes down from k = n while the pure kernel colours within
    # 3,000 nodes, and only the colourings found after 200 nodes or more
    # are searched on 3 or 4 threads: there a piece that finds one joins
    # the finished piece before it.
    g, threads = case
    search = kernel.backends()["c"]._search_coloring
    pure = kernel.backends()["pure"].search_coloring
    adj, cap = g.adjacency_lists(), 0 if g.n <= 14 else 3000
    for r in range(1, max(g.max_degree(), 1) + 1):
        req = [min(g.degree(v), r) for v in range(g.n)]
        for k in range(g.n, 0, -1):
            status, _, nodes = pure(adj, req, k, cap)
            if cap and status != kernel.FOUND:
                break
            if cap and nodes < 200:
                continue
            for budget in (0, 1, 7, 50, nodes - 1, nodes, nodes + 1, nodes // 4, nodes // 2,
                           3 * nodes // 4):
                want = pure(adj, req, k, budget)
                got = search(adj, req, k, budget, threads, spawn_after)
                assert got == want, (r, k, budget)


@pytest.mark.skipif(len(kernel.backends()) < 2, reason="only one backend loads")
@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=14), st.just(_circulant(66, (1, 2, 3)))), st.data())
def test_backends_agree_with_requirements_above_the_degree(g, data):
    # A vertex asked for more colours than it has neighbours can never see
    # them, so every backend refutes at once. With req[v] in 0..d(v) the
    # backends agree.
    adj, mods = g.adjacency_lists(), kernel.backends()
    req = [data.draw(st.integers(min_value=0, max_value=g.degree(v))) for v in range(g.n)]
    over = req[:]
    if g.n:
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        over[v] = g.degree(v) + data.draw(st.integers(min_value=1, max_value=2))
    for k in range(1, min(g.n, 14) + 1):
        for budget in (0, 1, 7, 50) if g.n <= 14 else (1, 7, 5000):
            results = {name: mod.search_coloring(adj, req, k, budget) for name, mod in mods.items()}
            assert len(set(map(repr, results.values()))) == 1, (k, budget, results)
            for name, mod in mods.items():
                assert mod.search_coloring(adj, over, k, budget) == (kernel.NONE, None, 0), name
    for name, mod in mods.items():
        assert mod.search_coloring([[1], [0]], [2, 0], 3, 0) == (kernel.NONE, None, 0), name


# (spec, r, k, budget, status, nodes, colours) recorded from the pure kernel:
# a refutation, a colouring found after 1.4 M nodes and a budget cut.
HARD_PINS = [
    ("M(kpart:4,4)", 7, 9, 0, kernel.NONE, 199_332, None),
    ("M(fr:4)", 9, 10, 0, kernel.FOUND, 1_404_243,
     [9, 3, 4, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 10, 10, 10, 10]),
    ("M(kpart:4,4)", 6, 7, 300_000, kernel.BUDGET, 300_001, None),
]


@needs_c
@pytest.mark.parametrize("spec, r, k, budget, status, nodes, colors", HARD_PINS,
                         ids=["refuted", "found", "budget"])
def test_parallel_search_repeats_the_serial_answer(spec, r, k, budget, status, nodes, colors):
    c = kernel.backends()["c"]
    adj, req = _instance(spec, r)
    for _ in range(20):
        assert c._search_coloring(adj, req, k, budget, 4, c.SPAWN_AFTER) == (status, colors, nodes)


# M(K_{4,4}) at r = 6, k = 7 (budget 300,000 above): when the search has
# expanded 16,384 nodes, the untried colours of depths 8, 7 and 6 begin at
# nodes 17,066, 33,046 and 145,853, so a parallel search splits its tree
# there. A budget that runs out one node before, at or after such a
# boundary must still stop after budget + 1 nodes.
@needs_c
@pytest.mark.parametrize("boundary", [17_066, 33_046, 145_853])
def test_parallel_search_cuts_the_budget_at_piece_boundaries(boundary):
    search = kernel.backends()["c"]._search_coloring
    adj, req = _instance("M(kpart:4,4)", 6)
    for budget in (boundary - 1, boundary, boundary + 1):
        for threads in (1, 2, 3, 4):
            for spawn_after in (0, 1, 7, 16_384):
                got = search(adj, req, 7, budget, threads, spawn_after)
                assert got == (kernel.BUDGET, None, budget + 1), (budget, threads, spawn_after)


@needs_c
@pytest.mark.parametrize("spec, r, k, budget, status, nodes, colors", HARD_PINS[:2],
                         ids=["refuted", "found"])
def test_parallel_search_cuts_the_budget_next_to_the_end(spec, r, k, budget, status, nodes, colors):
    # The budget runs out one node before the search's last node N, or just
    # fits it. Under a budget the search splits off continuations, and each
    # must run to its very end.
    c = kernel.backends()["c"]
    adj, req = _instance(spec, r)
    for threads in (2, 4):
        for spawn_after in (0, c.SPAWN_AFTER):
            assert c._search_coloring(adj, req, k, nodes - 1, threads, spawn_after) == (
                kernel.BUDGET, None, nodes)
            assert c._search_coloring(adj, req, k, nodes, threads, spawn_after) == (
                status, colors, nodes)


def _cocktail(n):
    """K_n less a matching of n // 2 edges. Near r = n - 2 almost every
    neighbourhood needs distinct colours, so colours up to 64 are used and
    some searches backtrack (5,488 nodes to refute k = 62 at n = 65, r = 61)."""
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if u % 2 or v != u + 1])


@functools.cache
def _boundary_cases():
    """(adj, req, k, budget, pure kernel's answer) for n = 63, 64, 65 and
    kk = min(k, n) = 62, 63, 64: the C kernel keeps its word state up to
    n = 64 and kk = 63, and its counter state beyond."""
    pure, cases = kernel.backends()["pure"].search_coloring, []
    for n in (63, 64, 65):
        for g, rs in ((Graph(n, combinations(range(n), 2)), (1,)), (_cocktail(n), (60, 61, 62))):
            adj = g.adjacency_lists()
            for r in rs:
                req = [min(g.degree(v), r) for v in range(n)]
                for k in (62, 63, 64):
                    for budget in (0, 1, 7, 5000):
                        cases.append((adj, req, k, budget, pure(adj, req, k, budget)))
    return cases


@needs_c
def test_c_kernel_agrees_with_pure_at_64_vertices_and_63_colours():
    c = kernel.backends()["c"]
    for adj, req, k, budget, want in _boundary_cases():
        assert c.search_coloring(adj, req, k, budget) == want, (len(adj), req[0], k, budget)
        got = c._search_coloring(adj, req, k, budget, 2, 0)
        assert got == want, (len(adj), req[0], k, budget)


@functools.cache
def _top_plane_cases():
    """(adj, req, k, budget, pure kernel's answer) on K_{1,40}, which keeps
    the word state (n = 41). At r = 1 the centre's slack starts at 39, and
    at r = 40 with k = 41 or 42 its saturation climbs to 40: both use bit
    plane 5 of the word state's sat or slack. Budget 41 stops one node short
    of the colouring."""
    pure, cases = kernel.backends()["pure"].search_coloring, []
    g = build("kpart:1,40")[0]
    adj = g.adjacency_lists()
    for r, ks in ((1, (2, 3)), (40, (41, 42))):
        req = [min(g.degree(v), r) for v in range(g.n)]
        for k in ks:
            for budget in (0, 7, 41):
                cases.append((adj, req, k, budget, pure(adj, req, k, budget)))
    return cases


@needs_c
def test_c_kernel_agrees_with_pure_on_the_top_bit_planes():
    search = kernel.backends()["c"]._search_coloring
    for adj, req, k, budget, want in _top_plane_cases():
        for threads in (1, 2):
            got = search(adj, req, k, budget, threads, 0)
            assert got == want, (req[0], k, budget, threads)


def _run_driver(exe, adj, req, k, budget, threads, spawn_after, local=None):
    """local: (start, max_moves) to run the local search at k as well."""
    lines = [f"{len(adj)} {k} {budget} {threads} {spawn_after}", " ".join(map(str, req))]
    lines += [" ".join(map(str, [len(nb), *nb])) for nb in adj]
    if local is not None:
        start, max_moves = local
        lines += [f"{max_moves} {_kernel_py.TENURE} {_kernel_py.SEED}", " ".join(map(str, start))]
    return subprocess.run([str(exe)], input="\n".join(lines) + "\n", capture_output=True,
                          text=True, timeout=300)


def _sanitized_driver(tmp_path, flags, sanitizer):
    """tests/kernel_driver.c built with the kernel, its self-checks
    (CONDCHROM_CHECK) and `flags`. CPython does not run with a sanitizer's
    runtime preloaded, so the kernel is checked in this small C driver.
    Skips where cc cannot build or run such a binary."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    exe = tmp_path / "driver"
    source = Path(kernel.__file__).parent / "_kernel.c"
    built = subprocess.run(
        ["cc", "-std=c99", "-DCONDCHROM_CHECK", *flags, "-pthread", "-g", "-O1", "-o", str(exe),
         str(Path(__file__).parent / "kernel_driver.c"), str(source)],
        capture_output=True, text=True)
    if built.returncode:
        pytest.skip(f"cc cannot build with {sanitizer}: {built.stderr[:300]}")
    smoke = _run_driver(exe, [[]], [0], 1, 0, 1, 0)
    if smoke.returncode:
        pytest.skip(f"a {sanitizer} build does not run here: {smoke.stderr[:300]}")
    assert (smoke.stdout, smoke.stderr) == ("0 2 1\n", "")
    return exe


def _driver_result(exe, adj, req, k, budget, threads, spawn_after):
    """The driver's (status, colours, nodes); it must exit 0 with nothing on
    stderr, where a sanitizer reports."""
    return _driver_lines(exe, adj, req, k, budget, threads, spawn_after)[0]


def _driver_lines(exe, adj, req, k, budget, threads, spawn_after, local=None):
    """The (status, colours, count) of each line the driver prints."""
    proc = _run_driver(exe, adj, req, k, budget, threads, spawn_after, local)
    assert proc.stderr == "" and proc.returncode == 0, proc.stderr[:3000]
    out = []
    for line in proc.stdout.splitlines():
        status, count, colors = line.split()
        out.append((int(status), None if colors == "-" else [int(c) for c in colors.split(",")],
                    int(count)))
    return out


@functools.cache
def _local_rows():
    """(adj, req, k, budget, search answer, start, local search answer) where
    solve runs the local search on the benchmark's two budgeted rows:
    M(F_5) at r = 11, k = 12, which it colours before any kernel search (the
    kernel alone is cut there after 500,000 nodes), and M(K_{4,4}) at r = 6,
    where it fails k = 7, then colours k = 8, and the kernel is cut after
    300,000 nodes at k = 7 (the search at k = 8 is cut after one node). The
    answers are the pure kernel's."""
    pure, rows = kernel.backends()["pure"], []
    for spec, r, k, budget in (("M(fr:5)", 11, 12, 500_000), ("M(kpart:4,4)", 6, 7, 300_000),
                               ("M(kpart:4,4)", 6, 8, 1)):
        g = build(spec)[0]
        adj, req = _instance(spec, r)
        start = solver.greedy_start(distinctness_graph(g, r), k, _degree_order(g))
        rows.append((adj, req, k, budget, (kernel.BUDGET, None, budget + 1), start,
                     pure.local_search(adj, req, k, start, solver.LOCAL_MOVES)))
    return rows


def _check_local_rows(exe):
    for adj, req, k, budget, want, start, (colors, moves) in _local_rows():
        got = _driver_lines(exe, adj, req, k, budget, 4, 1000, (start, solver.LOCAL_MOVES))
        assert got == [want, (kernel.FOUND if colors else kernel.NONE, colors, moves)], k


def test_parallel_search_has_no_data_race(tmp_path):
    # The 65-vertex graph keeps the counter state, the others the word state.
    exe = _sanitized_driver(tmp_path, ["-fsanitize=thread"], "ThreadSanitizer")
    g = _cocktail(65)
    cases = [(*_instance("M(kpart:3,5)", 7), 9, 0, (kernel.NONE, None, 119_659)),
             (g.adjacency_lists(), [min(g.degree(v), 61) for v in range(65)], 62, 0,
              (kernel.NONE, None, 5_488))]
    cases += [(*_instance(spec, r), k, budget, (status, colors, nodes))
              for spec, r, k, budget, status, nodes, colors in HARD_PINS[1:]]
    for adj, req, k, budget, want in cases:
        assert _driver_result(exe, adj, req, k, budget, 4, 1000) == want, (len(adj), k)
    _check_budget_cut(exe)
    _check_local_rows(exe)


def _check_budget_cut(exe):
    """M(K_{4,4}) at r = 6, k = 7 cut at 33,046 nodes on 2 and 4 threads with
    helpers from the first node, ten times each: the searches split off
    continuations and cut pieces by their own limits, and in most runs a
    worker's piece stops while it holds a continuation, which must then be
    handed back unsearched (the self-checks abort otherwise)."""
    adj, req = _instance("M(kpart:4,4)", 6)
    for threads in (2, 4):
        for _ in range(10):
            got = _driver_result(exe, adj, req, 7, 33_046, threads, 0)
            assert got == (kernel.BUDGET, None, 33_047), threads


def test_kernel_has_no_undefined_behaviour(tmp_path):
    # The searches at 63 to 65 vertices and 62 to 64 colours and on the top
    # bit planes on one thread and on two, the hard pins on four, a budget
    # cut on two and four, and requirements far below 0.
    exe = _sanitized_driver(tmp_path, ["-fsanitize=undefined", "-fno-sanitize-recover=undefined"],
                            "UndefinedBehaviorSanitizer")
    for adj, req, k, budget, want in _boundary_cases() + _top_plane_cases():
        for threads in (1, 2):
            got = _driver_result(exe, adj, req, k, budget, threads, 0)
            assert got == want, (len(adj), req[0], k, budget, threads)
    for spec, r, k, budget, status, nodes, colors in HARD_PINS:
        got = _driver_result(exe, *_instance(spec, r), k, budget, 4, 1000)
        assert got == (status, colors, nodes), spec
    _check_budget_cut(exe)
    _check_local_rows(exe)
    # A requirement far below 0 acts as 0, without overflowing d - req.
    adj, req = [[1], [0, 2], [1]], [-2**63, 0, -1]
    want = kernel.backends()["pure"].search_coloring(adj, req, 3, 0)
    assert _driver_result(exe, adj, req, 3, 0, 1, 0) == want


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_kernel_handles_deep_graphs(name):
    g, _ = build("cyc:1500")
    search = kernel.backends()[name].search_coloring
    status, colors, _ = search(g.adjacency_lists(), [2] * g.n, 4, 0)
    assert status == kernel.FOUND
    assert check_conditional(g, Coloring(tuple(colors), 4), 2).valid


@pytest.mark.skipif(len(kernel.backends()) < 2, reason="only one backend loads")
@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_backends_agree_on_random_graphs(g):
    adj, mods = g.adjacency_lists(), kernel.backends()
    for r in range(1, max(g.max_degree(), 1) + 1):
        req = [min(g.degree(v), r) for v in range(g.n)]
        for k in range(1, g.n + 1):
            for budget in (0, 1, 7, 50):
                results = {name: mod.search_coloring(adj, req, k, budget)
                           for name, mod in mods.items()}
                assert len(set(map(repr, results.values()))) == 1, (r, k, budget, results)


@settings(max_examples=200, deadline=None)
@given(g=graphs(max_n=14), data=st.data())
def test_local_search_twins_agree_and_colorings_verify(g, data):
    # From a random start or the solver's greedy start on the distinctness
    # graph. A colouring found at k is a conditional colouring with at most
    # k colours, so the kernel cannot refute k.
    mods = kernel.backends()
    r = data.draw(st.integers(1, max(g.max_degree(), 1)))
    k = data.draw(st.integers(1, g.n + 1))
    adj, req = g.adjacency_lists(), [min(g.degree(v), r) for v in range(g.n)]
    if data.draw(st.booleans()):
        start = solver.greedy_start(distinctness_graph(g, r), k, _degree_order(g))
    else:
        start = data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n))
    max_moves = data.draw(st.sampled_from([0, 1, 7, 60, 300]))
    results = {name: mod.local_search(adj, req, k, start, max_moves) for name, mod in mods.items()}
    assert len(set(map(repr, results.values()))) == 1, results
    # The twins agree on requirements outside 0..d(v) too (C clamps them).
    odd = [x + data.draw(st.sampled_from([-2**62, -1, 0, 1, 2**62])) for x in req]
    assert len({repr(mod.local_search(adj, odd, k, start, max_moves))
                for mod in mods.values()}) == 1, odd
    colors, moves = results["pure"]
    assert 0 <= moves <= max_moves
    if colors is not None:
        assert check_conditional(g, Coloring(tuple(colors), k), r).valid
        assert mods["pure"].search_coloring(adj, req, k, 0)[0] != kernel.NONE


@needs_c
@pytest.mark.parametrize("spec, r, k, max_moves", [
    ("cyc:130", 2, 4, 300),    # three vertex words; colours it in 44 moves
    ("M(cyc:40)", 4, 5, 300),  # 80 vertices; k = 5 is not reached
    ("kpart:" + ",".join(["1"] * 66), 1, 66, 40),
])
def test_local_search_twins_agree_beyond_one_vertex_word(spec, r, k, max_moves):
    # The C twin keeps, per colour, a mask of the vertices that see it in
    # ceil(n/64) words; K_66 at k = 66 also uses colours above 64.
    g = build(spec)[0]
    adj, req = g.adjacency_lists(), [min(g.degree(v), r) for v in range(g.n)]
    start = [random.Random(v).randint(1, k) for v in range(g.n)]
    want = kernel.backends()["pure"].local_search(adj, req, k, start, max_moves)
    assert kernel.backends()["c"].local_search(adj, req, k, start, max_moves) == want
    assert want[1] > 0


_rng = random.Random(1)
DENSE = Graph(100, [e for e in combinations(range(100), 2) if _rng.random() < 0.5])

# (graph, r, ks): colour sets wider than one 64-bit mask word. K_70 at r = 1
# needs 70 colours. On the seeded random graph (Delta 59), r = 45 refutes
# k = 65..80 after 202..1,028 nodes and finds k = 100 with colours up to 96;
# r = 40 finds k = 80 and 100 with colours up to 76.
MANY_COLOUR_CASES = [
    (Graph(70, combinations(range(70), 2)), 1, (63, 64, 65, 69, 70, 71)),
    (DENSE, 45, (65, 66, 70, 80, 100)),
    (DENSE, 40, (80, 100)),
]


@pytest.mark.parametrize("name", sorted(kernel.backends()))
@pytest.mark.parametrize("g, r, ks", MANY_COLOUR_CASES, ids=["K70", "dense-r45", "dense-r40"])
def test_backends_agree_beyond_64_colours(name, g, r, ks):
    adj = g.adjacency_lists()
    req = [min(g.degree(v), r) for v in range(g.n)]
    search, pure = kernel.backends()[name].search_coloring, kernel.backends()["pure"].search_coloring
    top = 0  # highest colour in a FOUND colouring
    for k in ks:
        for budget in (0, 1, 7, 5000):
            got = search(adj, req, k, budget)
            assert got == pure(adj, req, k, budget), (k, budget)
            status, colors, _ = got
            if status == kernel.FOUND:
                top = max(top, *colors)
                assert check_conditional(g, Coloring(tuple(colors), k), r).valid, (k, budget)
    assert top > 64


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# (graph, r, ks): regular and near-regular graphs, where degree ties decide
# the pick, some with more than 64 or 128 vertices, so that a set of vertices
# spans two or three 64-bit words. Each graph is also searched under two
# random relabellings. The longest full search is M(K_{4,4}) at r = 7,
# k = 8: 24,373 nodes, refuted.
TIE_CASES = {
    "K9": (Graph(9, combinations(range(9), 2)), 8, (8, 9)),
    "M(K44)": (build("M(kpart:4,4)")[0], 7, (8, 10)),
    "M(K33)": (build("M(kpart:3,3)")[0], 5, (6,)),
    "circ20": (_circulant(20, (1, 4)), 3, (4, 5)),
    "cyc70": (build("cyc:70")[0], 2, (3, 4)),
    "circ66-r5": (_circulant(66, (1, 2, 3)), 5, (6,)),
    "circ66-r6": (_circulant(66, (1, 2, 3)), 6, (7, 8)),
    "cyc140": (build("cyc:140")[0], 2, (3, 4)),
    "M(cyc70)": (build("M(cyc:70)")[0], 4, (5,)),
}


@pytest.mark.parametrize("name", sorted(set(kernel.backends()) - {"pure"}))
@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_backends_agree_on_ties_and_wide_vertex_sets(name, case):
    g, r, ks = TIE_CASES[case]
    search, pure = kernel.backends()[name].search_coloring, kernel.backends()["pure"].search_coloring
    for graph in (g, _shuffled(g, 1), _shuffled(g, 2)):
        adj = graph.adjacency_lists()
        req = [min(graph.degree(v), r) for v in range(graph.n)]
        for k in ks:
            for budget in (0, 1, 7, 5000):
                assert search(adj, req, k, budget) == pure(adj, req, k, budget), (k, budget)


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_kernel_rejects_loops_and_repeated_neighbours(name):
    # Checked before anything else, so even k = 0 does not get past it.
    search = kernel.backends()[name].search_coloring
    cases = [([[0, 1], [0], []], [1, 1, 0], 2),  # 0 is its own neighbour
             ([[1, 2, 2], [0], [0, 0]], [2, 1, 1], 3),  # 2 twice, then 0 twice
             ([[1, 1], [0]], [1, 1], 3),  # n neighbours
             ([[0]], [0], 0)]
    for adj, req, k in cases:
        with pytest.raises(ValueError, match="its own neighbor or has a repeated neighbor"):
            search(adj, req, k, 0)


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_kernel_rejects_a_req_or_neighbour_id_that_does_not_fit(name):
    # In this order: req's length, then the ids, then (search_coloring
    # only) loops and repeats. The local search checks its start first.
    mod = kernel.backends()[name]
    cases = [([[1], [0]], [1], "req has 1 entries for 2 vertices"),
             ([[1], [0]], [1, 1, 1], "req has 3 entries for 2 vertices"),
             ([[1, 5], [0]], [1], "req has 1 entries"),
             ([[1], [0, 2]], [1, 1], "neighbor id out of range"),
             ([[1], [-1, 0]], [1, 1], "neighbor id out of range"),
             ([[0, 0], [5]], [1, 1], "neighbor id out of range")]
    for adj, req, message in cases:
        with pytest.raises(ValueError, match=message):
            mod.search_coloring(adj, req, 3, 0)
        with pytest.raises(ValueError, match=message):
            mod.local_search(adj, req, 3, [1, 2], 10)
    with pytest.raises(ValueError, match="start must give"):
        mod.local_search([[1], [0, 2]], [1], 3, [1], 10)


@pytest.mark.parametrize("name", sorted(kernel.backends()))
def test_local_search_twins_reject_a_bad_start(name):
    # A start with a color above k or too few entries once made the C twin
    # write or read past its arrays, killing the interpreter, and the pure
    # twin took [0, 1], which uses color 0, for a solution. So the calls run
    # in a child process, where a crash fails this test, not the run.
    script = ("from condchrom import kernel\n"
              f"search = kernel.backends()[{name!r}].local_search\n"
              "for start in ([1, 10**6], [1], [0, 1]):\n"
              "    try:\n"
              "        print(search([[1], [0]], [1, 1], 2, start, 10))\n"
              "    except ValueError as e:\n"
              "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(kernel.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    message = "start must give each of the 2 vertices a color in 1..2\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, 3 * message, "")


def _import_backend(tmp_path, backend):
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(kernel.__file__).parents[1]),
               CONDCHROM_BACKEND=backend)
    return subprocess.run(
        [sys.executable, "-c", "import condchrom; print(condchrom.BACKEND_NAME)"],
        env=env, capture_output=True, text=True, timeout=60)


def test_without_a_compiler_auto_falls_back_and_c_fails(tmp_path):
    auto = _import_backend(tmp_path, "auto")
    assert auto.returncode == 0 and auto.stdout == "pure\n" and auto.stderr == ""
    forced = _import_backend(tmp_path, "c")
    assert forced.returncode != 0
    assert "ImportError" in forced.stderr and "'cc'" in forced.stderr
