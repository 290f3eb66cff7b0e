"""Kernel semantics pinned row by row: status, node count and coloring of
every corpus graph at every r <= Delta, every k <= n and budgets
{0, 1, 7, 50}, plus two budget-cut rows on the hard tail. The backends are
also compared on random graphs, on graphs that need more than 64 colours,
on regular graphs where degree ties decide the pick and on graphs of more
than 64 and 128 vertices. The loader's fallback is checked with no compiler
on PATH."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_graphs import graphs

from condchrom import build, check_conditional, kernel
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


def _circulant(n, offsets):
    return Graph(n, {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})


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


@pytest.mark.parametrize("name", sorted(set(kernel.backends()) - {"pure"}))
def test_compiled_kernel_rejects_n_or_more_neighbours(name):
    search = kernel.backends()[name].search_coloring
    with pytest.raises(ValueError, match="2 or more neighbors"):
        search([[1, 1], [0]], [1, 1], 3, 0)


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
