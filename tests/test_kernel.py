"""Kernel semantics pinned row by row: status, node count and coloring of
every corpus graph at every r <= Delta, every k <= n and budgets
{0, 1, 7, 50}, plus two budget-cut rows on the hard tail."""

from pathlib import Path

import pytest

from condchrom import build, check_conditional, kernel
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


def test_kernel_handles_deep_graphs():
    g, _ = build("cyc:1500")
    status, colors, _ = kernel.search_coloring(g.adjacency_lists(), [2] * g.n, 4, 0)
    assert status == kernel.FOUND
    assert check_conditional(g, Coloring(tuple(colors), 4), 2).valid
