"""Exact computation of the r-th order conditional chromatic number.

chi_r(G) is found by iterating the color budget k upward from the best
lower bound and running the backtracking decision kernel at each level.
The result is a bracket (lo, hi): every level below lo is refuted by a
sound bound or by search, and the witness coloring uses hi colors. Under a
node budget, the kernel's local search colors first and the decision kernel
searches only the levels below the hi that gives, so the budget goes on
refutation alone. After the ladder, the witness is the kernel's, a verified
coloring from the local search, or else the all-distinct coloring; the local
search's moves count whichever wins. chi_r is proven exactly when lo == hi.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from . import kernel
from .bounds import BoundReport, best_lower_bound, distinctness_graph
from .errors import ParameterError
from .graphs import Graph
from .verify import Coloring, check_conditional

# The most vertices of an instance that sweep, `condchrom solve` and
# `condchrom table` build unless told otherwise.
DEFAULT_SIZE_CAP = 24

# Where a solve's hi comes from: the witness of a kernel search, a local
# search's coloring that check_conditional accepted, or the coloring of
# every vertex apart. An edgeless graph takes one color with no search.
KERNEL = "kernel"
LOCAL_SEARCH = "local-search"
ALL_DISTINCT = "all-distinct"
EDGELESS = "edgeless"

# A budgeted solve's local search tries the levels lb, lb + 1, ... below n,
# at most LOCAL_LEVELS of them, each for at most LOCAL_MOVES moves. Where it
# colors none and the budget stops the ladder at lo, it tries the levels from
# lo on in the same way, skipping those it has failed.
LOCAL_MOVES = 500
LOCAL_LEVELS = 4


@dataclass(frozen=True)
class SolveResult:
    """A solve's bracket and witness. nodes_expanded counts kernel nodes
    alone; upper_source says where the witness, and so hi, came from (one
    of KERNEL, LOCAL_SEARCH, ALL_DISTINCT and EDGELESS), and local_moves
    how many moves the local search made over all its levels, whatever the
    source (0 when it did not run). Every field is deterministic; only
    `backend` differs between backends."""

    r: int
    witness: Coloring
    nodes_expanded: int
    lower_bound_used: BoundReport
    bracket: tuple  # (lo, hi): lo <= chi_r <= hi, hi colors in the witness
    upper_source: str
    local_moves: int
    backend: str = kernel.BACKEND_NAME

    @property
    def chi_r(self) -> int:
        """The best known upper bound; chi_r itself when proven."""
        return self.bracket[1]

    @property
    def proven(self) -> bool:
        return self.bracket[0] == self.bracket[1]

    def to_json_dict(self) -> dict:
        return {
            "chi_r": self.chi_r,
            "r": self.r,
            "witness": self.witness.to_json_dict(),
            "nodes_expanded": self.nodes_expanded,
            "lower_bound": self.lower_bound_used.to_json_dict(),
            "proven": self.proven,
            "bracket": list(self.bracket),
            "upper_bound": {"source": self.upper_source, "moves": self.local_moves},
            "backend": self.backend,
        }


def _normalized_r(g: Graph, r: int) -> int:
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    return min(r, g.max_degree()) if g.m > 0 else 0


def _requirements(g: Graph, r_eff: int) -> list[int]:
    return [min(g.degree(v), r_eff) for v in range(g.n)]


def exists_conditional_coloring(
    g: Graph, k: int, r: int, budget: int = 0
) -> tuple[str, Coloring | None, int]:
    """Decision form: ("found", witness, nodes), ("none", None, nodes) or
    ("unknown", None, nodes) when the node budget ran out."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    r_eff = _normalized_r(g, r)
    status, colors, nodes = kernel.search_coloring(
        g.adjacency_lists(), _requirements(g, r_eff), k, budget
    )
    if status == kernel.FOUND:
        return "found", Coloring(tuple(colors), max(colors) if colors else 1), nodes
    return ("none" if status == kernel.NONE else "unknown"), None, nodes


def greedy_start(h: list, k: int, order) -> list[int]:
    """A coloring in colors 1..k of the graph with neighbour sets `h`,
    greedy in the vertex order `order`: each vertex takes the lowest color
    that none of its colored neighbours has, or else the color fewest of
    them have (the lowest on a tie)."""
    color = [0] * len(h)
    for v in order:
        around = Counter(color[u] for u in h[v])
        c = 1
        while around[c]:
            c += 1
        if c > k:
            c = min(range(1, k + 1), key=around.__getitem__)
        color[v] = c
    return color


def _local_upper(g: Graph, r_eff: int, h: list, levels, adj, req):
    """(witness or None, moves): the local search's coloring at the first of
    `levels` that it colors and check_conditional accepts, its colors
    renumbered 1..hi in increasing order. Each level starts from
    greedy_start on h, the distinctness graph, in the kernel's vertex order
    (degree descending, then id) and runs at most LOCAL_MOVES moves."""
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    moves = 0
    for k in levels:
        start = greedy_start(h, k, order)
        colors, made = kernel.local_search(adj, req, k, start, LOCAL_MOVES)
        moves += made
        if colors is None:
            continue
        rank = {c: i for i, c in enumerate(sorted(set(colors)), start=1)}
        witness = Coloring(tuple(rank[c] for c in colors), len(rank))
        if check_conditional(g, witness, r_eff).valid:
            return witness, moves
    return None, moves


def chi_r_exact(g: Graph, r: int, budget: int = 0) -> SolveResult:
    """Minimum number of distinct colors admitting a conditional coloring
    at level r (r is capped at Delta first; C2 saturates at d(v)).

    Levels k climb from the best lower bound until the kernel finds a
    coloring or the node budget (0 = unlimited) is spent. lo is the first
    level not refuted. Under a budget, the local search (kernel.local_search)
    runs first, from the lower bound, and its coloring is used only once
    check_conditional accepts it; the ladder then climbs only while lo < hi,
    hi being that coloring's colors, or n for the all-distinct coloring.
    Where the local search colored no level and the budget stops the ladder,
    it runs again from lo on the levels it has not tried. After the ladder a
    kernel witness, if any, gives hi its colors; the moves count either way.
    The result is proven when lo == hi; nodes_expanded counts kernel nodes.
    """
    if g.n < 1:
        raise ParameterError("graph must have at least one vertex")
    r_eff = _normalized_r(g, r)
    if g.m == 0:
        witness = Coloring((1,) * g.n, 1)
        return SolveResult(r, witness, 0, BoundReport(1, "clique", (0,)), (1, 1),
                           EDGELESS, 0)

    h = distinctness_graph(g, r_eff)
    lb = best_lower_bound(g, r_eff, h)
    adj = g.adjacency_lists()
    req = _requirements(g, r_eff)
    # Unbudgeted solves run the ladder first, up to level n, until the
    # benchmark's node pins are re-recorded (ROADMAP item 1); then this
    # condition goes.
    if budget:
        first = range(lb.value, min(lb.value + LOCAL_LEVELS, g.n))
        witness, moves = _local_upper(g, r_eff, h, first, adj, req)
        top = witness.k if witness else g.n
    else:
        witness, moves, top = None, 0, g.n + 1
    total_nodes = 0
    lo, status = lb.value, kernel.NONE
    while lo < top:
        remaining = budget - total_nodes if budget else 0
        if budget and remaining <= 0:  # a spent or negative budget
            status = kernel.BUDGET
            break
        status, colors, nodes = kernel.search_coloring(adj, req, lo, remaining)
        total_nodes += nodes
        if status != kernel.NONE:
            break
        lo += 1
    source = LOCAL_SEARCH
    if status == kernel.FOUND:
        witness, source = Coloring(tuple(colors), max(colors)), KERNEL
    elif witness is None and status == kernel.BUDGET:
        later = range(max(lo, first.stop), min(lo + LOCAL_LEVELS, g.n))
        witness, more = _local_upper(g, r_eff, h, later, adj, req)
        moves += more
    if witness is None:
        witness, source = Coloring(tuple(range(1, g.n + 1)), g.n), ALL_DISTINCT
    return SolveResult(r, witness, total_nodes, lb, (lo, witness.k), source, moves)


def sweep(entries, budget: int = 0, size_cap: int = DEFAULT_SIZE_CAP) -> list[dict]:
    """Cross-check closed-form predictions against the exact solver.

    entries: iterable of (family-spec string, r). Each spec is built once,
    however many of its levels are listed. Instances above the size cap are
    not built (families.build_within): their rows keep the formula value and
    mark the exact column skipped. A row's "ms" (the only field that is not deterministic) is the
    wall time of its prediction and solve, and of the build for the first
    row of a spec.
    """
    from . import constructions, families

    built: dict[str, tuple[int, Graph | None]] = {}
    rows = []
    for spec_str, r in entries:
        t0 = time.perf_counter()
        if spec_str not in built:
            built[spec_str] = families.build_within(spec_str, size_cap)
        n, g = built[spec_str]
        formula = constructions.predicted_chi_r(spec_str, r)
        row = {
            "instance": spec_str,
            "n_vertices": n,
            "r": r,
            "formula": formula,
            "exact": None,
            "match": None,
            "proven": "skipped",
            "nodes": 0,
        }
        if g is not None:
            res = chi_r_exact(g, r, budget=budget)
            if formula is not None and res.proven:
                row["match"] = formula == res.chi_r
            row["exact"] = res.chi_r if res.proven else None
            row["proven"] = "yes" if res.proven else "budget"
            row["nodes"] = res.nodes_expanded
        row["ms"] = round((time.perf_counter() - t0) * 1000.0, 1)
        rows.append(row)
    return rows
