"""Exact computation of the r-th order conditional chromatic number.

chi_r(G) is found by iterating the color budget k upward from the best
lower bound and running the backtracking decision kernel at each level.
The result is a bracket (lo, hi): every level below lo is refuted by a
sound bound or by search, and the witness coloring uses hi colors. chi_r is
proven exactly when lo == hi.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import kernel
from .bounds import BoundReport, best_lower_bound
from .errors import ParameterError
from .graphs import Graph
from .verify import Coloring

# The most vertices of an instance that sweep, `condchrom solve` and
# `condchrom table` build unless told otherwise.
DEFAULT_SIZE_CAP = 24


@dataclass(frozen=True)
class SolveResult:
    r: int
    witness: Coloring
    nodes_expanded: int
    lower_bound_used: BoundReport
    bracket: tuple  # (lo, hi): lo <= chi_r <= hi, hi colors in the witness
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


def chi_r_exact(g: Graph, r: int, budget: int = 0) -> SolveResult:
    """Minimum number of distinct colors admitting a conditional coloring
    at level r (r is capped at Delta first; C2 saturates at d(v)).

    Levels k climb from the best lower bound until the kernel finds a
    coloring, runs out of nodes, or the node budget (0 = unlimited) is
    spent. lo is the first level not refuted; hi is the number of colors of
    the kernel's witness, or else n for the all-distinct coloring. The
    result is proven when lo == hi.
    """
    if g.n < 1:
        raise ParameterError("graph must have at least one vertex")
    r_eff = _normalized_r(g, r)
    if g.m == 0:
        witness = Coloring((1,) * g.n, 1)
        return SolveResult(r, witness, 0, BoundReport(1, "clique", (0,)), (1, 1))

    lb = best_lower_bound(g, r_eff)
    adj = g.adjacency_lists()
    req = _requirements(g, r_eff)
    total_nodes = 0
    status = kernel.BUDGET  # no search ran: a spent or negative budget
    for lo in range(lb.value, g.n + 1):
        remaining = budget - total_nodes if budget else 0
        if budget and remaining <= 0:
            break
        status, colors, nodes = kernel.search_coloring(adj, req, lo, remaining)
        total_nodes += nodes
        if status != kernel.NONE:
            break
    if status == kernel.FOUND:
        witness = Coloring(tuple(colors), max(colors))
    else:
        witness = Coloring(tuple(range(1, g.n + 1)), g.n)
    return SolveResult(r, witness, total_nodes, lb, (lo, witness.k))


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
