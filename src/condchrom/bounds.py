"""Lower bounds on the conditional chromatic number.

Three sources: the clique number (omega <= chi_r), the cited
min{r, Delta} + 1 bound, and maximization of Vset-d2r certificates
(a Vset-d2r of size s forces chi_r >= s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph
from .verify import check_vset_d2r

CLIQUE = "clique"
VSET = "vset-d2r"
BASIC = "basic-r-delta"

DEFAULT_VSET_BUDGET = 200_000


@dataclass(frozen=True)
class BoundReport:
    value: int
    kind: str
    certificate: tuple | None = None  # sorted vertex ids for clique/vset
    exact: bool = True  # False when a search budget was exhausted

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "certificate": list(self.certificate) if self.certificate else None,
            "exact": self.exact,
        }


def clique_number(g: Graph, size_guard: int | None = None) -> BoundReport:
    """Exact maximum clique via branch and bound with a greedy-coloring
    bound (Tomita-style). Intended for desk-scale graphs."""
    if size_guard is not None and g.n > size_guard:
        raise ParameterError(f"graph has {g.n} > {size_guard} vertices")
    if g.n == 0:
        return BoundReport(0, CLIQUE, ())
    adj = [g.neighbors(v) for v in range(g.n)]
    best: list[int] = []

    def greedy_color_order(cands: list[int]) -> list[tuple[int, int]]:
        # Returns (vertex, color-class index) pairs, colors ascending.
        classes: list[list[int]] = []
        for v in cands:
            for ci, cls in enumerate(classes):
                if all(u not in adj[v] for u in cls):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        out = []
        for ci, cls in enumerate(classes, start=1):
            out.extend((v, ci) for v in cls)
        return out

    def expand(current: list[int], cands: list[int]) -> None:
        nonlocal best
        ordered = greedy_color_order(cands)
        for v, bound in reversed(ordered):
            if len(current) + bound <= len(best):
                return
            current.append(v)
            nxt = [u for u in cands if u in adj[v] and u != v]
            if not nxt:
                if len(current) > len(best):
                    best = list(current)
            else:
                expand(current, nxt)
            current.pop()
            cands = [u for u in cands if u != v]

    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    expand([], order)
    return BoundReport(len(best), CLIQUE, tuple(sorted(best)))


def basic_lower_bound(g: Graph, r: int) -> BoundReport:
    """The cited bound chi_r(G) >= min{r, Delta} + 1."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    if g.n < 2 or g.m < 1:
        raise ParameterError("bound needs a graph with at least one edge")
    return BoundReport(min(r, g.max_degree()) + 1, BASIC)


def max_vset_d2r(
    g: Graph, r: int, budget: int = DEFAULT_VSET_BUDGET
) -> BoundReport:
    """Largest Vset-d2r found by include/exclude branch and bound.

    The certificate always validates; `exact` is False when the node budget
    ran out before the search space was exhausted.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    cands = [v for v in range(g.n) if g.degree(v) <= r]
    adj = [g.neighbors(v) for v in range(g.n)]
    best: list[int] = []
    nodes = 0
    exhausted = False

    def coverable(chosen: tuple[int, ...], pool: set[int]) -> bool:
        # Every chosen pair must be adjacent or still have a potential
        # witness (a set member, present or future) adjacent to both.
        for i, u1 in enumerate(chosen):
            for u2 in chosen[i + 1 :]:
                if u2 in adj[u1]:
                    continue
                if not (adj[u1] & adj[u2] & pool):
                    return False
        return True

    def valid_now(chosen: tuple[int, ...]) -> bool:
        cs = set(chosen)
        for i, u1 in enumerate(chosen):
            for u2 in chosen[i + 1 :]:
                if u2 not in adj[u1] and not (adj[u1] & adj[u2] & cs):
                    return False
        return True

    # Depth-first over (next candidate index, chosen so far); the include
    # child is pushed last so that it is expanded first. Both children are
    # tested when their parent is expanded: `coverable` reads neither `best`
    # nor the budget, so the order of tests does not change the search.
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        idx, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            exhausted = True
            break
        if len(chosen) > len(best) and valid_now(chosen):
            best = list(chosen)
        if idx == len(cands):
            continue
        if len(chosen) + (len(cands) - idx) <= len(best):
            continue
        v = cands[idx]
        pool = set(chosen) | set(cands[idx:])
        with_v = chosen + (v,)
        include = coverable(with_v, pool)
        pool.discard(v)
        if coverable(chosen, pool):
            stack.append((idx + 1, chosen))
        if include:
            stack.append((idx + 1, with_v))
    if best:
        assert check_vset_d2r(g, best, r)
    return BoundReport(len(best), VSET, tuple(sorted(best)), exact=not exhausted)


def lower_bounds(
    g: Graph, r: int, vset_budget: int = DEFAULT_VSET_BUDGET
) -> list[BoundReport]:
    """The clique bound and, on graphs with an edge, the min{r,Delta}+1
    bound and the Vset-d2r bound, each computed once.

    The min{r,Delta}+1 bound is applied only to connected graphs with at
    least that many vertices (the cited statement assumes connectivity);
    otherwise it is skipped.
    """
    reports = [clique_number(g)]
    if g.m >= 1:
        basic = basic_lower_bound(g, r)
        if g.is_connected() and g.n >= basic.value:
            reports.append(basic)
        reports.append(max_vset_d2r(g, r, budget=vset_budget))
    return reports


def strongest(reports: list[BoundReport]) -> BoundReport:
    """The report with the largest value; the earliest one wins a tie."""
    return max(reports, key=lambda rep: rep.value)


def best_lower_bound(
    g: Graph, r: int, vset_budget: int = DEFAULT_VSET_BUDGET
) -> BoundReport:
    """Maximum of `lower_bounds`, with the winning certificate."""
    return strongest(lower_bounds(g, r, vset_budget))
