"""Lower bounds on the conditional chromatic number.

Three sources, each sound on every graph it applies to: the clique number
(omega <= chi_r), the cited min{r, Delta} + 1 bound on any graph with an
edge (a vertex of degree Delta sees min{r, Delta} colors, none of them its
own), and maximization of Vset-d2r certificates (a Vset-d2r of size s
forces chi_r >= s).
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


def clique_number(g: Graph) -> BoundReport:
    """Exact maximum clique via branch and bound with a greedy-coloring
    bound (Tomita-style). Intended for desk-scale graphs."""
    if g.n == 0:
        return BoundReport(0, CLIQUE, ())
    adj = [g.neighbors(v) for v in range(g.n)]
    best: list[int] = []

    def branches(cands: list[int]) -> list:
        # [(vertex, color-class index) pairs, highest color first; cands].
        classes: list[list[int]] = []
        for v in cands:
            for cls in classes:
                if adj[v].isdisjoint(cls):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        ordered = [(v, ci) for ci, cls in enumerate(classes, start=1) for v in cls]
        return [reversed(ordered), cands]

    # Depth-first on an explicit stack: the frame at depth i branches on the
    # vertices that extend current[:i]; when a branch is done, its vertex
    # leaves the candidates of the frame below.
    current: list[int] = []
    stack = [branches(sorted(range(g.n), key=lambda v: (-len(adj[v]), v)))]
    while stack:
        frame = stack[-1]
        step = next(frame[0], None)
        if step is None or len(current) + step[1] <= len(best):
            stack.pop()
            if stack:
                done = current.pop()
                stack[-1][1] = [u for u in stack[-1][1] if u != done]
            continue
        current.append(step[0])
        nxt = [u for u in frame[1] if u in adj[step[0]]]
        if not nxt and len(current) > len(best):
            best = list(current)
        stack.append(branches(nxt))
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
    """Largest Vset-d2r found by include/exclude branch and bound, run once
    per anchor.

    Every member of a Vset-d2r S is adjacent to the smallest member a or
    shares a neighbour with it inside S, and that neighbour is a member
    above a too. So the search for the sets whose smallest member is a
    includes a and branches only on the candidates (degree <= r) above a
    that are adjacent to a or to a candidate neighbour of a above a.
    Anchors run in id order and share the incumbent; an anchor with no more
    candidates than the incumbent has members is skipped. `budget` counts
    nodes over all anchors together. The certificate always validates;
    `exact` is False when the budget ran out before every anchor was done.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    adj = [g.neighbors(v) for v in range(g.n)]
    low = [len(adj[v]) <= r for v in range(g.n)]
    best: list[int] = []
    nodes = 0

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

    for a in (v for v in range(g.n) if low[v]):
        reach = adj[a].union(*(adj[w] for w in adj[a] if low[w] and w > a))
        cands = [a, *sorted(v for v in reach if low[v] and v > a)]
        if len(cands) <= len(best):
            continue
        # Depth-first over (next candidate index, chosen so far); the
        # include child is pushed last so that it is expanded first. Both
        # children are tested when their parent is expanded: `coverable`
        # reads neither `best` nor the budget, so the order of tests does
        # not change the search.
        stack: list[tuple[int, tuple[int, ...]]] = [(1, (a,))]
        while stack:
            idx, chosen = stack.pop()
            nodes += 1
            if nodes > budget:
                break
            if len(chosen) > len(best) and coverable(chosen, set(chosen)):
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
        if nodes > budget:
            break
    if best:
        assert check_vset_d2r(g, best, r)
    return BoundReport(len(best), VSET, tuple(sorted(best)), exact=nodes <= budget)


def lower_bounds(
    g: Graph, r: int, vset_budget: int = DEFAULT_VSET_BUDGET
) -> list[BoundReport]:
    """Every sound lower bound, each computed once: the clique bound, the
    min{r,Delta}+1 bound when the graph has an edge, and the Vset-d2r bound,
    in that order."""
    reports = [clique_number(g)]
    if g.m >= 1:
        reports.append(basic_lower_bound(g, r))
    reports.append(max_vset_d2r(g, r, budget=vset_budget))
    return reports


def strongest(reports: list[BoundReport]) -> BoundReport:
    """The report with the largest value; the earliest one wins a tie."""
    return max(reports, key=lambda rep: rep.value)


def best_lower_bound(g: Graph, r: int) -> BoundReport:
    """Maximum of `lower_bounds`, with the winning certificate."""
    return strongest(lower_bounds(g, r))
