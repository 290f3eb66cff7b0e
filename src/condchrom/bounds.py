"""Lower bounds on the conditional chromatic number.

Four sources, each sound on every graph it applies to: the clique number
(omega <= chi_r), the cited min{r, Delta} + 1 bound on any graph with an
edge (a vertex of degree Delta sees min{r, Delta} colors, none of them its
own), maximization of Vset-d2r certificates (a Vset-d2r of size s forces
chi_r >= s), and the distinctness clique, a set of vertices that must all
get different colors. The last dominates the clique and Vset-d2r bounds.

Both cliques come from kernel.max_clique, the Tomita-Seki branch and bound
of _kernel_py.max_clique, which runs in the compiled kernel when it loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernel
from .errors import ParameterError
from .graphs import EDGE_LIMIT, Graph
from .verify import check_vset_d2r

CLIQUE = "clique"
VSET = "vset-d2r"
BASIC = "basic-r-delta"
DISTINCT = "distinct-clique"

DEFAULT_VSET_BUDGET = 200_000


@dataclass(frozen=True)
class BoundReport:
    value: int
    kind: str
    certificate: tuple | None = None  # sorted vertex ids, None for basic
    exact: bool = True  # False when a search budget was exhausted

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "certificate": list(self.certificate) if self.certificate else None,
            "exact": self.exact,
        }


def clique_number(g: Graph) -> BoundReport:
    """Exact maximum clique of g. Intended for desk-scale graphs."""
    best = kernel.max_clique([g.neighbors(v) for v in range(g.n)])
    return BoundReport(len(best), CLIQUE, tuple(sorted(best)))


def distinctness_graph(g: Graph, r: int) -> list[set[int]]:
    """Neighbour sets of H, the graph g plus every pair of neighbours of
    each vertex of degree <= r. Two vertices adjacent in H get different
    colours in every conditional coloring at level r: by C1, or by C2 at
    their common neighbour w, whose d(w) <= r neighbours must all differ.

    Raises ParameterError once H has more than graphs.EDGE_LIMIT edges."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    nbr = [g.neighbors(v) for v in range(g.n)]
    # Each set holds its own vertex until the end, so the sets' total size,
    # `entries`, is n plus twice the edge count of H once all are complete;
    # the sets only grow, so it passes the cap only if H will.
    adj = [{v, *nb} for v, nb in enumerate(nbr)]
    entries, cap = 2 * g.m + g.n, 2 * EDGE_LIMIT + g.n
    for around in nbr:
        if len(around) <= r:
            for u in around:
                s = adj[u]
                entries -= len(s)
                s |= around
                entries += len(s)
                if entries > cap:
                    raise ParameterError(f"the distinctness graph H at r = {r} has "
                                         f"more than {EDGE_LIMIT} edges, its limit")
    for u, s in enumerate(adj):
        s.discard(u)
    return adj


def distinct_clique(g: Graph, r: int) -> BoundReport:
    """Maximum clique of H, the distinctness graph of g at level r. Every
    clique of g and every Vset-d2r is a clique of H."""
    best = kernel.max_clique(distinctness_graph(g, r))
    return BoundReport(len(best), DISTINCT, tuple(sorted(best)))


def basic_lower_bound(g: Graph, r: int) -> BoundReport:
    """The cited bound chi_r(G) >= min{r, Delta} + 1."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    if g.n < 2 or g.m < 1:
        raise ParameterError("bound needs a graph with at least one edge")
    return BoundReport(min(r, g.max_degree()) + 1, BASIC)


def max_vset_d2r(
    g: Graph, r: int, budget: int = DEFAULT_VSET_BUDGET, *,
    ceiling: int | None = None
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

    `ceiling`, when given, must be an upper bound on the size of every
    Vset-d2r of g at level r; the search stops, with `exact` True, as soon
    as the incumbent has that many members. omega(H), the value of
    `distinct_clique(g, r)`, is one, because a Vset-d2r is a clique of H:
    two of its members are adjacent in g or have a common neighbour among
    its members, and every member has degree <= r. The incumbent is
    replaced only by a larger set, so the stop changes neither the value
    nor the certificate, only `exact`.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    adj = [g.neighbors(v) for v in range(g.n)]
    low = [len(adj[v]) <= r for v in range(g.n)]
    if ceiling is None:
        ceiling = math.inf
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
                if len(best) >= ceiling:
                    break
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
        if nodes > budget or len(best) >= ceiling:
            break
    if best:
        assert check_vset_d2r(g, best, r)
    return BoundReport(len(best), VSET, tuple(sorted(best)), exact=nodes <= budget)


def lower_bounds(g: Graph, r: int) -> list[BoundReport]:
    """Every sound lower bound, each computed once: the clique bound, the
    min{r,Delta}+1 bound when the graph has an edge, the Vset-d2r bound and
    the distinctness-clique bound, in that order. The distinctness clique
    is computed first and is the Vset-d2r search's ceiling, so that search
    stops once its set reaches omega(H). Where its default budget runs out
    first, the set found is below omega(H), so the exact distinctness
    clique is the strictly larger bound."""
    distinct = distinct_clique(g, r)
    reports = [clique_number(g)]
    if g.m >= 1:
        reports.append(basic_lower_bound(g, r))
    reports.append(max_vset_d2r(g, r, ceiling=distinct.value))
    reports.append(distinct)
    return reports


def strongest(reports: list[BoundReport]) -> BoundReport:
    """The report with the largest value; the earliest one wins a tie."""
    return max(reports, key=lambda rep: rep.value)


def best_lower_bound(g: Graph, r: int, h: list | None = None) -> BoundReport:
    """The largest of the min{r,Delta}+1 bound (when the graph has an edge)
    and the distinctness-clique bound, with the winning certificate; the
    former wins a tie. The latter is at least the clique and Vset-d2r
    bounds, so this is the value of `strongest(lower_bounds(g, r))`, found
    without their searches. `h`, when given, is distinctness_graph(g, r).
    The clique search on H looks only for a clique above the basic bound."""
    if h is None:
        h = distinctness_graph(g, r)
    basic = basic_lower_bound(g, r) if g.m >= 1 else None
    best = kernel.max_clique(h, basic.value if basic else 0)
    if basic and not best:
        return basic
    return BoundReport(len(best), DISTINCT, tuple(sorted(best)))
