"""Independent brute-force oracles and samplers used only by the tests.

These deliberately share no code with condchrom.solver or condchrom.bounds:
plain recursive enumeration in vertex-id order, no saturation ordering, no
incremental C2 counters, no branch and bound. random_c2_colorings samples
assignments that satisfy C2 but need not be proper. The exceptions are the
former designs kept to hold a rewrite to the same answers: clique_list_scan,
and ladder_then_local_search, which puts the solver's own parts in their
former order.
"""

import random
from itertools import combinations, product

from condchrom import kernel, solver
from condchrom.bounds import best_lower_bound
from condchrom.errors import ParameterError
from condchrom.verify import Coloring, check_conditional


def proper_colorings(g, k):
    """Every total assignment from palette 1..k that is proper (C1 only)."""
    edges = g.edges()
    for assignment in product(range(1, k + 1), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            yield assignment


def chromatic_number_bruteforce(g):
    """Plain chromatic number by simple backtracking in id order."""

    def colorable(k):
        colors = [0] * g.n

        def place(v):
            if v == g.n:
                return True
            used = {colors[u] for u in g.neighbors(v) if u < v}
            for c in range(1, k + 1):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = 0
            return False

        return place(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def chi_r_bruteforce(g, r):
    """chi_r by exhaustive enumeration; only viable for tiny graphs."""
    for k in range(1, g.n + 1):
        for assignment in product(range(1, k + 1), repeat=g.n):
            c = Coloring(assignment, k)
            if check_conditional(g, c, r).valid:
                return k
    raise AssertionError("unreachable")


def max_vset_d2r_bruteforce(g, r):
    """Size of the largest Vset-d2r (vertices of degree <= r, each pair
    adjacent or with a common neighbour inside the set), by trying every
    subset of the vertices; only for graphs of at most 9 vertices."""
    assert g.n <= 9, "subset enumeration is for tiny graphs only"
    best = 0
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if len(members) <= best or any(g.degree(v) > r for v in members):
            continue
        inside = set(members)
        if all(
            g.has_edge(u, v) or g.neighbors(u) & g.neighbors(v) & inside
            for u, v in combinations(members, 2)
        ):
            best = len(members)
    return best


def is_connected(g):
    """Whether g has one component, by breadth-first search from vertex 0."""
    seen = frontier = {0}
    while frontier:
        frontier = {w for u in frontier for w in g.neighbors(u)} - seen
        seen = seen | frontier
    return len(seen) == g.n


def vset_d2r_oracle(g, members, r):
    """Whether members is a Vset-d2r at level r: every member has degree
    <= r, and every pair is adjacent or has a common neighbour that is a
    member itself."""
    inside = set(members)
    return all(g.degree(v) <= r for v in inside) and all(
        g.has_edge(u, v) or any(w in inside for w in g.neighbors(u) & g.neighbors(v))
        for u, v in combinations(sorted(inside), 2)
    )


def distinct_set_oracle(g, members, r):
    """Whether every pair of members is adjacent or has a common neighbour
    of degree <= r."""
    return all(
        g.has_edge(u, v) or any(g.degree(w) <= r for w in g.neighbors(u) & g.neighbors(v))
        for u, v in combinations(sorted(set(members)), 2)
    )


def distinctness_graph(g, r):
    """Neighbour sets of H: u and v are adjacent when they are adjacent in g
    or share a neighbour of degree <= r, the pairs that need distinct
    colours at level r."""
    adj = [set() for _ in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        common = g.neighbors(u) & g.neighbors(v)
        if g.has_edge(u, v) or any(g.degree(w) <= r for w in common):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def distinct_clique_bruteforce(g, r):
    """omega(H) for H = distinctness_graph(g, r), by trying every subset of
    the vertices; only for graphs of at most 14 vertices."""
    assert g.n <= 14, "subset enumeration is for tiny graphs only"
    closed = [sum(1 << u for u in nbrs) | 1 << v
              for v, nbrs in enumerate(distinctness_graph(g, r))]
    best = 0
    for mask in range(1 << g.n):
        size = bin(mask).count("1")
        if size > best and all(
            mask & ~closed[v] == 0 for v in range(g.n) if mask >> v & 1
        ):
            best = size
    return best


def clique_list_scan(adj):
    """The clique branch and bound as it was before its branches intersected
    neighbour sets: each branch rescans the candidate list. Takes the
    neighbour sets of the vertices 0..n-1 and returns (size, sorted
    members), so a rewrite can be held to the same search."""
    n = len(adj)
    if n == 0:
        return 0, ()
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
    stack = [branches(sorted(range(n), key=lambda v: (-len(adj[v]), v)))]
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
    return len(best), tuple(sorted(best))


def ladder_then_local_search(g, r, budget):
    """The (lo, hi) bracket of a solve of g (which has an edge) at level r
    under a node budget > 0 in the former order: the kernel ladder climbs
    from the best lower bound until it finds a coloring or the budget is
    spent, and only then does the local search try the levels from lo on;
    hi is n where it colors none."""
    r_eff = min(r, g.max_degree())
    adj = g.adjacency_lists()
    req = [min(g.degree(v), r_eff) for v in range(g.n)]
    spent = 0
    for lo in range(best_lower_bound(g, r_eff).value, g.n + 1):
        if spent >= budget:
            break
        status, colors, nodes = kernel.search_coloring(adj, req, lo, budget - spent)
        spent += nodes
        if status == kernel.FOUND:
            return lo, max(colors)
        if status == kernel.BUDGET:
            break
    levels = range(lo, min(lo + solver.LOCAL_LEVELS, g.n))
    h = distinctness_graph(g, r_eff)
    witness, _ = solver._local_upper(g, r_eff, h, levels, adj, req)
    return lo, witness.k if witness else g.n


def random_c2_colorings(
    g, r: int, k: int, count: int, seed: int = 0
) -> list[Coloring]:
    """Sample colorings that satisfy C2 at level r but are NOT constrained
    to be proper. Used to exercise the C3+C2 => C1 implication.

    Randomized backtracking: random vertex order, shuffled colors, same
    reachability prune as the solver kernel minus the C1 constraint.
    """
    if k < 1 or count < 0:
        raise ParameterError("need k >= 1 and count >= 0")
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    r_eff = min(r, g.max_degree()) if g.m > 0 else 0
    req = [min(g.degree(v), r_eff) for v in range(g.n)]
    adj = g.adjacency_lists()
    n = g.n
    rng = random.Random(seed)
    out: list[Coloring] = []

    def sample() -> list[int] | None:
        order = list(range(n))
        rng.shuffle(order)
        color = [0] * n

        def reaches(u: int) -> bool:
            """u can still see req[u] distinct colours if each of its
            uncoloured neighbours brings a new one."""
            around = [color[w] for w in adj[u]]
            return len(set(around) - {0}) + around.count(0) >= req[u]

        # tries[pos]: the shuffled colours left to try at position pos; one
        # shuffle per position entered, in the order a recursive search
        # would make them, so a seed gives the same samples.
        tries = []
        pos = 0
        while 0 <= pos < n:
            v = order[pos]
            if len(tries) == pos:
                cs = list(range(1, k + 1))
                rng.shuffle(cs)
                tries.append(iter(cs))
            for c in tries[pos]:
                color[v] = c
                if all(reaches(u) for u in adj[v]):
                    pos += 1
                    break
            else:
                color[v] = 0
                tries.pop()
                pos -= 1
        return color if pos == n else None

    for _ in range(count):
        colors = sample()
        if colors is not None:
            out.append(Coloring(tuple(colors), k))
    return out
