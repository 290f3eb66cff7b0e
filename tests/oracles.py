"""Independent brute-force oracles used only by the tests.

These deliberately share no code with condchrom.solver or condchrom.bounds:
plain recursive enumeration in vertex-id order, no saturation ordering, no
incremental C2 counters, no branch and bound.
"""

from itertools import combinations, product

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
