"""Pure-Python backtracking kernel for the conditional coloring decision
problem, with its local search and the maximum clique search. Reference
semantics: the compiled kernel (_kernel.c, loaded by _kernel_c) must
produce byte-identical results, including node counts, move counts and
clique members in their order.

Search: DSATUR-style dynamic vertex order (max saturation, then max degree,
then min id), colors tried ascending, and symmetry breaking by allowing at
most one brand-new color per step. C2 is pruned incrementally: a partial
assignment dies as soon as some vertex can no longer reach
min{d(v), r} distinct neighbor colors even if all its uncolored neighbors
receive fresh distinct colors.

The search is iterative: an explicit stack holds one frame per colored
vertex, so no graph size hits the recursion limit. Per vertex u it keeps

- seen[u]: bit c is set when some colored neighbor of u has color c, so
  distinct[u] is the popcount of seen[u];
- slack[u] = distinct[u] + uncol[u] - req[u], the number of uncolored
  neighbors u can still spare. Every move keeps slack[u] >= 0.

Coloring a neighbor of u with c lowers slack[u] by one unless c is new to u.
So c is forbidden for v exactly when c is in seen[v] (C1) or some neighbor u
of v has slack[u] == 0 and c in seen[u] (C2); the allowed colors of a node
are one bitmask, computed once, and tried in ascending order.
"""

from __future__ import annotations

FOUND = 0
NONE = 1
BUDGET = 2
NOT_SIMPLE = "a vertex is its own neighbor or has a repeated neighbor"
OUT_OF_RANGE = "neighbor id out of range"


def check_req(req, n):
    """Raise ValueError unless `req` has one entry per vertex."""
    if len(req) != n:
        raise ValueError(f"req has {len(req)} entries for {n} vertices")


def _check_ids(neighbors):
    """ValueError for a neighbor id outside 0..n-1, as the C kernel checks
    the ids it is given."""
    n = len(neighbors)
    if any(nb and not (0 <= min(nb) and max(nb) < n) for nb in neighbors):
        raise ValueError(OUT_OF_RANGE)


def search_coloring(neighbors, req, k, budget):
    """Find colors[0..n-1] in 1..k satisfying C1 and |c(N(v))| >= req[v].

    neighbors: sorted adjacency lists of a simple graph on 0..n-1
    (ValueError for an id outside it, then for a loop or a repeated
    neighbor); req[v] is the per-vertex distinct-neighbor-color demand,
    one per vertex (ValueError otherwise, checked first), refuted at once
    above d(v) or k - 1; budget: max search nodes (0 = unlimited).
    Returns (status, colors or None, nodes).
    """
    check_req(req, len(neighbors))
    _check_ids(neighbors)
    n = len(neighbors)
    if any(v in nb or len(set(nb)) < len(nb) for v, nb in enumerate(neighbors)):
        raise ValueError(NOT_SIMPLE)
    if n == 0:
        return FOUND, [], 0
    deg = [len(neighbors[v]) for v in range(n)]
    if k < 1:
        return NONE, None, 0
    # A vertex's neighbors avoid its own color, so at most k-1 distinct
    # colors can ever appear around it, and at most d(v) ever can.
    if any(r > k - 1 or r > d for r, d in zip(req, deg)):
        return NONE, None, 0

    color = [0] * n
    cnt = [[0] * n for _ in range(k + 1)]  # cnt[c][u]: neighbors of u colored c
    seen = [0] * n
    slack = [deg[v] - req[v] for v in range(n)]
    # DSATUR key distinct*n + deg; a colored vertex sits `sunk` below every
    # uncolored one, so score.index(max(score)) picks the highest
    # (distinct, deg) with ties to the lowest id.
    score = deg[:]
    sunk = n * (k + 2)
    stack = []
    max_used = 0
    nodes = 0

    while True:
        # Expand a new node.
        nodes += 1
        if budget and nodes > budget:
            return BUDGET, None, nodes
        if len(stack) == n:
            return FOUND, color, nodes
        v = score.index(max(score))
        nb = neighbors[v]
        forbidden = seen[v]
        for u in nb:
            if not slack[u]:
                forbidden |= seen[u]
        limit = max_used + 1 if max_used < k else k
        allowed = ((2 << limit) - 2) & ~forbidden
        # Take the lowest allowed color, backtracking while there is none.
        while not allowed:
            if not stack:
                return NONE, None, nodes
            v, allowed, max_used, bit = stack.pop()
            nb = neighbors[v]
            c = bit.bit_length() - 1
            color[v] = 0
            score[v] += sunk
            cc = cnt[c]
            for u in nb:
                cc[u] -= 1
                if cc[u]:
                    slack[u] += 1
                else:
                    seen[u] ^= bit
                    score[u] -= n
        bit = allowed & -allowed
        c = bit.bit_length() - 1
        stack.append((v, allowed ^ bit, max_used, bit))
        color[v] = c
        score[v] -= sunk
        cc = cnt[c]
        for u in nb:
            if cc[u]:
                slack[u] -= 1
            else:
                seen[u] |= bit
                score[u] += n
            cc[u] += 1
        if c > max_used:
            max_used = c


# The local search's tabu tenure, in moves, and the seed of its tie-breaking
# xorshift64 generator. _kernel_c passes both to the C twin.
TENURE = 7
SEED = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def check_start(neighbors, k, start):
    """Raise ValueError unless `start` gives every vertex a color in 1..k."""
    if len(start) != len(neighbors) or not all(1 <= c <= k for c in start):
        raise ValueError(f"start must give each of the {len(neighbors)} vertices "
                         f"a color in 1..{k}")


def local_search(neighbors, req, k, start, max_moves):
    """Tabu search for colors[0..n-1] in 1..k with no C1 clash and
    |c(N(v))| >= req[v] for every v, from the coloring `start`.

    The score is the number of monochromatic edges plus the sum over v of
    max(0, req[v] - distinct[v]). A move recolors one vertex that is in a
    clash or has a neighbour short of its requirement, and the search makes
    the move that lowers the score most (raises it least), ties broken by a
    reservoir pick from a fixed-seed xorshift64. Moving a vertex away from
    a color makes moving it back tabu for TENURE moves, unless that move
    reaches a score below the best so far. The search stops at score 0,
    after max_moves moves, or when no move is allowed.

    Returns (colors or None, moves made), once check_start accepts start;
    a req or a neighbor id that does not fit raises search_coloring's
    ValueError.

    For a move of v from b to c, write s[u] = req[u] - distinct[u] for a
    neighbour u of v, and lose[u] when v is u's only neighbour colored b.
    The score changes by cnt[v][c] - cnt[v][b] (C1), plus, per neighbour
    u, +1 when lose[u], s[u] >= 0 and u sees c (u loses b and gains
    nothing), -1 when not lose[u], s[u] >= 1 and u does not see c (u gains
    c), and 0 otherwise. So u counts toward v's moves when s[u] >= 1, or
    s[u] == 0 and lose[u]: it adds 1 to each color it sees and, unless
    lose[u], -1 to every color.
    """
    check_start(neighbors, k, start)
    check_req(req, len(neighbors))
    _check_ids(neighbors)
    n = len(neighbors)
    color = list(start)
    cnt = [[0] * (k + 1) for _ in range(n)]  # cnt[u][c]: neighbors of u colored c
    for v, nb in enumerate(neighbors):
        for u in nb:
            cnt[u][color[v]] += 1
    distinct = [k + 1 - row.count(0) for row in cnt]  # row[0] is always 0
    score = sum(cnt[v][color[v]] for v in range(n)) // 2
    score += sum(max(0, r - d) for r, d in zip(req, distinct))
    best = score
    tabu = [[0] * (k + 1) for _ in range(n)]  # v may take c once moves >= tabu
    rng = SEED
    moves = 0
    while score and moves < max_moves:
        short = [d < r for r, d in zip(req, distinct)]
        pick = None
        for v, nb in enumerate(neighbors):
            b = color[v]
            if not cnt[v][b] and not any(short[u] for u in nb):
                continue
            base = -cnt[v][b]
            pen = cnt[v]
            for u in nb:
                s = req[u] - distinct[u]
                if s >= 1 or (s == 0 and cnt[u][b] == 1):
                    if cnt[u][b] != 1:
                        base -= 1
                    pen = [p + (x > 0) for p, x in zip(pen, cnt[u])]
            ban = tabu[v]
            for c in range(1, k + 1):
                if c == b:
                    continue
                d = base + pen[c]
                if ban[c] > moves and score + d >= best:
                    continue
                if pick is None or d < top:
                    top, pick, ties = d, (v, c), 1
                elif d == top:
                    ties += 1
                    rng ^= (rng << 13) & _MASK64
                    rng ^= rng >> 7
                    rng ^= (rng << 17) & _MASK64
                    if rng % ties == 0:
                        pick = (v, c)
        if pick is None:
            break
        v, c = pick
        b = color[v]
        color[v] = c
        for u in neighbors[v]:
            row = cnt[u]
            row[b] -= 1
            distinct[u] += (row[c] == 0) - (row[b] == 0)
            row[c] += 1
        moves += 1
        tabu[v][b] = moves + TENURE
        score += top
        best = min(best, score)
    return (color if score == 0 else None), moves


def max_clique(adj, floor=0):
    """Members of a maximum clique of the graph with neighbour sets `adj`,
    by branch and bound with a greedy-coloring bound (Tomita-style); [] when
    it has at most `floor` members. Only a branch that can beat
    max(len(best), floor) is searched. Pruning takes away no branch that
    holds a clique above the floor, and the candidate sets do not depend on
    it, so a clique above the floor is the one that floor 0 finds. The
    members come in the order the search took them.

    A neighbor id outside 0..n-1 raises ValueError, then a vertex that is
    its own neighbor; the C twin also refuses a repeated neighbor, which a
    set cannot hold."""
    _check_ids(adj)
    if any(v in nb for v, nb in enumerate(adj)):
        raise ValueError(NOT_SIMPLE)
    rank = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    pos = [0] * len(adj)
    for i, v in enumerate(rank):
        pos[v] = i
    best: list[int] = []
    beat = floor  # max(len(best), floor)

    def branches(cands: list[int]) -> list:
        # [(vertex, color-class index) pairs, highest color first; the
        # candidates as a set]. `cands` is in root rank order. Each class is
        # kept as a set as well, so testing a vertex against it costs at
        # most the vertex's degree.
        classes: list[tuple[list[int], set[int]]] = []
        for v in cands:
            for members, cls in classes:
                if adj[v].isdisjoint(cls):
                    members.append(v)
                    cls.add(v)
                    break
            else:
                classes.append(([v], {v}))
        ordered = [(v, ci) for ci, (members, _) in enumerate(classes, start=1)
                   for v in members]
        return [reversed(ordered), set(cands)]

    # Depth-first on an explicit stack: the frame at depth i branches on the
    # vertices that extend current[:i]; when a branch is done, its vertex
    # leaves the candidates of the frame below.
    current: list[int] = []
    stack = [branches(rank)]
    while stack:
        frame = stack[-1]
        step = next(frame[0], None)
        if step is None or len(current) + step[1] <= beat:
            stack.pop()
            if stack:
                stack[-1][1].discard(current.pop())
            continue
        current.append(step[0])
        nxt = sorted(adj[step[0]] & frame[1], key=pos.__getitem__)
        if not nxt and len(current) > beat:
            best = list(current)
            beat = len(best)
        stack.append(branches(nxt))
    return best
