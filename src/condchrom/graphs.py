"""Immutable simple undirected graphs with DIMACS col / DOT serialization.

Vertices are dense 0-based integer ids. All higher-level modules (families,
verify, bounds, solver) operate on this one representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError, ParameterError

# The most vertices of a graph that families.build makes or from_dimacs reads,
# and the most edges of a graph that families.build makes. Each is checked
# before anything is allocated, so a mistyped size is an input error, not an
# exhausted memory. At the limits a build takes about 1 s and at most about
# 420 MB peak RSS (wd:20,5000, 950,000 edges). from_dimacs takes its edges
# from the file's own lines, already in memory, so it checks only the
# vertex count of the 'p edge' line.
VERTEX_LIMIT = 100_000
EDGE_LIMIT = 1_000_000


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self.m = sum(len(s) for s in self._adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex id {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        if self.n == 0:
            raise InputError("max_degree of empty graph is undefined")
        return max(len(s) for s in self._adj)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def adjacency_lists(self) -> list[list[int]]:
        """Sorted neighbor lists (fresh, safe to mutate)."""
        return [sorted(s) for s in self._adj]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def to_dimacs(g: Graph) -> str:
    """DIMACS col text with 1-based endpoints and lexicographic edge order."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _clip(text) -> str:
    """str(text), or for a long one its first 20 characters and its length,
    so that an error message quotes a bounded part of its input."""
    text = str(text)
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def _dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: {_clip(token)!r} is not an integer") from None


def from_dimacs(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: a second problem line {_clip(line)!r}")
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"line {lineno}: bad problem line {_clip(line)!r}")
            n, m = _dimacs_int(parts[2], lineno), _dimacs_int(parts[3], lineno)
            if n > VERTEX_LIMIT:
                raise InputError(f"line {lineno}: {_clip(n)} vertices; "
                                 f"the limit is {VERTEX_LIMIT}")
        elif parts[0] == "e":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: bad edge line {_clip(line)!r}")
            u, v = _dimacs_int(parts[1], lineno), _dimacs_int(parts[2], lineno)
            if u < 1 or v < 1:
                raise InputError(f"line {lineno}: endpoints are 1-based")
            edges.append((u - 1, v - 1))
            edge_lines.append(lineno)
        else:
            raise InputError(f"line {lineno}: unknown record {_clip(parts[0])!r}")
    if n is None:
        raise InputError("missing 'p edge' line")
    # An edge line may come before the problem line, so its endpoints are
    # checked once n is known, and reported in the file's own 1-based ids.
    for (u, v), lineno in zip(edges, edge_lines):
        if u >= n or v >= n:
            raise InputError(f"line {lineno}: edge ({_clip(u + 1)},{_clip(v + 1)}) "
                             f"out of range for n={_clip(n)}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u + 1}")
    if m != len(edges):
        raise InputError(f"'p edge' line declares {_clip(m)} edges, found {len(edges)}")
    return Graph(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
