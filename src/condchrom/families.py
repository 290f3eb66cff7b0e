"""Parameterized graph families and the line/middle graph transforms.

Each builder returns a Graph together with a Provenance that records where
every vertex came from. All internal edge enumeration is lexicographic by
endpoint ids, and the builders number nothing: paper_pos is the identity.
The numbering each proposition states its formula over lives in
constructions, next to that proposition's case (constructions.paper_indexing).

Family spec grammar (used by the CLI):

    wd:k,n | fr:n | cyc:n | kpart:n1,...,nk | L(<spec>) | M(<spec>)

with at most NESTING_LIMIT L( and M( nested, so that no spec runs the
parser or the builders, which recurse once per level, out of stack.

One builder, _transform, makes both transforms: M(G) is L(G)'s adjacency
on the edge vertices, numbered after the n vertices of G, plus an edge from
each edge vertex to its two endpoints.

Every builder works out the vertex and edge counts of its graph before it
allocates anything, and refuses a graph above graphs.VERTEX_LIMIT vertices
or graphs.EDGE_LIMIT edges. declared_size gives those counts for a spec and
declared_max_degree its Delta, without building the spec's graph: a base
family's from its degree sequence, which its parameters give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from math import comb

from .errors import ParameterError
from .graphs import EDGE_LIMIT, VERTEX_LIMIT, Graph, _clip

VERTEX = "vertex"
EDGE = "edge"
NESTING_LIMIT = 100


@dataclass(frozen=True)
class Provenance:
    """Origin and paper-index bookkeeping for a built graph.

    origin[v] is ("vertex", source_id) or ("edge", (u, w)) with u < w;
    for base families it is the identity vertex origin.
    paper_pos[v] is the 1-based index i such that internal vertex v plays
    the role of v_i under `scheme`; the builders give the identity.
    """

    spec: str
    origin: tuple
    paper_pos: tuple
    scheme: str
    notes: dict = field(default_factory=dict)

    def internal_of(self, i: int) -> int:
        """Internal id of the paper's v_i (1-based)."""
        return self.paper_pos.index(i)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "scheme": self.scheme,
            "origin": [
                {"kind": k, "source": list(s) if isinstance(s, tuple) else s}
                for k, s in self.origin
            ],
            "paper_pos": list(self.paper_pos),
            "notes": {k: v for k, v in self.notes.items()},
        }


@dataclass(frozen=True)
class FamilySpec:
    tag: str  # wd | fr | cyc | kpart | L | M
    params: tuple = ()
    inner: "FamilySpec | None" = None

    def __str__(self) -> str:
        if self.tag in ("L", "M"):
            return f"{self.tag}({self.inner})"
        return f"{self.tag}:{','.join(str(p) for p in self.params)}"


def parse_spec(text: str | FamilySpec) -> FamilySpec:
    """Parse the family grammar; raises ParameterError with a position. A
    FamilySpec is returned as it is."""
    if isinstance(text, FamilySpec):
        return text
    spec, pos = _parse_at(text, 0)
    rest = text[pos:].strip()
    if rest:
        raise ParameterError(f"trailing input at position {pos}: {_clip(rest)!r}")
    return spec


def _parse_at(text: str, pos: int, depth: int = 0) -> tuple[FamilySpec, int]:
    s = text[pos:].lstrip()
    pos = len(text) - len(s)
    if s.startswith(("L(", "M(")):
        if depth == NESTING_LIMIT:
            raise ParameterError(f"more than {NESTING_LIMIT} nested L( or M( "
                                 f"at position {pos}")
        tag = s[0]
        inner, p = _parse_at(text, pos + 2, depth + 1)
        if p >= len(text) or text[p] != ")":
            raise ParameterError(f"expected ')' at position {p}")
        return FamilySpec(tag, inner=inner), p + 1
    for tag in ("wd", "fr", "cyc", "kpart"):
        if s.startswith(tag + ":"):
            start = pos + len(tag) + 1
            end = start
            while end < len(text) and (text[end].isdigit() or text[end] == ","):
                end += 1
            raw = text[start:end]
            if not raw:
                raise ParameterError(f"missing parameters at position {start}")
            try:
                params = tuple(int(x) for x in raw.split(","))
            except ValueError:
                raise ParameterError(
                    f"bad parameter list {_clip(raw)!r} at position {start}"
                ) from None
            return FamilySpec(tag, params=params), end
    raise ParameterError(f"unknown family at position {pos}: {_clip(text[pos:])!r}")


def _identity_provenance(spec: str, origin: tuple, notes: dict) -> Provenance:
    return Provenance(spec, origin, tuple(range(1, len(origin) + 1)), "identity", notes)


def _vertices(n: int) -> tuple:
    return tuple((VERTEX, v) for v in range(n))


# A degree sequence is a list of (degree, number of vertices) pairs.
def _size(degrees: list) -> tuple[int, int]:
    """(n, m) of a graph with the degree sequence `degrees`."""
    return sum(c for _, c in degrees), sum(d * c for d, c in degrees) // 2


def _degree_sequence(g: Graph) -> list:
    return [(g.degree(v), 1) for v in g]


def _transform_size(tag: str, degrees: list) -> tuple[int, int]:
    """(n, m) of L(G) (tag "L") or M(G) (tag "M") for G with the degree
    sequence `degrees`: L(G) has a vertex per edge of G and an edge per pair
    of edges that meet at a vertex; M(G) adds the vertices of G and two
    incidences per edge."""
    n, m = _size(degrees)
    if m < 1:
        kind = "line" if tag == "L" else "middle"
        raise ParameterError(f"{kind} graph of an edgeless graph is undefined")
    meets = sum(c * comb(d, 2) for d, c in degrees)
    return (m, meets) if tag == "L" else (n + m, 2 * m + meets)


def _check_size(spec: str | FamilySpec, size: tuple[int, int]) -> None:
    n, m = size
    if n > VERTEX_LIMIT or m > EDGE_LIMIT:
        raise ParameterError(f"{_clip(spec)} has {n} vertices and {m} edges; the limits "
                             f"are {VERTEX_LIMIT} vertices and {EDGE_LIMIT} edges")


def _windmill_degrees(k: int, n: int) -> list:
    if k < 2 or n < 1:
        raise ParameterError(f"windmill requires k >= 2 and n >= 1, got ({k},{n})")
    return [(n * (k - 1), 1), (k - 1, n * (k - 1))]


def _friendship_degrees(n: int) -> list:
    if n < 1:
        raise ParameterError(f"friendship requires n >= 1, got {n}")
    return _windmill_degrees(3, n)


def _cycle_degrees(n: int) -> list:
    if n < 3:
        raise ParameterError(f"cycle requires n >= 3, got {n}")
    return [(2, n)]


def _multipartite_degrees(sizes: list[int]) -> list:
    if len(sizes) < 2:
        raise ParameterError("complete multipartite graph needs at least two parts")
    if any(s < 1 for s in sizes):
        raise ParameterError(f"part sizes must be >= 1, got {sizes}")
    return [(sum(sizes) - s, s) for s in sizes]


def windmill(k: int, n: int) -> tuple[Graph, Provenance]:
    """Wd(k,n): n copies of K_k sharing one center vertex (id 0)."""
    spec = f"wd:{k},{n}"
    _check_size(spec, _size(_windmill_degrees(k, n)))
    blades = []
    edges = []
    for i in range(n):
        blade = list(range(1 + i * (k - 1), 1 + (i + 1) * (k - 1)))
        blades.append(tuple(blade))
        for a_idx, a in enumerate(blade):
            edges.append((0, a))
            for b in blade[a_idx + 1 :]:
                edges.append((a, b))
    g = Graph(n * (k - 1) + 1, edges)
    notes = {"k": k, "n": n, "center": 0, "blades": tuple(blades)}
    return g, _identity_provenance(spec, _vertices(g.n), notes)


def friendship(n: int) -> tuple[Graph, Provenance]:
    """F_n = Wd(3,n)."""
    spec = f"fr:{n}"
    _check_size(spec, _size(_friendship_degrees(n)))
    g, prov = windmill(3, n)
    return g, replace(prov, spec=spec)


def cycle(n: int) -> tuple[Graph, Provenance]:
    spec = f"cyc:{n}"
    _check_size(spec, _size(_cycle_degrees(n)))
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    return g, _identity_provenance(spec, _vertices(n), {"n": n})


def complete_multipartite(sizes: list[int]) -> tuple[Graph, Provenance]:
    """K_{n1,...,nk} with parts as consecutive id ranges.

    For the bipartite case the sizes are sorted ascending (the propositions
    assume n1 <= n2); the reordering is recorded in the provenance notes.
    """
    sizes = list(sizes)
    _check_size(f"kpart:{','.join(map(str, sizes))}",
                _size(_multipartite_degrees(sizes)))
    notes: dict = {}
    if len(sizes) == 2 and sizes[0] > sizes[1]:
        notes["original_sizes"] = tuple(sizes)
        sizes = sorted(sizes)
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    n = start
    edges = []
    for pi, part in enumerate(parts):
        for u in part:
            for qj in range(pi + 1, len(parts)):
                for v in parts[qj]:
                    edges.append((u, v))
    g = Graph(n, edges)
    notes.update({"sizes": tuple(sizes), "parts": tuple(parts)})
    spec = f"kpart:{','.join(str(s) for s in sizes)}"
    return g, _identity_provenance(spec, _vertices(n), notes)


def _transform(tag: str, g: Graph, prov: Provenance | None) -> tuple[Graph, Provenance]:
    """L(G) (tag "L") or M(G) (tag "M"). L(G) has a vertex per edge of G,
    adjacent iff the edges share an endpoint. M(G) keeps the n vertices of
    G, numbers the edge vertices after them with L(G)'s adjacency, and joins
    each edge vertex to its two endpoints."""
    spec = f"{tag}({prov.spec if prov is not None else '?'})"
    _check_size(spec, _transform_size(tag, _degree_sequence(g)))
    src_edges = g.edges()
    first = g.n if tag == "M" else 0
    index = {e: first + i for i, e in enumerate(src_edges)}
    edges = [(v, index[e]) for e in src_edges for v in e] if tag == "M" else []
    for v in range(g.n):
        ids = [index[(min(v, u), max(v, u))] for u in sorted(g.neighbors(v))]
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1 :]:
                edges.append((min(a, b), max(a, b)))
    origin = _vertices(first) + tuple((EDGE, e) for e in src_edges)
    notes = {"base": prov.notes} if prov is not None else {}
    return Graph(first + len(src_edges), edges), _identity_provenance(spec, origin, notes)


def line_graph(g: Graph, prov: Provenance | None = None) -> tuple[Graph, Provenance]:
    """L(G): one vertex per edge, adjacent iff the edges share an endpoint."""
    return _transform("L", g, prov)


def middle_graph(g: Graph, prov: Provenance | None = None) -> tuple[Graph, Provenance]:
    """M(G): vertices V(G) u E(G); line-graph adjacency plus incidence."""
    return _transform("M", g, prov)


def _base(spec: FamilySpec) -> tuple:
    """(builder, degrees, args) of a wd, fr, cyc or kpart spec: degrees(*args)
    is the degree sequence of builder(*args), from the parameters alone, and
    raises the builder's ParameterError."""
    if spec.tag == "wd":
        if len(spec.params) != 2:
            raise ParameterError("wd takes parameters k,n")
        return windmill, _windmill_degrees, spec.params
    if spec.tag == "fr":
        if len(spec.params) != 1:
            raise ParameterError("fr takes one parameter n")
        return friendship, _friendship_degrees, spec.params
    if spec.tag == "cyc":
        if len(spec.params) != 1:
            raise ParameterError("cyc takes one parameter n")
        return cycle, _cycle_degrees, spec.params
    if spec.tag == "kpart":
        return complete_multipartite, _multipartite_degrees, (list(spec.params),)
    raise ParameterError(f"unsupported family tag {spec.tag!r}")


def build(spec: str | FamilySpec) -> tuple[Graph, Provenance]:
    """Build a graph from a family spec (string or parsed)."""
    spec = parse_spec(spec)
    if spec.tag in ("L", "M"):
        return _transform(spec.tag, *build(spec.inner))
    builder, _, args = _base(spec)
    return builder(*args)


def declared_size(spec: str | FamilySpec) -> tuple[int, int]:
    """(n, m) of build(spec) without building it: from the parameters, and
    for L(G) or M(G) from the degrees of G (built only when G is itself a
    line or middle graph). Raises the ParameterError build would."""
    spec = parse_spec(spec)
    if spec.tag in ("L", "M"):
        return _transform_size(spec.tag, _degrees(spec.inner))
    return _size(_degrees(spec))


@functools.lru_cache(maxsize=1024)
def check_limits(spec: str | FamilySpec) -> None:
    """Raise the ParameterError build(spec) would, for a bad parameter or a
    graph over the limits, from declared sizes, once per spec that passes:
    like declared_size, this builds only the G of L(G) or M(G) where G is a
    line or middle graph."""
    spec = parse_spec(spec)
    # build checks G before L(G) or M(G); a G that is itself a transform is
    # checked when declared_size builds it.
    if spec.tag in ("L", "M") and spec.inner.tag not in ("L", "M"):
        _check_size(spec.inner, declared_size(spec.inner))
    _check_size(spec, declared_size(spec))


@functools.lru_cache(maxsize=1024)
def declared_max_degree(spec: str | FamilySpec) -> int:
    """Delta of build(spec), worked out once per spec: for a wd, fr, cyc or
    kpart spec from its degree sequence, and for L(G) or M(G) from one build
    of G, where edge uv of G has degree d(u) + d(v) - 2 in L(G) and
    d(u) + d(v) in M(G), the most there. Raises ParameterError where build
    would."""
    spec = parse_spec(spec)
    check_limits(spec)
    if spec.tag not in ("L", "M"):
        return max(d for d, _ in _degrees(spec))
    g = build(spec.inner)[0]
    return max(g.degree(u) + g.degree(v) for u, v in g.edges()) - 2 * (spec.tag == "L")


def build_within(spec: str | FamilySpec, max_n: float) -> tuple[int, Graph | None]:
    """(n, G): the vertex count of build(spec) and its graph, or None in place
    of the graph when n > max_n, without building it. A line or middle graph
    of a line or middle graph is built either way, since sizing it builds its
    inner graph; the builders' limits bound it."""
    spec = parse_spec(spec)
    if spec.tag in ("L", "M") and spec.inner.tag in ("L", "M"):
        g = build(spec)[0]
        return g.n, (g if g.n <= max_n else None)
    n = declared_size(spec)[0]
    return n, (build(spec)[0] if n <= max_n else None)


def _degrees(spec: FamilySpec) -> list:
    if spec.tag in ("L", "M"):
        return _degree_sequence(build(spec)[0])
    _, degrees, args = _base(spec)
    return degrees(*args)
