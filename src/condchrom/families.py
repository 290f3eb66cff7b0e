"""Parameterized graph families and the line/middle graph transforms.

Each builder returns a Graph together with a Provenance that records where
every vertex came from. All internal edge enumeration is lexicographic by
endpoint ids, and the builders number nothing: paper_pos is the identity.
The numbering each proposition states its formula over lives in
constructions, next to that proposition's case (constructions.paper_indexing).

Family spec grammar (used by the CLI):

    wd:k,n | fr:n | cyc:n | kpart:n1,...,nk | L(<spec>) | M(<spec>)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ParameterError
from .graphs import Graph

VERTEX = "vertex"
EDGE = "edge"


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


def parse_spec(text: str) -> FamilySpec:
    """Parse the family grammar; raises ParameterError with a position."""
    spec, pos = _parse_at(text, 0)
    rest = text[pos:].strip()
    if rest:
        raise ParameterError(f"trailing input at position {pos}: {rest!r}")
    return spec


def _parse_at(text: str, pos: int) -> tuple[FamilySpec, int]:
    s = text[pos:].lstrip()
    pos = len(text) - len(s)
    if s.startswith(("L(", "M(")):
        tag = s[0]
        inner, p = _parse_at(text, pos + 2)
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
                    f"bad parameter list {raw!r} at position {start}"
                ) from None
            return FamilySpec(tag, params=params), end
    raise ParameterError(f"unknown family at position {pos}: {text[pos:]!r}")


def _identity_provenance(spec: str, origin: tuple, notes: dict) -> Provenance:
    return Provenance(spec, origin, tuple(range(1, len(origin) + 1)), "identity", notes)


def _vertices(n: int) -> tuple:
    return tuple((VERTEX, v) for v in range(n))


def windmill(k: int, n: int) -> tuple[Graph, Provenance]:
    """Wd(k,n): n copies of K_k sharing one center vertex (id 0)."""
    if k < 2 or n < 1:
        raise ParameterError(f"windmill requires k >= 2 and n >= 1, got ({k},{n})")
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
    return g, _identity_provenance(f"wd:{k},{n}", _vertices(g.n), notes)


def friendship(n: int) -> tuple[Graph, Provenance]:
    """F_n = Wd(3,n)."""
    if n < 1:
        raise ParameterError(f"friendship requires n >= 1, got {n}")
    g, prov = windmill(3, n)
    return g, replace(prov, spec=f"fr:{n}")


def cycle(n: int) -> tuple[Graph, Provenance]:
    if n < 3:
        raise ParameterError(f"cycle requires n >= 3, got {n}")
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    return g, _identity_provenance(f"cyc:{n}", _vertices(n), {"n": n})


def complete_multipartite(sizes: list[int]) -> tuple[Graph, Provenance]:
    """K_{n1,...,nk} with parts as consecutive id ranges.

    For the bipartite case the sizes are sorted ascending (the propositions
    assume n1 <= n2); the reordering is recorded in the provenance notes.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("complete multipartite graph needs at least two parts")
    if any(s < 1 for s in sizes):
        raise ParameterError(f"part sizes must be >= 1, got {sizes}")
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


def line_graph(g: Graph, prov: Provenance | None = None) -> tuple[Graph, Provenance]:
    """L(G): one vertex per edge, adjacent iff the edges share an endpoint."""
    if g.m < 1:
        raise ParameterError("line graph of an edgeless graph is undefined")
    src_edges = g.edges()
    index = {e: i for i, e in enumerate(src_edges)}
    edges = []
    for v in range(g.n):
        inc = sorted(g.neighbors(v))
        ids = [index[(min(v, u), max(v, u))] for u in inc]
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1 :]:
                edges.append((min(a, b), max(a, b)))
    lg = Graph(len(src_edges), edges)
    origin = tuple((EDGE, e) for e in src_edges)
    spec = f"L({prov.spec})" if prov is not None else "L(?)"
    notes = {"base": prov.notes} if prov is not None else {}
    return lg, _identity_provenance(spec, origin, notes)


def middle_graph(g: Graph, prov: Provenance | None = None) -> tuple[Graph, Provenance]:
    """M(G): vertices V(G) u E(G); line-graph adjacency plus incidence."""
    if g.m < 1:
        raise ParameterError("middle graph of an edgeless graph is undefined")
    src_edges = g.edges()
    edge_id = {e: g.n + i for i, e in enumerate(src_edges)}
    edges = []
    for i, (u, v) in enumerate(src_edges):
        e = g.n + i
        edges.append((u, e))
        edges.append((v, e))
    for v in range(g.n):
        inc = sorted(g.neighbors(v))
        ids = [edge_id[(min(v, u), max(v, u))] for u in inc]
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1 :]:
                edges.append((min(a, b), max(a, b)))
    mg = Graph(g.n + len(src_edges), edges)
    origin = _vertices(g.n) + tuple((EDGE, e) for e in src_edges)
    spec = f"M({prov.spec})" if prov is not None else "M(?)"
    notes = {"base": prov.notes} if prov is not None else {}
    return mg, _identity_provenance(spec, origin, notes)


def build(spec: str | FamilySpec) -> tuple[Graph, Provenance]:
    """Build a graph from a family spec (string or parsed)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.tag == "wd":
        if len(spec.params) != 2:
            raise ParameterError("wd takes parameters k,n")
        return windmill(*spec.params)
    if spec.tag == "fr":
        if len(spec.params) != 1:
            raise ParameterError("fr takes one parameter n")
        return friendship(spec.params[0])
    if spec.tag == "cyc":
        if len(spec.params) != 1:
            raise ParameterError("cyc takes one parameter n")
        return cycle(spec.params[0])
    if spec.tag == "kpart":
        return complete_multipartite(list(spec.params))
    if spec.tag == "L":
        g, prov = build(spec.inner)
        return line_graph(g, prov)
    if spec.tag == "M":
        g, prov = build(spec.inner)
        return middle_graph(g, prov)
    raise ParameterError(f"unsupported family tag {spec.tag!r}")

