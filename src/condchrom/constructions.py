"""Explicit coloring constructions, one per closed-form proposition.

Each proposition states its formula over its own 1-based numbering v_1,
v_2, ... of the vertices. A Numbering writes that numbering once, as the
origins of the vertices in paper order; `_numbered` turns it into
Provenance.paper_pos of the graph families.build returns (the builders
number nothing). Formulas are reproduced as printed, never repaired: where
a formula fails for a parameter value the verifier reports the violation
and callers surface it.

CASES holds one row per proposition, the only place its facts live: its
family, the r its cases cover, their values, its numbering and its color
formulas. `_claim` is the one path from a row to a ClaimedColoring: it
builds the spec asked for, numbers it and evaluates the row's formula at
each v_i. construct takes the first row that covers (family, r); each
public color_* constructor checks its own parameters and then asks its own
row. construct, predicted_chi_r, paper_indexing and `condchrom table` all
read CASES; outside every case they refuse instead of extrapolating.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate
from math import comb
from typing import Callable, NamedTuple

from . import families
from .errors import ParameterError, UnsupportedCaseError
from .families import EDGE, VERTEX, FamilySpec, Provenance, parse_spec
from .graphs import Graph
from .verify import Coloring


@dataclass(frozen=True)
class ClaimedColoring:
    """A constructed coloring plus the proposition's claim about it."""

    graph: Graph
    provenance: Provenance
    coloring: Coloring
    claimed_k: int
    r_values: tuple  # concrete r levels the claim covers
    proposition: int
    case: str

    def paper_color(self, i: int) -> int:
        """Color of the paper's v_i."""
        return self.coloring.colors[self.provenance.internal_of(i)]

    def to_json_dict(self) -> dict:
        d = self.coloring.to_json_dict()
        d.update(
            {
                "proposition": self.proposition,
                "case": self.case,
                "claimed_k": self.claimed_k,
                "r_set": ",".join(str(r) for r in self.r_values),
            }
        )
        return d


class Numbering(NamedTuple):
    """A proposition's v_1, v_2, ...: `order(params)` lists the vertex
    origins ("vertex", v) / ("edge", (u, w)) in paper order. Without an
    order the paper's numbering is the order the builder emits: windmill
    blades and parts are consecutive id ranges, edges lexicographic."""

    scheme: str
    order: Callable | None = None


def _middle_cycle_order(n: int) -> list:
    """M(C_n): v_1..v_n the cycle vertices, v_{n+i} the edge joining v_i
    and v_{(i mod n)+1}."""
    return ([(VERTEX, v) for v in range(n)]
            + [(EDGE, (v, v + 1)) for v in range(n - 1)] + [(EDGE, (0, n - 1))])


def _middle_friendship_order(n: int) -> list:
    """M(F_n): v_{2i-1}, v_{2i} the center-incident edges of copy i;
    v_{2n+1} the center; v_{2(n+i)}, v_{2(n+i)+1} the outer vertices of
    copy i; v_{4n+1+i} the outer edge of copy i."""
    blades = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
    return ([(EDGE, (0, v)) for b in blades for v in b] + [(VERTEX, 0)]
            + [(VERTEX, v) for b in blades for v in b] + [(EDGE, b) for b in blades])


def _middle_multipartite_order(sizes) -> list:
    """M(K_{n1..nk}) at r = Delta: v_1..v_l the edges (lexicographic), then
    the vertices part by part."""
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    edges = [(EDGE, (u, w)) for u in range(len(part))
             for w in range(u + 1, len(part)) if part[u] != part[w]]
    return edges + [(VERTEX, v) for v in range(len(part))]


IDENTITY = Numbering("identity")
LINE_WINDMILL = Numbering("line-windmill")
MIDDLE_CYCLE = Numbering("middle-cycle", _middle_cycle_order)
MIDDLE_FRIENDSHIP = Numbering("middle-friendship", _middle_friendship_order)
MIDDLE_BIPARTITE = Numbering("middle-bipartite")
MIDDLE_MULTIPARTITE = Numbering("middle-multipartite", _middle_multipartite_order)


def _numbered(built: tuple, numbering: Numbering, params=None) -> tuple:
    """(graph, provenance) of `built` with paper_pos as `numbering` states
    it for `params`; raises ValueError if its order is not a permutation of
    the graph's vertex origins."""
    g, prov = built
    order = prov.origin if numbering.order is None else tuple(numbering.order(params))
    if len(order) != len(prov.origin) or set(order) != set(prov.origin):
        raise ValueError(f"the {numbering.scheme} numbering does not fit {prov.spec}")
    pos = {o: i for i, o in enumerate(order, 1)}
    paper_pos = tuple(pos[o] for o in prov.origin)
    return g, replace(prov, paper_pos=paper_pos, scheme=numbering.scheme)


class _Wd(NamedTuple):
    k: int
    n: int


# Family matchers: the parameters a proposition reads off a spec, or None.
# They take only parameters that families.build accepts.
def _windmill(spec: FamilySpec) -> _Wd | None:
    """Wd(k, n) for k >= 3, as the propositions state it; F_n is Wd(3, n)."""
    p = (3, *spec.params) if spec.tag == "fr" else spec.params
    ok = spec.tag in ("wd", "fr") and len(p) == 2 and p[0] >= 3 and p[1] >= 1
    return _Wd(*p) if ok else None


def _friendship(spec: FamilySpec) -> int | None:
    wd = _windmill(spec)
    return wd.n if wd is not None and wd.k == 3 else None


def _cycle(spec: FamilySpec) -> int | None:
    ok = spec.tag == "cyc" and len(spec.params) == 1 and spec.params[0] >= 3
    return spec.params[0] if ok else None


def _parts(spec: FamilySpec) -> tuple | None:
    """Part sizes of K_{n1..nk} for k >= 2, in the builder's order: as given,
    except that two parts come sorted."""
    p = spec.params
    ok = spec.tag == "kpart" and len(p) >= 2 and min(p) >= 1
    return None if not ok else tuple(sorted(p)) if len(p) == 2 else p


def _two_parts(spec: FamilySpec) -> tuple | None:
    """Part sizes n1 <= n2 of K_{n1,n2}."""
    p = _parts(spec)
    return p if p is not None and len(p) == 2 else None


def _of(transform: str, match):
    """`match` applied to G in L(G) or M(G)."""
    return lambda spec: match(spec.inner) if spec.tag == transform else None


def _kpart_edges(sizes) -> int:
    """l = (n^2 - sum of n_i^2) / 2, the edge count of K_{n1..nk}."""
    return (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2


# Case.paint of each row, in proposition order.
def _paint_windmill(w: _Wd, r: int, delta):
    if r < w.k:
        return "2<=r<=k-1", range(2, w.k), lambda i: 1 if i == 1 else 2 + (i - 2) % (w.k - 1)
    run = min(r, w.n * (w.k - 1))
    return "r>=k", (r,), lambda i: 1 if i == 1 else 2 + (i - 2) % run


def _paint_line_windmill(w: _Wd, r: int, delta):
    z, inner = w.n * (w.k - 1) + comb(w.k - 1, 2), comb(w.k - 1, 2)
    return "r=Delta", (delta(),), lambda i: i if i <= z else i % inner + w.n * (w.k - 1) + 1


def _paint_line_friendship(n: int, r: int, delta):
    if r >= delta():  # proposition 2 at k = 3
        return _paint_line_windmill(_Wd(3, n), r, delta)

    def formula(i: int) -> int:
        if i <= 2 * n:
            return i
        if i <= 3 * n - 1:
            return 2 * n
        return 1  # i == 3n

    return "r<Delta", range(2, delta()), formula


def _paint_middle_cycle(n: int, r: int, delta):
    if r == 3:

        def formula(i: int) -> int:
            if n + 1 <= i <= 2 * n and (i - n) % 2 == 0:
                return 1
            if 1 <= i <= n and i % 2 == 1:
                return 2
            if i == n + 1 or (4 <= i <= n and i % 2 == 0):
                return 3
            return 4

        return "r=3", (3,), formula
    if n % 2 == 0:

        def formula(i: int) -> int:
            if 1 <= i <= n:
                return 1
            if n + 1 <= i <= 2 * n and i % 2 == 1:
                return 2
            return 3

        return "r=2,n even", (2,), formula

    def formula(i: int) -> int:
        if i == 1 or (n + 1 <= i <= 2 * n and i % 2 == 1):
            return 1
        if i == 2 * n or 2 <= i <= n - 1:
            return 2
        return 3

    return "r=2,n odd", (2,), formula


def _paint_middle_friendship(n: int, r: int, delta):
    def small(i: int) -> int:
        if 1 <= i <= 2 * n + 1:
            return i
        if i == 2 * n + 2:
            return 3
        if i == 2 * n + 3:
            return 4
        if 2 * n + 4 <= i <= 4 * n + 1:
            return 1 if (i - 2 * n) % 2 == 0 else 2
        return 2 * n + 1  # 4n+2 <= i <= 5n+1

    def at_delta(i: int) -> int:
        if 1 <= i <= 2 * n + 3:
            return i
        if 2 * n + 4 <= i <= 4 * n + 1 and (i - 2 * n) % 2 == 0:
            return 2 * n + 3
        if i == 4 * n + 2 or (2 * n + 4 <= i <= 4 * n + 1 and (i - 2 * n) % 2 == 1):
            return 2 * n + 4
        return 2 * n + 2  # 4n+3 <= i <= 5n+1

    if r <= 2 * n:
        return "r<=2n", range(2, 2 * n + 1), small
    if r == 2 * n + 1:
        return "r=2n+1", (2 * n + 1,), lambda i: small(i) if i <= 4 * n + 1 else 2 * n + 2
    return "r=Delta", (delta(),), at_delta


def _paint_middle_bipartite(s: tuple, r: int, delta):
    n1, n2 = s
    n = n1 + n2

    def small(i: int) -> int:
        if 1 <= i <= n:
            return n2 + 1
        return 1 + ((i - 1 - n) // n2 + (i - n)) % n2

    if r <= n2:
        return "r<=n2", range(1, n2 + 1), small
    return "r=n2+1", (n2 + 1,), lambda i: n2 + 2 if i <= n1 else small(i)


def _paint_middle_multipartite(s: tuple, r: int, delta):
    l = _kpart_edges(s)
    ends = list(accumulate(s))

    def formula(i: int) -> int:
        if 1 <= i <= l:
            return i
        # l + p for the p with n_1 + ... + n_{p-1} < i - l <= n_1 + ... + n_p
        return l + 1 + bisect_left(ends, i - l)

    return "r=Delta", (delta(),), formula


class Case(NamedTuple):
    """The cases of one proposition: `family(spec)` gives its parameters
    (None for other families); `applies(params, r, delta)` and
    `value(params, r, delta)` get Delta as a function, called only where a
    case reads it; `numbering` is the v_1, v_2, ... its formulas use;
    `paint(params, r, delta)` gives (case, r_values, formula), formula(i)
    being the published color of v_i. A case stated at r = Delta covers
    every r >= Delta."""

    proposition: int
    label: str
    family: Callable
    applies: Callable
    value: Callable
    numbering: Numbering
    paint: Callable


# construct and predicted_chi_r take the first row that covers (family, r),
# paper_indexing the first row that states the family; `condchrom table P`
# lists each r where the row of P covers an instance. So 2 comes before 3
# (both state L(F_n) at r = Delta) and 7 before 4 (both state M(K_{1,n2})
# at r = n2 + 1 = Delta).
CASES = (
    Case(1, "r >= 2", _windmill, lambda w, r, d: r >= 2,
         lambda w, r, d: w.k if r < w.k else min(r, w.n * (w.k - 1)) + 1,
         IDENTITY, _paint_windmill),
    Case(2, "r = Delta", _of("L", _windmill), lambda w, r, d: r >= d(),
         lambda w, r, d: w.n * (w.k - 1) + comb(w.k - 1, 2),
         LINE_WINDMILL, _paint_line_windmill),
    Case(3, "2 <= r < Delta for n >= 2, r = Delta", _of("L", _friendship),
         lambda n, r, d: n >= 2 and 2 <= r or r >= d(),
         lambda n, r, d: 2 * n + (r >= d()), LINE_WINDMILL, _paint_line_friendship),
    Case(5, "r in {2, 3} for n >= 4", _of("M", _cycle),
         lambda n, r, d: n >= 4 and r in (2, 3), lambda n, r, d: r + 1,
         MIDDLE_CYCLE, _paint_middle_cycle),
    Case(6, "2 <= r <= 2n+1, r = Delta", _of("M", _friendship),
         lambda n, r, d: 2 <= r <= 2 * n + 1 or r >= d(),
         lambda n, r, d: 2 * n + (1 if r <= 2 * n else 2 if r == 2 * n + 1 else 4),
         MIDDLE_FRIENDSHIP, _paint_middle_friendship),
    Case(7, "1 <= r <= n2+1", _of("M", _two_parts),
         lambda s, r, d: 1 <= r <= s[1] + 1, lambda s, r, d: s[1] + 1 + (r > s[1]),
         MIDDLE_BIPARTITE, _paint_middle_bipartite),
    Case(4, "r = Delta", _of("M", _parts), lambda s, r, d: r >= d(),
         lambda s, r, d: len(s) + _kpart_edges(s),
         MIDDLE_MULTIPARTITE, _paint_middle_multipartite),
)
_ROW = {c.proposition: c for c in CASES}


def _parsed(spec: str | FamilySpec) -> FamilySpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


@functools.lru_cache(maxsize=1024)
def _max_degree(spec: FamilySpec) -> int:
    """Delta of the spec's graph, worked out once per spec: covered_levels,
    predicted_chi_r and construct all read it. Edge uv of G has degree
    d(u) + d(v) - 2 in L(G) and d(u) + d(v) in M(G), the most there, so one
    build of G does."""
    if spec.tag not in ("L", "M"):
        return families.build(spec)[0].max_degree()
    g, _ = families.build(spec.inner)
    return max(g.degree(u) + g.degree(v) for u, v in g.edges()) - 2 * (spec.tag == "L")


def _covering_case(spec: FamilySpec, r: int):
    """(row, params, delta) of the first row that covers (spec, r), or None.
    Raises ParameterError where families.build rejects the spec, without
    building it (the matchers take only valid parameters)."""
    delta = functools.partial(_max_degree, spec)
    hit = next(((c, p, delta) for c in CASES if (p := c.family(spec)) is not None
                and c.applies(p, r, delta)), None)
    if hit is None:
        families.declared_size(spec)
    return hit


def _claim(row: Case, spec: FamilySpec, params, r: int | None) -> ClaimedColoring:
    """The coloring `row` paints on the graph of `spec` at r (at Delta when
    r is None), over the row's numbering, with the row's value as the
    claim. Delta is read off the graph built here, so none is built twice."""
    g, prov = _numbered(families.build(spec), row.numbering, params)
    delta = g.max_degree
    r = delta() if r is None else r
    case, r_values, formula = row.paint(params, r, delta)
    colors = tuple(formula(i) for i in prov.paper_pos)
    claimed_k = row.value(params, r, delta)
    coloring = Coloring(colors, max(max(colors), claimed_k))
    return ClaimedColoring(g, prov, coloring, claimed_k, tuple(r_values), row.proposition, case)


def _stated(proposition: int, spec: str, r: int | None = None) -> ClaimedColoring:
    """The claim of `proposition` on `spec` at r (at Delta when r is None),
    once the caller has checked that the proposition states it."""
    row, spec = _ROW[proposition], parse_spec(spec)
    return _claim(row, spec, row.family(spec), r)


def chi_windmill(k: int, n: int, r: int) -> tuple[int, ClaimedColoring]:
    """Closed form for Wd(k,n) plus a certified witness coloring.

    The published statement proves existence without exhibiting colorings;
    the witness here colors blades with reused color blocks (small r) or
    walks min{r,Delta} colors around the center (large r).
    """
    if k < 3 or n < 1:
        raise ParameterError(f"need k >= 3 and n >= 1, got ({k},{n})")
    if r < 2:
        raise ParameterError("the case analysis starts at r = 2; use the solver")
    claim = _stated(1, f"wd:{k},{n}", r)
    return claim.claimed_k, claim


def color_line_windmill_delta(k: int, n: int) -> ClaimedColoring:
    """L(Wd(k,n)) at r = Delta: z = n(k-1) + C(k-1,2) colors."""
    if k < 3 or n < 1:
        raise ParameterError(f"need k >= 3 and n >= 1, got ({k},{n})")
    return _stated(2, f"L(wd:{k},{n})")


def color_line_friendship(n: int, r: int) -> ClaimedColoring:
    """L(F_n): 2n colors for r < Delta, 2n+1 at r = Delta.

    n = 1 is rejected: the small-r formula's middle range is empty there
    and L(F_1) = K_3 already needs 3 > 2n colors.
    """
    if n < 2:
        raise ParameterError(
            "n >= 2 required: at n = 1 the published small-r formula "
            "degenerates (L(F_1) = K_3 has clique number 3 > 2n)"
        )
    if r < 2:
        raise ParameterError("the case analysis starts at r = 2; use the solver")
    return _stated(3, f"L(fr:{n})", r)


def color_middle_multipartite_delta(sizes: list[int]) -> ClaimedColoring:
    """M(K_{n1..nk}) at r = Delta: k + l colors (l = edge count)."""
    if len(sizes) < 2:
        raise ParameterError("need at least two parts")
    return _stated(4, "M(kpart:" + ",".join(str(s) for s in sizes) + ")")


def color_middle_cycle(n: int, r: int) -> ClaimedColoring:
    """M(C_n) for n >= 4: 3 colors at r = 2, 4 colors at r = 3."""
    if n < 4:
        raise ParameterError("stated for n >= 4; use the solver for smaller n")
    if r not in (2, 3):
        raise UnsupportedCaseError(
            f"no closed-form case for r = {r} on M(C_n) (only r in {{2,3}})"
        )
    return _stated(5, f"M(cyc:{n})", r)


def color_middle_friendship(n: int, r: int) -> ClaimedColoring:
    """M(F_n): 2n+1 colors for r <= 2n, 2n+2 at r = 2n+1, 2n+4 at r = Delta.

    All three case formulas are evaluated exactly as published; at n = 1
    the small-r formula's literal constants collide with color 2n+1 = 3
    (the verifier flags this), which is surfaced rather than repaired.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    return _stated(6, f"M(fr:{n})", r)


def color_middle_bipartite(n1: int, n2: int, r: int) -> ClaimedColoring:
    """M(K_{n1,n2}) with n1 <= n2: n2+1 colors for r <= n2, n2+2 at r = n2+1."""
    if n1 < 1 or n2 < 1:
        raise ParameterError(f"part sizes must be >= 1, got ({n1},{n2})")
    if n1 > n2:
        n1, n2 = n2, n1
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    if r > n2 + 1:
        raise UnsupportedCaseError(
            f"no closed-form case for r = {r} > n2+1 on M(K_{{n1,n2}}); "
            "use the solver"
        )
    return _stated(7, f"M(kpart:{n1},{n2})", r)


def numbered_build(spec: str | FamilySpec) -> tuple[Graph, Provenance]:
    """families.build(spec) with the numbering of the first proposition that
    states the family; the builder's identity numbering where none does."""
    spec = _parsed(spec)
    built = families.build(spec)
    stated = next(((c.numbering, p) for c in CASES if (p := c.family(spec)) is not None),
                  None)
    return built if stated is None else _numbered(built, *stated)


def paper_indexing(spec: str | FamilySpec) -> Provenance:
    """Provenance (including the v_i bijection) for a supported family.
    Raises ParameterError for a line or middle graph no proposition states."""
    spec = _parsed(spec)
    _, prov = numbered_build(spec)
    if prov.scheme == "identity" and spec.tag in ("L", "M"):
        raise ParameterError(f"no proposition indexing for {spec}")
    return prov


def construct(spec: str | FamilySpec, r: int) -> ClaimedColoring:
    """The coloring of the first stated case that covers (family, r)."""
    spec = _parsed(spec)
    hit = _covering_case(spec, r)
    if hit is None:
        stated = "; ".join(f"proposition {c.proposition} at {c.label}"
                           for c in CASES if c.family(spec) is not None)
        raise UnsupportedCaseError(f"no stated case covers {spec} at r = {r}; " + (
            f"stated: {stated}" if stated else "no proposition covers the family"))
    row, params, _ = hit
    return _claim(row, spec, params, r)


def predicted_chi_r(spec: str | FamilySpec, r: int) -> int | None:
    """Closed-form chi_r when (family, r) falls inside a stated case.

    Returns None outside every case; never extrapolates.
    """
    hit = _covering_case(_parsed(spec), r)
    return None if hit is None else hit[0].value(hit[1], r, hit[2])


def covered_levels(spec: str | FamilySpec, proposition: int) -> list[int]:
    """The r in 1..Delta at which the row of `proposition` covers `spec`."""
    spec = _parsed(spec)
    row = _ROW[proposition]
    params = row.family(spec)
    if params is None:
        families.declared_size(spec)  # ParameterError where the builders reject spec
        return []
    delta = _max_degree(spec)
    return [r for r in range(1, delta + 1) if row.applies(params, r, lambda: delta)]
