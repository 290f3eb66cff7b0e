"""Explicit coloring constructions, one per closed-form proposition.

Each proposition states its formula over its own 1-based numbering v_1,
v_2, ... of the vertices. Its row writes that numbering once, as the
origins of the vertices in paper order; `_numbered` turns it into
Provenance.paper_pos of the graph families.build returns (the builders
number nothing). Formulas are reproduced as printed, never repaired: where
a formula fails for a parameter value the verifier reports the violation
and callers surface it.

CASES holds one row per proposition, the only place its facts live: its
family, its numbering, its `paint`, the one statement of its split over
r, and the grid of instances `condchrom table` checks. For an r, paint
decides whether a case covers it, the case's value and its color
formula; coverage and value are read nowhere else. construct(spec, r) is
the only way to a coloring: it takes the first row that covers (family,
r), numbers the built spec and evaluates the row's formula at each v_i.
construct, predicted_chi_r, paper_indexing and `condchrom table` all read
CASES; outside every case they refuse instead of extrapolating. Facts
about a family's graph itself, its edge count and Delta, come from
families (declared_size, declared_max_degree).
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


def _numbered(built: tuple, row: Case, params) -> tuple:
    """(graph, provenance) of `built` with paper_pos as the numbering of
    `row` states it for `params`; raises ValueError if its order is not a
    permutation of the graph's vertex origins."""
    g, prov = built
    order = prov.origin if row.order is None else tuple(row.order(params))
    if len(order) != len(prov.origin) or set(order) != set(prov.origin):
        raise ValueError(f"the {row.scheme} numbering does not fit {prov.spec}")
    pos = {o: i for i, o in enumerate(order, 1)}
    paper_pos = tuple(pos[o] for o in prov.origin)
    return g, replace(prov, paper_pos=paper_pos, scheme=row.scheme)


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


# Case.paint of each row, in proposition order: (case, r_values, value,
# formula) of the case that covers r, or None where none does.
#
# The paper proves Wd(k, n)'s chi_r without exhibiting a coloring. The
# witness here reuses the color block 2..k on every blade (r < k), or walks
# min{r, Delta} colors around the center (r >= k).
def _paint_windmill(w: _Wd, r: int, delta):
    if r < 2:
        return None
    if r < w.k:
        return "2<=r<=k-1", range(2, w.k), w.k, lambda i: 1 if i == 1 else 2 + (i - 2) % (w.k - 1)
    run = min(r, w.n * (w.k - 1))
    return "r>=k", (r,), run + 1, lambda i: 1 if i == 1 else 2 + (i - 2) % run


def _paint_line_windmill(w: _Wd, r: int, delta):
    if r < delta():
        return None
    z, inner = w.n * (w.k - 1) + comb(w.k - 1, 2), comb(w.k - 1, 2)
    return "r=Delta", (delta(),), z, lambda i: i if i <= z else i % inner + w.n * (w.k - 1) + 1


def _paint_line_friendship(n: int, r: int, delta):
    if r >= delta():  # proposition 2 at k = 3
        return _paint_line_windmill(_Wd(3, n), r, delta)
    # The small-r case is stated for n >= 2. L(F_1) = K_3 has Delta = 2, so
    # no r with 2 <= r < Delta exists; the formula would need 3 > 2n colors
    # there, and its middle range 2n+1..3n-1 is empty.
    if r < 2:
        return None

    def formula(i: int) -> int:
        if i <= 2 * n:
            return i
        if i <= 3 * n - 1:
            return 2 * n
        return 1  # i == 3n

    return "r<Delta", range(2, delta()), 2 * n, formula


def _paint_middle_cycle(n: int, r: int, delta):
    if n < 4 or r not in (2, 3):
        return None
    if r == 3:

        def formula(i: int) -> int:
            if n + 1 <= i <= 2 * n and (i - n) % 2 == 0:
                return 1
            if 1 <= i <= n and i % 2 == 1:
                return 2
            if i == n + 1 or (4 <= i <= n and i % 2 == 0):
                return 3
            return 4

        return "r=3", (3,), 4, formula
    if n % 2 == 0:

        def formula(i: int) -> int:
            if 1 <= i <= n:
                return 1
            if n + 1 <= i <= 2 * n and i % 2 == 1:
                return 2
            return 3

        return "r=2,n even", (2,), 3, formula

    def formula(i: int) -> int:
        if i == 1 or (n + 1 <= i <= 2 * n and i % 2 == 1):
            return 1
        if i == 2 * n or 2 <= i <= n - 1:
            return 2
        return 3

    return "r=2,n odd", (2,), 3, formula


# All three formulas are evaluated as printed. At n = 1 the literal
# constants 3 and 4 of the two small-r formulas collide with the color of
# an adjacent outer edge, 2n+1 = 3 at r <= 2n and 2n+2 = 4 at r = 2n+1: the
# verifier reports the clash, which is reproduced on purpose rather than
# repaired. The claimed values are still right.
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

    if 2 <= r <= 2 * n:
        return "r<=2n", range(2, 2 * n + 1), 2 * n + 1, small
    if r == 2 * n + 1:
        return "r=2n+1", (r,), 2 * n + 2, lambda i: small(i) if i <= 4 * n + 1 else 2 * n + 2
    if r >= delta():
        return "r=Delta", (delta(),), 2 * n + 4, at_delta
    return None


def _paint_middle_bipartite(s: tuple, r: int, delta):
    n1, n2 = s
    n = n1 + n2

    def small(i: int) -> int:
        if 1 <= i <= n:
            return n2 + 1
        return 1 + ((i - 1 - n) // n2 + (i - n)) % n2

    if 1 <= r <= n2:
        return "r<=n2", range(1, n2 + 1), n2 + 1, small
    if r == n2 + 1:
        return "r=n2+1", (r,), n2 + 2, lambda i: n2 + 2 if i <= n1 else small(i)
    return None


def _paint_middle_multipartite(s: tuple, r: int, delta):
    if r < delta():
        return None
    l = families.declared_size(FamilySpec("kpart", s))[1]  # the edge count
    ends = list(accumulate(s))

    def formula(i: int) -> int:
        if 1 <= i <= l:
            return i
        # l + p for the p with n_1 + ... + n_{p-1} < i - l <= n_1 + ... + n_p
        return l + 1 + bisect_left(ends, i - l)

    return "r=Delta", (delta(),), len(s) + l, formula


class Case(NamedTuple):
    """One proposition: `family(spec)` gives its parameters (None for other
    families). `scheme` names its numbering v_1, v_2, ..., which
    `order(params)` lists as the vertex origins ("vertex", v) / ("edge",
    (u, w)) in paper order; where `order` is None the numbering is the
    order the builder emits (windmill blades and parts are consecutive id
    ranges, edges lexicographic). `paint(params, r, delta)` is the one
    statement of its split over r. It gives (case, r_values, value,
    formula) for the case that covers r, value being the claimed chi_r and
    formula(i) the published color of v_i, or None where no case covers r.
    Delta comes as a function, called only where a case reads it. A case
    stated at r = Delta covers every r >= Delta; `label` names the r the
    cases cover, for messages. `grid` lists the instances `condchrom table`
    checks: its parameters are the ranges it takes, --k and --n, with their
    defaults, and each instance is listed at every r in 1..Delta where the
    row covers it."""

    proposition: int
    label: str
    family: Callable
    scheme: str
    order: Callable | None
    paint: Callable
    grid: Callable


# construct and predicted_chi_r take the first row that covers (family, r),
# paper_indexing the first row that states the family; `condchrom table P`
# lists each r where the row of P covers an instance. So 2 comes before 3
# (both state L(F_n) at r = Delta) and 7 before 4 (both state M(K_{1,n2})
# at r = n2 + 1 = Delta).
CASES = (
    Case(1, "r >= 2", _windmill, "identity", None, _paint_windmill,
         lambda k=(3, 4), n=(1, 2, 3): [f"wd:{a},{b}" for a in k for b in n]),
    Case(2, "r = Delta", _of("L", _windmill), "line-windmill", None, _paint_line_windmill,
         lambda k=(3,), n=(1, 2, 3): [f"L(wd:{a},{b})" for a in k for b in n]),
    Case(3, "2 <= r < Delta for n >= 2, r = Delta", _of("L", _friendship), "line-windmill",
         None, _paint_line_friendship, lambda n=(1, 2, 3): [f"L(fr:{b})" for b in n]),
    Case(5, "r in {2, 3} for n >= 4", _of("M", _cycle), "middle-cycle", _middle_cycle_order,
         _paint_middle_cycle, lambda n=(4, 5, 6, 7): [f"M(cyc:{b})" for b in n]),
    Case(6, "2 <= r <= 2n+1, r = Delta", _of("M", _friendship), "middle-friendship",
         _middle_friendship_order, _paint_middle_friendship,
         lambda n=(1, 2): [f"M(fr:{b})" for b in n]),
    Case(7, "1 <= r <= n2+1", _of("M", _two_parts), "middle-bipartite", None,
         _paint_middle_bipartite, lambda: [f"M(kpart:{s})" for s in ("1,2", "2,2")]),
    Case(4, "r = Delta", _of("M", _parts), "middle-multipartite", _middle_multipartite_order,
         _paint_middle_multipartite,
         lambda: [f"M(kpart:{s})" for s in ("1,1,1", "1,2", "2,2", "1,1,2")]),
)
# F_1 = K_{1,1,1}: after M(F_1), `condchrom table` checks M(kpart:1,1,1)
# through proposition 4.
CROSS_CHECKS = {"M(fr:1)": [("M(kpart:1,1,1)", 4)]}
_ROW = {c.proposition: c for c in CASES}


def _covering_case(spec: FamilySpec, r: int):
    """(row, params, painted) of the first row that covers (spec, r), painted
    being what its paint gives, or None. Raises ParameterError where
    families.build rejects the spec, without building it."""
    families.check_limits(spec)
    delta = functools.partial(families.declared_max_degree, spec)
    return next(((c, p, painted) for c in CASES if (p := c.family(spec)) is not None
                 and (painted := c.paint(p, r, delta)) is not None), None)


def _claim(row: Case, params, painted: tuple, built: tuple) -> ClaimedColoring:
    """The coloring that `painted`, the result of row.paint, gives on
    `built`, over the row's numbering, with the painted value as the claim."""
    g, prov = _numbered(built, row, params)
    case, r_values, claimed_k, formula = painted
    colors = tuple(formula(i) for i in prov.paper_pos)
    coloring = Coloring(colors, max(max(colors), claimed_k))
    return ClaimedColoring(g, prov, coloring, claimed_k, tuple(r_values), row.proposition, case)


def numbered_build(spec: str | FamilySpec) -> tuple[Graph, Provenance]:
    """families.build(spec) with the numbering of the first proposition that
    states the family; the builder's identity numbering where none does."""
    spec = parse_spec(spec)
    built = families.build(spec)
    stated = next(((c, p) for c in CASES if (p := c.family(spec)) is not None), None)
    return built if stated is None else _numbered(built, *stated)


def paper_indexing(spec: str | FamilySpec) -> Provenance:
    """Provenance (including the v_i bijection) for a supported family.
    Raises ParameterError for a line or middle graph no proposition states."""
    spec = parse_spec(spec)
    _, prov = numbered_build(spec)
    if prov.scheme == "identity" and spec.tag in ("L", "M"):
        raise ParameterError(f"no proposition indexing for {spec}")
    return prov


def construct(spec: str | FamilySpec, r: int) -> ClaimedColoring:
    """The coloring of the first stated case that covers (family, r)."""
    spec = parse_spec(spec)
    hit = _covering_case(spec, r)
    if hit is None:
        stated = "; ".join(f"proposition {c.proposition} at {c.label}"
                           for c in CASES if c.family(spec) is not None)
        raise UnsupportedCaseError(f"no stated case covers {spec} at r = {r}; " + (
            f"stated: {stated}" if stated else "no proposition covers the family"))
    return _claim(*hit, families.build(spec))


def predicted_chi_r(spec: str | FamilySpec, r: int) -> int | None:
    """Closed-form chi_r when (family, r) falls inside a stated case.

    Returns None outside every case; never extrapolates.
    """
    spec = parse_spec(spec)
    hit = _covering_case(spec, r)
    return None if hit is None else hit[2][2]  # the painted value


def covered_levels(spec: str | FamilySpec, proposition: int) -> list[int]:
    """The r in 1..Delta at which the row of `proposition` covers `spec`."""
    spec = parse_spec(spec)
    families.check_limits(spec)  # ParameterError where the builders reject spec
    row = _ROW[proposition]
    params = row.family(spec)
    if params is None:
        return []
    delta = families.declared_max_degree(spec)
    return [r for r in range(1, delta + 1) if row.paint(params, r, lambda: delta) is not None]
