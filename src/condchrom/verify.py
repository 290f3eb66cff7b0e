"""Checkers for proper coloring (C1), conditional neighborhood diversity
(C2), the structural condition (C3), and Vset-d2r and distinctness-set
certificates.

A conditional (k,r)-coloring is a proper coloring in which every vertex v
sees at least min{d(v), r} distinct colors in its neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ParameterError, PreconditionError
from .graphs import Graph


@dataclass(frozen=True)
class Coloring:
    """Total assignment vertex -> color (1-based) with a declared budget k."""

    colors: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if any(c < 1 or c > self.k for c in self.colors):
            raise InputError(f"colors must lie in 1..{self.k}")

    @property
    def colors_used(self) -> int:
        return len(set(self.colors))

    def to_json_dict(self) -> dict:
        return {"k": self.k, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Coloring":
        """Parse {"k": int, "colors": [int, ...]}; InputError on any other shape."""
        if not isinstance(d, dict) or "k" not in d or "colors" not in d:
            raise InputError('coloring must be a JSON object with "k" and "colors"')
        k, colors = d["k"], d["colors"]
        if not isinstance(colors, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in [k, *colors]
        ):
            raise InputError('coloring "k" and "colors" must be integers')
        return cls(tuple(colors), k)


@dataclass(frozen=True)
class ConditionalReport:
    """Violation record: empty of violations iff the coloring is a
    conditional (colors_used, r)-coloring."""

    c1_violations: tuple  # (u, v) edges with equal endpoint colors
    c2_violations: tuple  # (vertex, seen, required)
    surjective: bool  # colors used are exactly 1..colors_used
    colors_used: int

    @property
    def valid(self) -> bool:
        return not self.c1_violations and not self.c2_violations

    def to_json_dict(self) -> dict:
        return {
            "c1_violations": [list(e) for e in self.c1_violations],
            "c2_violations": [list(t) for t in self.c2_violations],
            "surjective": self.surjective,
            "colors_used": self.colors_used,
            "valid": self.valid,
        }


def _check_total(g: Graph, c: Coloring) -> None:
    if len(c.colors) != g.n:
        raise InputError(
            f"coloring has {len(c.colors)} entries, graph has {g.n} vertices"
        )


def _surjectivity(c: Coloring) -> tuple[bool, int]:
    used = set(c.colors)
    return used == set(range(1, len(used) + 1)), len(used)


def check_proper(g: Graph, c: Coloring) -> ConditionalReport:
    """C1 only: list every monochromatic edge."""
    _check_total(g, c)
    bad = tuple(
        (u, v) for u, v in g.edges() if c.colors[u] == c.colors[v]
    )
    surjective, used = _surjectivity(c)
    return ConditionalReport(bad, (), surjective, used)


def check_conditional(g: Graph, c: Coloring, r: int) -> ConditionalReport:
    """Full C1 + C2 report at level r."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    _check_total(g, c)
    c1 = check_proper(g, c).c1_violations
    c2 = []
    for v in range(g.n):
        seen = len({c.colors[u] for u in g.neighbors(v)})
        required = min(g.degree(v), r)
        if seen < required:
            c2.append((v, seen, required))
    surjective, used = _surjectivity(c)
    return ConditionalReport(c1, tuple(c2), surjective, used)


def check_c3(g: Graph, r: int) -> tuple[bool, dict]:
    """True iff every edge uv has a witness w with d(w) <= r and u,v in N(w).

    Returns (verdict, witnesses); witnesses maps each edge to its smallest
    witness when the verdict is true.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    witnesses: dict[tuple[int, int], int] = {}
    for u, v in g.edges():
        w = next(
            (
                x
                for x in sorted(g.neighbors(u) & g.neighbors(v))
                if g.degree(x) <= r
            ),
            None,
        )
        if w is None:
            return False, {}
        witnesses[(u, v)] = w
    return True, witnesses


def _pairs_linked(g: Graph, members, r: int, witness) -> bool:
    """True iff every pair of members is adjacent or has a common neighbour
    w with witness(w). InputError on an out-of-range id."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    s = sorted(set(members))
    for v in s:
        g._check_vertex(v)
    for a_idx, u1 in enumerate(s):
        for u2 in s[a_idx + 1 :]:
            if not g.has_edge(u1, u2) and not any(
                map(witness, g.neighbors(u1) & g.neighbors(u2))
            ):
                return False
    return True


def check_vset_d2r(g: Graph, members, r: int) -> bool:
    """Vset-d2r certificate check: (i) every member has degree <= r;
    (ii) every member pair is adjacent or has a common neighbor inside
    the set itself."""
    s = set(members)
    return _pairs_linked(g, s, r, s.__contains__) and all(g.degree(v) <= r for v in s)


def check_distinct_set(g: Graph, members, r: int) -> bool:
    """Distinctness certificate check: every member pair is adjacent or has
    a common neighbor of degree <= r, so the members need pairwise distinct
    colors in every conditional coloring at level r."""
    return _pairs_linked(g, members, r, lambda w: g.degree(w) <= r)


def lemma2_conclusion(g: Graph, c: Coloring, r: int) -> bool:
    """Given C3 holds on g and c satisfies C2, assert c is proper.

    Raises PreconditionError naming whichever precondition fails.
    """
    ok_c3, _ = check_c3(g, r)
    if not ok_c3:
        raise PreconditionError("C3 does not hold on this graph at this r")
    report = check_conditional(g, c, r)
    if report.c2_violations:
        raise PreconditionError(
            f"coloring violates C2 at {len(report.c2_violations)} vertices"
        )
    return not report.c1_violations
