"""The four workloads: the CLI calls of one pass and the checks on each
call's output.

A check returns an Outcome: the failures it found, the (lo, hi) brackets
the output reports and the kernel nodes it reports. Expected values come
from the paper's closed forms wherever one exists; see NOTES.md for the
pins that rest on this code base instead.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from condchrom import families
from condchrom.graphs import Graph
from condchrom.verify import Coloring, check_conditional, check_vset_d2r

GOLDEN_TABLE = Path(__file__).with_name("table_all.csv")

# The published small-r formulas for M(F_n) use literal colors 3 and 4,
# which clash at n = 1; `construct --verify` reports it with exit 1.
QUIRK_ROWS = {("M(fr:1)", 2), ("M(fr:1)", 3)}


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    brackets: list[tuple[int, int]] = field(default_factory=list)
    nodes: int = 0


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int | None, str, str], Outcome]
    # k level -> node count the kernel must report at that level, checked on
    # traced passes (kernel semantics are identical across backends).
    kernel_pins: dict[int, int] = field(default_factory=dict)


def _json_or_error(out: str, o: Outcome):
    try:
        return json.loads(out)
    except ValueError:
        o.errors.append("output is not JSON")
        return None


def check_table(golden: str, code, out, err) -> Outcome:
    o = Outcome()
    if code != 0:
        o.errors.append(f"exit {code}, expected 0")
    if out != golden:
        o.errors.append("table all CSV differs from the golden copy")
    for row in csv.DictReader(io.StringIO(out)):
        if row["match"] == "False":
            o.errors.append(f"formula mismatch on {row['instance']} r={row['r']}")
        if row["proven"] == "yes":
            chi = int(row["exact"])
            o.brackets.append((chi, chi))
        else:
            o.brackets.append((1, int(row["n_vertices"])))
        o.nodes += int(row["nodes"] or 0)
    return o


def check_construct(g: Graph, r: int, formula: int, quirk: bool,
                    code, out, err) -> Outcome:
    o = Outcome()
    want = 1 if quirk else 0
    if code != want:
        o.errors.append(f"exit {code}, expected {want}")
    d = _json_or_error(out, o)
    if d is None:
        return o
    report = check_conditional(g, Coloring.from_json_dict(d), r)
    if report.valid == quirk:
        o.errors.append(f"independent check says valid={report.valid}")
    if not quirk and not (report.colors_used == d["claimed_k"] == formula):
        o.errors.append(f"colors used {report.colors_used}, claimed "
                        f"{d['claimed_k']}, closed form {formula}")
    return o


def check_solve(g: Graph, r: int, pin: tuple[str, int] | None,
                code, out, err) -> Outcome:
    """pin: ("exact", chi) requires a proven chi; ("contains", chi) requires
    lo <= chi <= hi; None checks the witness and bracket only."""
    o = Outcome()
    d = _json_or_error(out, o)
    if d is None:
        o.errors.append(f"exit {code}")
        return o
    lo, hi = d["bracket"]
    proven = d["proven"]
    o.brackets.append((lo, hi))
    o.nodes = d["nodes_expanded"]
    want = 0 if proven else 3
    if code != want:
        o.errors.append(f"exit {code}, expected {want} for proven={proven}")
    witness = Coloring.from_json_dict(d["witness"])
    report = check_conditional(g, witness, r)
    if not report.valid:
        o.errors.append("witness rejected by check_conditional")
    if not (witness.colors_used == hi == d["chi_r"]):
        o.errors.append(f"witness uses {witness.colors_used} colors, hi = {hi}")
    if lo > hi or (proven and lo != hi):
        o.errors.append(f"bracket ({lo}, {hi}) with proven={proven}")
    if pin is not None:
        kind, chi = pin
        if kind == "exact" and not (proven and hi == chi):
            o.errors.append(f"chi_r: bracket ({lo}, {hi}), expected {chi}")
        if not lo <= chi <= hi:
            o.errors.append(f"bracket ({lo}, {hi}) excludes {chi}")
    return o


def check_bounds(g: Graph, r: int, chi: int, code, out, err) -> Outcome:
    o = Outcome()
    if code != 0:
        o.errors.append(f"exit {code}, expected 0")
    d = _json_or_error(out, o)
    if d is None:
        return o
    for kind, rep in d.items():
        if rep["value"] > chi:
            o.errors.append(f"{kind} bound {rep['value']} exceeds chi_r = {chi}")
    clique = d["clique"]["certificate"] or []
    if len(clique) != d["clique"]["value"] or any(
        not g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]
    ):
        o.errors.append("clique certificate rejected")
    vset = d["vset_d2r"]["certificate"] or []
    if len(vset) != d["vset_d2r"]["value"] or not check_vset_d2r(g, vset, r):
        o.errors.append("vset-d2r certificate rejected")
    if d["best"]["value"] < max(d["clique"]["value"], d["vset_d2r"]["value"]):
        o.errors.append("best bound is below another reported bound")
    return o


def desk_table(seed: int, workdir: Path) -> list[Op]:
    golden = GOLDEN_TABLE.read_text()
    ops = [Op(["table", "all"], partial(check_table, golden))]
    for row in csv.DictReader(io.StringIO(golden)):
        spec, r = row["instance"], int(row["r"])
        g, _ = families.build(spec)
        quirk = (spec, r) in QUIRK_ROWS
        ops.append(Op(["construct", spec, "-r", str(r), "--verify"],
                      partial(check_construct, g, r, int(row["formula"]), quirk)))
    return ops


def chi2_cycle(n: int) -> int:
    """chi_2(C_n): 3 when 3 divides n, else 4."""
    return 3 if n % 3 == 0 else 4


# (spec, r, chi_r). L(C_n) is C_n again. M(C_40) at r = 4 = Delta meets the
# cited bound min{r, Delta} + 1 = 5 with a verified witness.
SPARSE = [
    ("cyc:200", 2, chi2_cycle(200)),
    ("cyc:120", 2, chi2_cycle(120)),
    ("L(cyc:80)", 2, chi2_cycle(80)),
    ("M(cyc:40)", 4, 5),
]


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _write_dimacs(g: Graph, path: Path) -> None:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    path.write_text("\n".join(lines) + "\n")


def sparse_bounds(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i, (spec, r, chi) in enumerate(SPARSE):
        g = _relabelled(families.build(spec)[0], rng)
        path = workdir / f"sparse-{i}.col"
        _write_dimacs(g, path)
        ops.append(Op(["bounds", "--file", str(path), "-r", str(r)],
                      partial(check_bounds, g, r, chi)))
        ops.append(Op(["solve", "--file", str(path), "-r", str(r), "--force"],
                      partial(check_solve, g, r, ("exact", chi))))
    return ops


def _solve_ops(rows) -> list[Op]:
    ops = []
    for spec, r, budget, pin, pins in rows:
        g, _ = families.build(spec)
        argv = ["solve", spec, "-r", str(r), "--force"]
        if budget:
            argv += ["--max-nodes", str(budget)]
        ops.append(Op(argv, partial(check_solve, g, r, pin), pins))
    return ops


# The paper gives chi_{2n+1}(M(F_n)) = 2n + 2. M(fr:4) r=9 is the sanity row:
# the kernel search at k = 10 expands 1,404,243 nodes.
TAIL_FOUND = [
    ("M(fr:3)", 7, 0, ("exact", 8), {}),
    ("M(fr:4)", 9, 0, ("exact", 10), {10: 1_404_243}),
    ("M(fr:5)", 11, 500_000, ("contains", 12), {}),
]

# chi = 10 on the two r = 7 rows is a regression pin, not a closed form: the
# upper side is re-verified here, the lower side rests on the kernel's
# refutation of k = 8 and 9.
TAIL_REFUTE = [
    ("M(kpart:3,5)", 7, 0, ("exact", 10), {}),
    ("M(kpart:4,4)", 7, 0, ("exact", 10), {}),
    ("M(kpart:4,4)", 6, 300_000, None, {}),
]

WORKLOADS = {
    "desk_table": desk_table,
    "sparse_bounds": sparse_bounds,
    "tail_found": lambda seed, workdir: _solve_ops(TAIL_FOUND),
    "tail_refute": lambda seed, workdir: _solve_ops(TAIL_REFUTE),
}
