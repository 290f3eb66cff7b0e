"""Command-line front end.

Commands: generate | solve | construct | verify | bounds | table.
Exit codes: 0 success/valid, 1 invalid coloring or formula mismatch,
2 input error, 3 the node budget left the solve bracket open (lo < hi).

`main` builds the argument parser once per process, on its first call, and
reuses it; CONDCHROM_MAX_NODES is read on every call that leaves out
--max-nodes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import constructions, families, solver
from .bounds import (  # noqa: F401  (condbench/tracer.py patches cli.clique_number)
    DEFAULT_VSET_BUDGET,
    clique_number,
    lower_bounds,
    strongest,
)
from .errors import InputError, ParameterError, PreconditionError, UnsupportedCaseError
from .graphs import Graph, from_dimacs, to_dimacs, to_dot
from .verify import Coloring, check_conditional

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_SIZE_CAP = 24


# The instances `condchrom table P` checks, from the --k and --n values or
# the defaults here; each is listed at every r in 1..Delta where a case of P
# covers it.
TABLE_GRIDS = {
    1: lambda ks, ns: [f"wd:{k},{n}" for k in ks or (3, 4) for n in ns or (1, 2, 3)],
    2: lambda ks, ns: [f"L(wd:{k},{n})" for k in ks or (3,) for n in ns or (1, 2, 3)],
    3: lambda ks, ns: [f"L(fr:{n})" for n in ns or (1, 2, 3)],
    4: lambda ks, ns: [f"M(kpart:{s})" for s in ("1,1,1", "1,2", "2,2", "1,1,2")],
    5: lambda ks, ns: [f"M(cyc:{n})" for n in ns or (4, 5, 6, 7)],
    6: lambda ks, ns: [f"M(fr:{n})" for n in ns or (1, 2)],
    7: lambda ks, ns: [f"M(kpart:{s})" for s in ("1,2", "2,2")],
}
# F_1 = K_{1,1,1}: after M(F_1), M(kpart:1,1,1) is checked through proposition 4.
CROSS_CHECKS = {"M(fr:1)": [("M(kpart:1,1,1)", 4)]}


def node_budget(text: str) -> int:
    """argparse type of --max-nodes: an integer >= 0 (0 = unlimited)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"node budget must be >= 0, got {value}")
    return value


def _read_text(path: str) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not a text file ({e.reason})") from None


def _load_graph(args) -> Graph:
    if getattr(args, "file", None):
        return from_dimacs(_read_text(args.file))
    g, _ = families.build(args.spec)
    return g


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError:
        raise InputError(f"bad range {text!r}: expected N or LO..HI") from None
    if not values:
        raise InputError(f"empty range {text!r}: LO must not exceed HI")
    return values


def cmd_generate(args) -> int:
    g, prov = constructions.numbered_build(args.spec)
    out = to_dot(g) if args.format == "dot" else to_dimacs(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
        with open(args.output + ".provenance.json", "w") as fh:
            json.dump(prov.to_json_dict(), fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_solve(args) -> int:
    cap = math.inf if args.force else args.size_cap
    if args.file:
        g = _load_graph(args)
        n, g = g.n, (g if g.n <= cap else None)
    else:
        # A spec's vertex count is compared with the cap before it is built.
        n, g = families.build_within(args.spec, cap)
    if g is None:
        raise InputError(
            f"instance has {n} > {args.size_cap} vertices; pass --force"
        )
    res = solver.chi_r_exact(g, args.r, budget=args.max_nodes)
    print(json.dumps(res.to_json_dict(), indent=2))
    return EXIT_OK if res.proven else EXIT_BUDGET


def cmd_construct(args) -> int:
    claim = constructions.construct(args.spec, args.r)
    out = claim.to_json_dict()
    code = EXIT_OK
    if args.verify:
        report = check_conditional(claim.graph, claim.coloring, args.r)
        out["verification"] = report.to_json_dict()
        exact_k = claim.coloring.colors_used == claim.claimed_k
        out["verification"]["claimed_k_matches_colors_used"] = exact_k
        if not (report.valid and exact_k):
            code = EXIT_INVALID
    print(json.dumps(out, indent=2))
    return code


def cmd_verify(args) -> int:
    g = from_dimacs(_read_text(args.graph))
    try:
        doc = json.loads(_read_text(args.coloring))
    except json.JSONDecodeError as e:
        raise InputError(f"{args.coloring}: not valid JSON ({e})") from None
    c = Coloring.from_json_dict(doc)
    if len(c.colors) != g.n:
        raise InputError(
            f"coloring has {len(c.colors)} entries, graph has {g.n} vertices"
        )
    report = check_conditional(g, c, args.r)
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_bounds(args) -> int:
    g = _load_graph(args)
    budget = args.max_nodes or DEFAULT_VSET_BUDGET
    reports = lower_bounds(g, args.r, vset_budget=budget)
    clique, *basic, vset = reports
    out = {
        "clique": clique.to_json_dict(),
        "vset_d2r": vset.to_json_dict(),
        "best": strongest(reports).to_json_dict(),
    }
    if basic:
        out["basic_r_delta"] = basic[0].to_json_dict()
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_table(args) -> int:
    props = [p for p in TABLE_GRIDS if args.proposition in ("all", str(p))]
    if not props:
        raise InputError(f"unknown proposition id {args.proposition!r} (1..7 or 'all')")
    ks = _parse_range(args.k) if args.k else None
    ns = _parse_range(args.n) if args.n else None
    listed = [
        (prop, spec, r)
        for prop in props
        for instance in TABLE_GRIDS[prop](ks, ns)
        for spec, cases_of in [(instance, prop), *CROSS_CHECKS.get(instance, [])]
        for r in constructions.covered_levels(spec, cases_of)
    ]
    swept = solver.sweep([(spec, r) for _, spec, r in listed],
                         budget=args.max_nodes, size_cap=args.size_cap)
    rows = []
    for (prop, _, _), row in zip(listed, swept):
        ms = row.pop("ms")
        row = {"proposition": prop, **row}
        if args.timing:
            row["ms"] = ms
        rows.append(row)

    mismatch = any(row["match"] is False for row in rows)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        cols = ["proposition", "instance", "n_vertices", "r", "formula", "exact",
                "match", "proven", "nodes"]
        if args.timing:
            cols.append("ms")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow(
                ["" if row.get(c) is None else row.get(c) for c in cols]
            )
        sys.stdout.write(buf.getvalue())
    return EXIT_INVALID if mismatch else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="condchrom",
        description="Conditional (k,r)-coloring: families, solver, "
        "constructions, verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a family graph as DIMACS col or DOT")
    g.add_argument("spec", help="family spec, e.g. wd:3,2 or M(cyc:5)")
    g.add_argument("--format", choices=("col", "dot"), default="col")
    g.add_argument("-o", "--output", help="output file (provenance sidecar written)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="compute chi_r exactly")
    s.add_argument("spec", nargs="?", help="family spec")
    s.add_argument("--file", help="DIMACS col file instead of a spec")
    s.add_argument("-r", type=int, required=True)
    s.add_argument("--max-nodes", type=node_budget)
    s.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    s.add_argument("--force", action="store_true", help="ignore the size cap")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("construct", help="emit a proposition's coloring")
    c.add_argument("spec")
    c.add_argument("-r", type=int, required=True)
    c.add_argument("--verify", action="store_true")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="check a coloring file against a graph file")
    v.add_argument("graph", help="DIMACS col file")
    v.add_argument("coloring", help='coloring JSON {"k":., "colors":[..]}')
    v.add_argument("-r", type=int, required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="lower-bound reports for an instance")
    b.add_argument("spec", nargs="?")
    b.add_argument("--file")
    b.add_argument("-r", type=int, required=True)
    b.add_argument("--max-nodes", type=node_budget)
    b.set_defaults(func=cmd_bounds)

    t = sub.add_parser("table", help="formula-vs-exact comparison table")
    t.add_argument("proposition", help="1..7 or 'all'")
    t.add_argument("--k", help="range like 3..4")
    t.add_argument("--n", help="range like 1..3")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--max-nodes", type=node_budget)
    t.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    t.add_argument(
        "--timing",
        action="store_true",
        help="append a ms column (non-deterministic output)",
    )
    t.set_defaults(func=cmd_table)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _env_budget(parser: argparse.ArgumentParser) -> int:
    """--max-nodes when the command line leaves it out; a bad value is a
    usage error (exit 2)."""
    text = os.environ.get("CONDCHROM_MAX_NODES", "0")
    try:
        return node_budget(text)
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"CONDCHROM_MAX_NODES: invalid node budget {text!r} "
                     "(expected an integer >= 0)")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_nodes", 0) is None:
        args.max_nodes = _env_budget(parser)
    if getattr(args, "spec", None) is None and getattr(args, "file", None) is None:
        if args.command in ("solve", "bounds"):
            print("error: provide a family spec or --file", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except (ParameterError, InputError, UnsupportedCaseError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
