"""Command-line front end.

Commands: generate | solve | construct | verify | bounds | table.
Exit codes: 0 success/valid, 1 invalid coloring or formula mismatch,
2 input error, 3 the node budget left the solve bracket open (lo < hi),
141 stdout was closed before the output was written (128 + SIGPIPE, as for
a process that SIGPIPE ends; nothing is printed).

One table, COMMANDS, declares each command's help, function and
arguments. `main` reads a command line from it directly when the line is
spelled in full and well formed (see `_quick_args`), with no argparse
parser built. Any other line goes to the full argparse tree, which
`build_parser` builds from the same table, on the first such line of a
process: help, errors, abbreviated options and every other spelling
argparse takes read, print and exit as ever.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import constructions, families, solver
# lower_bounds calls bounds.clique_number, not this binding; it stays because
# condbench/test_condbench.py checks that the tracer patches cli.clique_number.
from .bounds import clique_number, lower_bounds, strongest  # noqa: F401
from .errors import InputError, ParameterError, PreconditionError, UnsupportedCaseError
from .graphs import VERTEX_LIMIT, Graph, from_dimacs, to_dimacs, to_dot
from .verify import Coloring, check_conditional

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141
# The propositions `condchrom table` checks, in number order, and their ids
# as its help and errors name them.
PROPOSITIONS = sorted(constructions.CASES, key=lambda c: c.proposition)
PROPOSITION_IDS = f"{PROPOSITIONS[0].proposition}..{PROPOSITIONS[-1].proposition} or 'all'"


def non_negative_int(text: str) -> int:
    """argparse type of --max-nodes (0 = unlimited) and --size-cap: an
    integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, written directly for the
    types of the CLI's documents: dicts with string keys, lists and tuples,
    strings, ints, True, False and None. Any other value is left to
    json.dumps and indented to its place."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, pad: str, out: list[str]) -> None:
    """Append obj's text to out; pad is a newline and obj's indentation."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        if not obj:
            out.append("[]")
        elif all(type(value) is int for value in obj):  # a coloring, in one join
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}{pad}]")
        else:
            sep = "["
            for value in obj:
                out.append(sep + inner)
                _write(value, inner, out)
                sep = ","
            out.append(pad + "]")
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        inner, sep = pad + "  ", "{"
        for key, value in obj.items():
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write(value, inner, out)
            sep = ","
        out.append(pad + "}" if obj else "{}")
    else:
        out.append(json.dumps(obj, indent=2).replace("\n", pad))


def _read_text(path: str) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not a text file ({e.reason})") from None


def _load_graph(args, cap: float = math.inf) -> Graph:
    """The graph of args.spec or of args.file, exactly one of which must be
    given; an InputError when it has more than `cap` vertices. A spec's
    vertex count is compared with the cap before it is built."""
    if (args.spec is None) == (args.file is None):
        raise InputError("provide a family spec or --file" if args.spec is None
                         else "provide a family spec or --file, not both")
    if args.file:
        g = from_dimacs(_read_text(args.file))
        n = g.n
    else:
        n, g = families.build_within(args.spec, cap)
    if n > cap:
        raise InputError(f"instance has {n} > {cap} vertices; pass --force")
    return g


def _parse_range(text: str) -> list[int]:
    """The values of N or LO..HI. In every table grid a value outside
    1..VERTEX_LIMIT names an instance the builders reject, so such a range
    is an input error, raised before the list is made."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InputError(f"bad range {text!r}: expected N or LO..HI") from None
    if lo > hi:
        raise InputError(f"empty range {text!r}: LO must not exceed HI")
    if lo < 1 or hi > VERTEX_LIMIT:
        raise InputError(f"range {text!r} goes outside 1..{VERTEX_LIMIT}, where "
                         "no table instance can be built")
    return list(range(lo, hi + 1))


def cmd_generate(args) -> int:
    g, prov = constructions.numbered_build(args.spec)
    out = to_dot(g) if args.format == "dot" else to_dimacs(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
        with open(args.output + ".provenance.json", "w") as fh:
            fh.write(_dumps(prov.to_json_dict()) + "\n")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = _load_graph(args, math.inf if args.force else solver.DEFAULT_SIZE_CAP)
    res = solver.chi_r_exact(g, args.r, budget=args.max_nodes)
    print(_dumps(res.to_json_dict()))
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
    print(_dumps(out))
    return code


def cmd_verify(args) -> int:
    g = from_dimacs(_read_text(args.graph))
    text = _read_text(args.coloring)
    # Besides malformed text, json.loads raises ValueError for an integer of
    # more than sys.get_int_max_str_digits() digits and RecursionError for
    # arrays or objects nested deeper than the recursion limit.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InputError(f"{args.coloring}: cannot read JSON ({e})") from None
    report = check_conditional(g, Coloring.from_json_dict(doc), args.r)
    print(_dumps(report.to_json_dict()))
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_bounds(args) -> int:
    reports = lower_bounds(_load_graph(args), args.r)
    clique, *basic, vset, distinct = reports
    out = {
        "clique": clique.to_json_dict(),
        "vset_d2r": vset.to_json_dict(),
        "best": strongest(reports).to_json_dict(),
    }
    if basic:
        out["basic_r_delta"] = basic[0].to_json_dict()
    out["distinct_clique"] = distinct.to_json_dict()
    print(_dumps(out))
    return EXIT_OK


def cmd_table(args) -> int:
    cases = [c for c in PROPOSITIONS if args.proposition in ("all", str(c.proposition))]
    if not cases:
        raise InputError(f"unknown proposition id {args.proposition!r} ({PROPOSITION_IDS})")
    ranges = {opt: _parse_range(text) for opt, text in (("k", args.k), ("n", args.n)) if text}
    # A grid takes the ranges its parameters name. `table all` gives each grid
    # those it takes; a range that the one grid asked for ignores is an error.
    takes = {c: inspect.signature(c.grid).parameters for c in cases}
    if args.proposition != "all":
        (case,) = cases
        for opt in sorted(ranges.keys() - takes[case].keys()):
            accepted = " and ".join(f"--{o}" for o in takes[case]) or "no range"
            raise InputError(f"table {case.proposition} takes no --{opt}; it takes {accepted}")
    listed = [
        (c.proposition, spec, r)
        for c in cases
        for instance in c.grid(**{o: v for o, v in ranges.items() if o in takes[c]})
        for spec, cases_of in [(instance, c.proposition),
                               *constructions.CROSS_CHECKS.get(instance, [])]
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
        print(_dumps(rows))
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


# Each command's name, its help in the full tree's command list, the
# function that runs it and its arguments: each argument's flags and the
# keywords that argparse's add_argument takes. build_parser and _quick_args
# both read this table.
COMMANDS = {
    "generate": (
        "emit a family graph as DIMACS col or DOT", cmd_generate,
        (("spec",), dict(help="family spec, e.g. wd:3,2 or M(cyc:5)")),
        (("--format",), dict(choices=("col", "dot"), default="col")),
        (("-o", "--output"), dict(help="output file (provenance sidecar written)")),
    ),
    "solve": (
        "compute chi_r exactly", cmd_solve,
        (("spec",), dict(nargs="?", help="family spec")),
        (("--file",), dict(help="DIMACS col file instead of a spec")),
        (("-r",), dict(type=int, required=True)),
        (("--max-nodes",), dict(type=non_negative_int, default=0)),
        (("--force",), dict(action="store_true", help="ignore the size cap")),
    ),
    "construct": (
        "emit a proposition's coloring", cmd_construct,
        (("spec",), {}),
        (("-r",), dict(type=int, required=True)),
        (("--verify",), dict(action="store_true")),
    ),
    "verify": (
        "check a coloring file against a graph file", cmd_verify,
        (("graph",), dict(help="DIMACS col file")),
        (("coloring",), dict(help='coloring JSON {"k":., "colors":[..]}')),
        (("-r",), dict(type=int, required=True)),
    ),
    "bounds": (
        "lower-bound reports for an instance", cmd_bounds,
        (("spec",), dict(nargs="?")),
        (("--file",), {}),
        (("-r",), dict(type=int, required=True)),
    ),
    "table": (
        "formula-vs-exact comparison table", cmd_table,
        (("proposition",), dict(help=PROPOSITION_IDS)),
        (("--k",), dict(help="range like 3..4")),
        (("--n",), dict(help="range like 1..3")),
        (("--format",), dict(choices=("csv", "json"), default="csv")),
        (("--max-nodes",), dict(type=non_negative_int, default=0)),
        (("--size-cap",), dict(type=non_negative_int, default=solver.DEFAULT_SIZE_CAP)),
        (("--timing",), dict(action="store_true",
                             help="append a ms column (non-deterministic output)")),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    p = argparse.ArgumentParser(
        prog="condchrom",
        description="Conditional (k,r)-coloring: families, solver, "
        "constructions, verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, *arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            command.add_argument(*flags, **keywords)
        command.set_defaults(func=func)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _quick_args(argv: list[str]) -> argparse.Namespace | None:
    """argv read from COMMANDS as the full tree reads it, or None where
    argparse must read it. A line is read here when its first word is a
    command, every word that starts with "-" is one of that command's option
    strings in full, each valued option is followed by a word that does not
    start with "-" and that its type converts into its choices, the other
    words fill the positionals in order (only nargs="?" ones may stay empty)
    and every required option is given. Help, errors, abbreviations, "-r7",
    "--opt=v", negative values and "--" are all left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, *arguments = COMMANDS[argv[0]]
    values, options, positionals, required = {}, {}, [], set()
    for flags, keywords in arguments:
        if not flags[0].startswith("-"):
            dest = flags[0]
            positionals.append((dest, keywords))
        else:
            # argparse's dest: the first long flag, else the first flag.
            long = [f for f in flags if f.startswith("--")]
            dest = (long or flags)[0].lstrip("-").replace("-", "_")
            options.update(dict.fromkeys(flags, (dest, keywords)))
            if keywords.get("required"):
                required.add(dest)
        store_true = keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if store_true else None)
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            if word not in options:
                return None
            dest, keywords = options[word]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            word = next(words, "-")
            if word.startswith("-"):
                return None
        elif positionals:
            dest, keywords = positionals.pop(0)
        else:
            return None
        try:
            value = keywords.get("type", str)(word)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
        required.discard(dest)
    if required or any(keywords.get("nargs") != "?" for _, keywords in positionals):
        return None
    return argparse.Namespace(command=argv[0], func=func, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _quick_args(argv) or _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, as under `| head`. Pointing stdout
        # at devnull keeps the interpreter's final flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ParameterError, InputError, UnsupportedCaseError, PreconditionError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
