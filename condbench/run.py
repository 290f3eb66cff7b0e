#!/usr/bin/env python3
"""condchrom benchmark.

Usage (from the repository root):
  python3 condbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: desk_table, sparse_bounds, tail_found, tail_refute (see NOTES.md).
The load is a closed loop from this single process: each pass runs in a
fresh interpreter (one_pass.py), one pass at a time, until the next pass
would end after --seconds. --seed drives only the relabelling of the
sparse_bounds graphs.

--trace 0 reports the end-to-end metrics, medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Exits 2 without a
result when the condchrom sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / "out"

# Workload and metric names, with units, come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer counts must repeat exactly between passes.
COUNT_METRICS = [m for m, unit in PER_LAYER_UNITS.items() if unit in ("count", "frac")]
# Workloads whose kernel calls are replayed on every importable backend.
AGREE_WORKLOADS = ("tail_found", "tail_refute")
RUN_LIMIT_S = 170.0  # every pass of a run ends within this


def child_env() -> dict:
    env = dict(os.environ)
    # Users get the default backend and no node budget from the environment.
    env.pop("CONDCHROM_BACKEND", None)
    env.pop("CONDCHROM_MAX_NODES", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(WORKDIR), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_passes(args, started: float) -> list[tuple[bool, dict]]:
    """(traced, result) per pass. Passes continue while the next one, taking
    as long as the longest so far, still ends within --seconds; at least two
    run, one of each kind when tracing."""
    passes: list[tuple[bool, dict]] = []
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        t = time.perf_counter()
        remaining = RUN_LIMIT_S - (t - started)
        passes.append((traced, run_child(args, ["--trace"] if traced else [], remaining)))
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + longest > args.seconds:
            return passes
        if elapsed + longest > RUN_LIMIT_S:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "condchrom" / "__init__.py").is_file():
        print(f"error: no condchrom sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        passes = run_passes(args, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    first = passes[0][1]
    errors: list[str] = []
    attempted = failed = 0
    for i, (traced, res) in enumerate(passes):
        for op, ref in zip(res["ops"], first["ops"]):
            op_errors = list(op["errors"])
            if op["digest"] != ref["digest"]:
                op_errors.append("output differs from the first pass")
            attempted += 1
            failed += bool(op_errors)
            errors += [f"pass {i} {' '.join(op['argv'])}: {e}" for e in op_errors]

    checks: list[tuple[str, bool]] = []
    reported_nodes = sum(op["nodes"] for op in first["ops"])
    layers = []
    if args.trace == 1:
        traced_passes = [res for traced, res in passes if traced]
        layers = [layer_metrics(res["spans"], res["readings"], res["factor"])
                  for res in traced_passes]
        for i, m in enumerate(layers):
            checks.append((f"traced pass {i}: kernel nodes {m['kernel.nodes']} "
                           f"= nodes in the outputs {reported_nodes}",
                           m["kernel.nodes"] == reported_nodes))
            checks.append((f"traced pass {i}: counts repeat the first traced pass",
                           all(m[k] == layers[0][k] for k in COUNT_METRICS)))
        spans_file = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(traced_passes[-1]["spans"]))

    if args.workload in AGREE_WORKLOADS and len(first["backends"]) > 1:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            agreement = run_child(args, ["--agree"], remaining)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            agreement = {"compared": 1, "errors": [f"agreement run failed: {e}"]}
        checks.append((f"backends {first['backends']} agree on "
                       f"{agreement['compared']} kernel calls", not agreement["errors"]))
        errors += agreement["errors"]

    attempted += len(checks)
    failed += sum(not ok for _, ok in checks)
    errors += [name for name, ok in checks if not ok]

    untraced = [res for traced, res in passes if not traced]
    brackets = [tuple(b) for op in first["ops"] for b in op["brackets"]]
    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "proven_frac": sum(lo == hi for lo, hi in brackets) / len(brackets),
        "bracket_size": sum(hi - lo + 1 for lo, hi in brackets),
        "passed_frac": 1.0 - failed / attempted,
    }

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": first["python"], "backend": first["backend"],
        "backends_importable": first["backends"],
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes), "traced_passes": len(layers),
        "output_digest": hashlib.sha256(
            "".join(op["digest"] for op in first["ops"]).encode()).hexdigest(),
    }
    print("provenance " + json.dumps(provenance))
    for e in errors[:20]:
        print("FAILED " + e)
    for op in first["ops"]:
        if op["brackets"]:
            print(f"call {' '.join(op['argv'])!r}: exit {op['code']}, nodes {op['nodes']}, "
                  f"brackets {op['brackets'][:3]}{' ...' if len(op['brackets']) > 3 else ''}")
    walls = sorted(r["wall_s"] for r in untraced)
    print(f"wall_s over {len(walls)} untraced passes: min {walls[0]} max {walls[-1]} s")
    print(f"wall_raw_s {statistics.median(r['wall_raw_s'] for r in untraced)} s")
    print(f"setup_raw_s {statistics.median(r['setup_raw_s'] for r in untraced)} s")
    print(f"bracket_gap {sum(hi - lo for lo, hi in brackets)} count")
    print(f"failed_frac {failed / attempted} frac")
    for name, value in e2e.items():
        print(f"{name} {value} {END_TO_END_UNITS[name]}")

    if args.trace == 1:
        per_layer = {k: layers[0][k] if k in COUNT_METRICS else
                     statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_passes) - e2e["wall_s"])
        for name, value in per_layer.items():
            print(f"{name} {value} {PER_LAYER_UNITS[name]}")
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
