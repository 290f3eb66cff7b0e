"""One pass of a workload in a fresh interpreter.

Usage: python3 condbench/one_pass.py --workload NAME --seed N --workdir DIR
       [--trace] [--agree]

Set-up (importing condchrom, loading the kernel backend and generating the
instances) is timed apart from the CLI calls. Each call goes through
`condchrom.cli.main` with stdout and stderr captured; the outputs are checked
after the timed part. Times are rescaled to a reference machine speed by
probe readings taken around set-up and every 0.1 s during the calls (see
speed.py). Prints one JSON object on stdout.

--trace records spans around the package's public functions.
--agree instead replays every kernel call of the pass on each importable
backend and compares (status, colors, nodes).
"""

from __future__ import annotations

import time

import speed

SETUP_PROBE = [speed.probe() for _ in range(3)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from condchrom import cli, kernel  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_op(argv: list[str], sampler=None) -> tuple[int | None, str, str, float]:
    """(exit code or None on a traceback, stdout, stderr, seconds); seconds
    leave out the sampler's readings."""
    out, err = io.StringIO(), io.StringIO()
    probe_s = sampler.probe_s if sampler else 0.0
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t
    if sampler:
        seconds -= sampler.probe_s - probe_s
    return code, out.getvalue(), err.getvalue(), seconds


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter. ru_maxrss is not used: on
    Linux it keeps the high-water mark of the parent's address space that a
    spawned child briefly shares before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_pin_errors(op, index: int, spans: list[dict]) -> list[str]:
    errors = []
    for s in spans:
        if s["name"] == "kernel" and s["call"] == index and s.get("k") in op.kernel_pins:
            want = op.kernel_pins[s["k"]]
            if s["nodes"] != want:
                errors.append(f"kernel at k={s['k']}: {s['nodes']} nodes, pinned {want}")
    return errors


def agree(ops, backends: dict) -> tuple[int, list[str]]:
    """Replay each kernel call of the ops on every backend; returns the number
    of calls compared and the disagreements."""
    calls = []
    original = kernel.search_coloring

    def recording(neighbors, req, k, budget=0):
        calls.append((neighbors, req, k, budget))
        return original(neighbors, req, k, budget)

    patched = tracer.patch_everywhere(original, recording)
    try:
        for op in ops:
            run_op(op.argv)
    finally:
        tracer.restore(patched)
    errors = []
    for neighbors, req, k, budget in calls:
        results = {name: mod.search_coloring(neighbors, req, k, budget)
                   for name, mod in backends.items()}
        if len({json.dumps(r) for r in results.values()}) > 1:
            errors.append(f"backends disagree at k={k}: "
                          + ", ".join(f"{n}: status {r[0]}, nodes {r[2]}"
                                      for n, r in results.items()))
    return len(calls), errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--agree", action="store_true")
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_raw_s = time.perf_counter() - T0
    setup_probe = statistics.median(SETUP_PROBE + [speed.probe() for _ in range(3)])
    setup_s = setup_raw_s * speed.REFERENCE_S / setup_probe

    if args.agree:
        compared, errors = agree(ops, kernel.backends())
        print(json.dumps({"compared": compared, "errors": errors}))
        return 0

    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    try:
        with speed.Sampler() as sampler:
            raw = [run_op(op.argv, sampler) for op in ops]
    finally:
        if tr:
            tr.uninstall()
    factor = sampler.factor()

    results = []
    for i, (op, (code, out, err, secs)) in enumerate(zip(ops, raw)):
        if code is None:
            outcome = workloads.Outcome(errors=["traceback: " + err.strip().splitlines()[-1]])
        else:
            outcome = op.check(code, out, err)
        if tr:
            outcome.errors += kernel_pin_errors(op, i, tr.spans)
        digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        results.append({"argv": op.argv, "code": code, "digest": digest,
                        "raw_s": secs, "errors": outcome.errors,
                        "brackets": outcome.brackets, "nodes": outcome.nodes})

    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(r["raw_s"] for r in results) * factor,
        "wall_raw_s": sum(r["raw_s"] for r in results),
        "peak_rss_mb": peak_rss_mb(),
        "backend": kernel.BACKEND_NAME,
        "backends": sorted(kernel.backends()),
        "python": sys.version.split()[0],
        "ops": results,
        "spans": tr.spans if tr else None,
        "readings": sampler.readings,
        "factor": factor,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
