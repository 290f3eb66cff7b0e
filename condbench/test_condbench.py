"""Tests of the benchmark's own machinery. Run with
`PYTHONPATH=src python3 -m pytest condbench`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import condchrom.kernel
import condchrom.solver
from condchrom import _kernel_py, families

import one_pass
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def _bindings():
    return {(m.__name__, attr): value for m in tracer.condchrom_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        from condchrom import bounds, cli, solver

        assert cli.clique_number is bounds.clique_number
        assert cli.clique_number is not before[("condchrom.bounds", "clique_number")]
        assert solver.best_lower_bound is bounds.best_lower_bound
        assert solver.best_lower_bound is not before[("condchrom.bounds", "best_lower_bound")]
        assert cli.main(["bounds", "cyc:6", "-r", "2"]) == 0
    finally:
        tr.uninstall()
    assert _bindings() == before
    names = [s["name"] for s in tr.spans]
    assert names[0] == "cli" and "bounds.clique" in names and "bounds.vset" in names
    assert {s["call"] for s in tr.spans} == {0}


def _pass(workload: str, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
    env.pop("CONDCHROM_BACKEND", None)
    env.pop("CONDCHROM_MAX_NODES", None)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "one_pass.py"), "--workload", workload,
         "--seed", "7", "--workdir", str(BENCH_DIR / "out"), *extra],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_pass_reproduces_untraced_answers_and_counts():
    plain, traced = _pass("desk_table"), _pass("desk_table", "--trace")
    assert [op["errors"] for op in plain["ops"]] == [[]] * len(plain["ops"])
    assert [op["errors"] for op in traced["ops"]] == [[]] * len(traced["ops"])
    assert [op["digest"] for op in plain["ops"]] == [op["digest"] for op in traced["ops"]]
    layers = tracer.layer_metrics(traced["spans"])
    assert layers["kernel.nodes"] == sum(op["nodes"] for op in plain["ops"])
    assert layers["kernel.calls"] == 63  # one found level per table row
    assert layers["constructions.calls"] > 0 and layers["verify.check_calls"] > 0
    assert {s["call"] for s in traced["spans"] if s["name"] == "cli"} == set(
        range(len(traced["ops"])))


def test_kernel_pin_catches_a_different_node_count():
    op = workloads.Op(["solve"], None, {10: 5})
    spans = [{"name": "kernel", "call": 0, "k": 10, "nodes": 6},
             {"name": "kernel", "call": 1, "k": 10, "nodes": 9}]
    assert len(one_pass.kernel_pin_errors(op, 0, spans)) == 1
    spans[0]["nodes"] = 5
    assert one_pass.kernel_pin_errors(op, 0, spans) == []


class _OffByOne:
    @staticmethod
    def search_coloring(neighbors, req, k, budget):
        status, colors, nodes = _kernel_py.search_coloring(neighbors, req, k, budget)
        return status, colors, nodes + 1


def test_backend_agreement_compares_every_kernel_level():
    ops = [workloads.Op(["solve", "M(fr:2)", "-r", "5"], None)]
    compared, errors = one_pass.agree(ops, {"pure": _kernel_py, "twin": _kernel_py})
    assert compared >= 1 and errors == []
    compared, errors = one_pass.agree(ops, {"pure": _kernel_py, "off": _OffByOne})
    assert len(errors) == compared
    assert condchrom.kernel.search_coloring.__module__ == "condchrom.kernel"


def test_checks_reject_a_wrong_answer():
    g, _ = families.build("cyc:6")
    good = condchrom.solver.chi_r_exact(g, 2)
    out = json.dumps(good.to_json_dict())
    assert workloads.check_solve(g, 2, ("exact", 3), 0, out, "").errors == []
    assert workloads.check_solve(g, 2, ("exact", 4), 0, out, "").errors
    assert workloads.check_solve(g, 2, ("exact", 3), 3, out, "").errors
    bad = dict(good.to_json_dict(), witness={"k": 3, "colors": [1] * 6})
    assert workloads.check_solve(g, 2, None, 0, json.dumps(bad), "").errors
