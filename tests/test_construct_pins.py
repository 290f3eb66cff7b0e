"""Pins of the published colourings: construct on every (instance, r) row of
`table all`, on the construct grid of test_constructions, and over a grid
of parameters and r for each proposition's family. A call that returns is
pinned by its claim's JSON (colours, k, proposition, case, claimed_k,
r_set), one that raises by the exception's type and message.

Regenerate the pins, after a deliberate change, with

    PYTHONPATH=src python tests/test_construct_pins.py
"""

import csv
import json
import sys
from pathlib import Path

from condchrom import ParameterError, build, construct, declared_max_degree

sys.path.insert(0, str(Path(__file__).parent))
from conftest import CORPUS_SPECS  # noqa: E402

PINS = Path(__file__).parent / "data" / "construct_pins.json"
TABLE_ALL = Path(__file__).parents[1] / "condbench" / "table_all.csv"
EXTRA_SPECS = ["wd:5,2", "L(wd:4,3)", "M(cyc:3)", "M(wd:3,2)", "M(wd:4,2)", "M(kpart:3,1)",
               "M(kpart:2,1,1)", "M(kpart:1,2,1)", "M(kpart:3,1,2)"]


def _at_delta(specs) -> list:
    """(spec, Delta) of each spec that builds."""
    rows = []
    for spec in specs:
        try:
            rows.append((spec, declared_max_degree(spec)))
        except ParameterError:
            pass
    return rows


def _calls() -> list:
    """(spec, r) of every pinned construct call."""
    with TABLE_ALL.open() as fh:
        rows = [(row["instance"], int(row["r"])) for row in csv.DictReader(fh)]
    for spec in CORPUS_SPECS + EXTRA_SPECS:
        delta = build(spec)[0].max_degree()
        rows += [(spec, r) for r in range(1, delta + 3)]
    rows += [(f"wd:{k},{n}", r) for k in (2, 3, 4, 5) for n in (1, 2, 3)
             for r in range(1, n * (k - 1) + 2)]
    rows += _at_delta(f"L(wd:{k},{n})" for k in (2, 3, 4) for n in (0, 1, 2, 3))
    rows += [(f"L(fr:{n})", r) for n in (1, 2, 3) for r in range(1, 2 * n + 4)]
    rows += _at_delta(f"M(kpart:{sizes})" for sizes in (
        "3", "1,1,1", "1,2", "2,1", "2,2", "1,1,2", "2,1,1", "3,1,2", "3,2"))
    rows += [(f"M(cyc:{n})", r) for n in (*range(3, 13), 49, 50) for r in (1, 2, 3, 4)]
    rows += [(f"M(fr:{n})", r) for n in (0, 1, 2, 3) for r in range(0, 2 * n + 4)]
    rows += [(f"M(kpart:{n1},{n2})", r)
             for n1, n2 in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 1), (2, 1), (0, 2))
             for r in range(0, max(n1, n2) + 3)]
    return list(dict.fromkeys(rows))


def _outcome(spec: str, r: int) -> dict:
    try:
        return construct(spec, r).to_json_dict()
    except ValueError as exc:  # ParameterError, UnsupportedCaseError
        return {"raises": type(exc).__name__, "message": str(exc)}


def record() -> dict:
    return {f"construct{row!r}": _outcome(*row) for row in _calls()}


def test_constructions_match_the_pins():
    pins = json.loads(PINS.read_text())
    now = record()
    assert now.keys() == pins.keys()
    changed = [call for call in pins if now[call] != pins[call]]
    assert not changed, changed[:10]


if __name__ == "__main__":
    pins = record()
    PINS.write_text("{\n" + ",\n".join(f"{json.dumps(call)}: {json.dumps(out)}"
                                       for call, out in pins.items()) + "\n}\n")
    print(f"wrote {len(pins)} pins to {PINS}")
