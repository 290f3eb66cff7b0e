"""Pins of the published colourings: construct on every (instance, r) row of
`table all` and on the construct grid of test_constructions, and each public
constructor over its parameter grid. A call that returns is pinned by its
claim's JSON (colours, k, proposition, case, claimed_k, r_set), one that
raises by the exception's type and message.

Regenerate the pins, after a deliberate change, with

    PYTHONPATH=src python tests/test_construct_pins.py
"""

import csv
import json
import sys
from pathlib import Path

from condchrom import (
    build,
    chi_windmill,
    color_line_friendship,
    color_line_windmill_delta,
    color_middle_bipartite,
    color_middle_cycle,
    color_middle_friendship,
    color_middle_multipartite_delta,
    construct,
)

sys.path.insert(0, str(Path(__file__).parent))
from conftest import CORPUS_SPECS  # noqa: E402

PINS = Path(__file__).parent / "data" / "construct_pins.json"
TABLE_ALL = Path(__file__).parents[1] / "condbench" / "table_all.csv"
EXTRA_SPECS = ["wd:5,2", "L(wd:4,3)", "M(cyc:3)", "M(wd:3,2)", "M(wd:4,2)", "M(kpart:3,1)",
               "M(kpart:2,1,1)", "M(kpart:1,2,1)", "M(kpart:3,1,2)"]


def _calls() -> list:
    """(function, args) of every pinned call."""
    with TABLE_ALL.open() as fh:
        rows = [(row["instance"], int(row["r"])) for row in csv.DictReader(fh)]
    for spec in CORPUS_SPECS + EXTRA_SPECS:
        delta = build(spec)[0].max_degree()
        rows += [(spec, r) for r in range(1, delta + 3)]
    calls = [(construct, row) for row in dict.fromkeys(rows)]
    calls += [(chi_windmill, (k, n, r)) for k in (2, 3, 4, 5) for n in (1, 2, 3)
              for r in range(1, n * (k - 1) + 2)]
    calls += [(color_line_windmill_delta, (k, n)) for k in (2, 3, 4) for n in (0, 1, 2, 3)]
    calls += [(color_line_friendship, (n, r)) for n in (1, 2, 3) for r in range(1, 2 * n + 4)]
    calls += [(color_middle_multipartite_delta, (sizes,)) for sizes in (
        [3], [1, 1, 1], [1, 2], [2, 1], [2, 2], [1, 1, 2], [2, 1, 1], [3, 1, 2], [3, 2])]
    calls += [(color_middle_cycle, (n, r)) for n in (*range(3, 13), 49, 50) for r in (1, 2, 3, 4)]
    calls += [(color_middle_friendship, (n, r)) for n in (0, 1, 2, 3) for r in range(0, 2 * n + 4)]
    calls += [(color_middle_bipartite, (n1, n2, r))
              for n1, n2 in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 1), (2, 1), (0, 2))
              for r in range(0, max(n1, n2) + 3)]
    return calls


def _outcome(fn, args) -> dict:
    try:
        result = fn(*args)
    except ValueError as exc:  # ParameterError, UnsupportedCaseError
        return {"raises": type(exc).__name__, "message": str(exc)}
    if fn is chi_windmill:
        value, claim = result
        return {"value": value, **claim.to_json_dict()}
    return result.to_json_dict()


def record() -> dict:
    return {f"{fn.__name__}{args!r}": _outcome(fn, args) for fn, args in _calls()}


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
