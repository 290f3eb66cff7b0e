import pytest

from condchrom import (
    build,
    check_conditional,
    chi_r_exact,
    chi_windmill,
    color_line_friendship,
    color_line_windmill_delta,
    color_middle_bipartite,
    color_middle_cycle,
    color_middle_friendship,
    color_middle_multipartite_delta,
    construct,
    predicted_chi_r,
)
from condchrom import families
from condchrom.constructions import _ROW, _numbered, covered_levels
from condchrom.errors import ParameterError, UnsupportedCaseError
from conftest import CORPUS_SPECS


def assert_claim_valid(claim, r):
    rep = check_conditional(claim.graph, claim.coloring, r)
    assert rep.valid, (claim.proposition, claim.case, r, rep)
    assert claim.coloring.colors_used == claim.claimed_k


def test_windmill_formula_values():
    assert chi_windmill(3, 2, 2)[0] == 3
    assert chi_windmill(4, 2, 3)[0] == 4
    assert chi_windmill(4, 2, 4)[0] == 5  # r >= k: min{r, n(k-1)} + 1
    assert chi_windmill(3, 2, 9)[0] == 5  # capped at Delta = 4
    with pytest.raises(ParameterError):
        chi_windmill(2, 1, 2)
    with pytest.raises(ParameterError):
        chi_windmill(3, 1, 1)


def test_windmill_witnesses_valid():
    for k in (3, 4, 5):
        for n in (1, 2, 3):
            delta = n * (k - 1)
            for r in range(2, delta + 1):
                value, claim = chi_windmill(k, n, r)
                assert_claim_valid(claim, r)


def test_line_windmill_delta():
    claim = color_line_windmill_delta(3, 2)
    assert claim.claimed_k == 5  # z = n(k-1) + C(k-1,2)
    assert_claim_valid(claim, claim.graph.max_degree())
    # the first z positions keep their own index as color
    for i in range(1, 6):
        assert claim.paper_color(i) == i
    claim = color_line_windmill_delta(4, 3)
    assert claim.claimed_k == 12
    assert_claim_valid(claim, claim.graph.max_degree())


def test_line_friendship():
    claim = color_line_friendship(2, 3)
    assert claim.claimed_k == 4  # 2n below Delta
    assert_claim_valid(claim, 3)
    # fidelity: v_{2n+1}..v_{3n-1} reuse color 2n, v_{3n} reuses color 1
    assert claim.paper_color(5) == 4
    assert claim.paper_color(6) == 1
    claim = color_line_friendship(2, 6)  # r = Delta = 2n+2... capped
    assert claim.claimed_k == 5  # 2n+1
    assert_claim_valid(claim, claim.graph.max_degree())
    with pytest.raises(ParameterError):
        color_line_friendship(1, 2)


def test_middle_multipartite_delta():
    for sizes, expect in (([1, 1, 1], 6), ([1, 2], 4), ([2, 2], 6), ([1, 1, 2], 8),
                          ([2, 1, 1], 8), ([3, 1, 2], 14), ([3, 2], 8)):
        claim = color_middle_multipartite_delta(sizes)
        assert claim.claimed_k == expect  # k + l
        assert_claim_valid(claim, claim.graph.max_degree())
    with pytest.raises(ParameterError):
        color_middle_multipartite_delta([3])


def test_middle_cycle():
    for n in range(4, 13):
        for r in (2, 3):
            claim = color_middle_cycle(n, r)
            assert claim.claimed_k == r + 1
            assert_claim_valid(claim, r)
    with pytest.raises(ParameterError):
        color_middle_cycle(3, 2)
    with pytest.raises(UnsupportedCaseError):
        color_middle_cycle(5, 4)


def test_middle_cycle_large_instances():
    # the formulas stay valid far beyond solver range
    for n in (49, 50):
        for r in (2, 3):
            assert_claim_valid(color_middle_cycle(n, r), r)


def test_middle_friendship_cases():
    for n in (2, 3):
        for r in range(2, 2 * n + 1):
            claim = color_middle_friendship(n, r)
            assert claim.claimed_k == 2 * n + 1
            assert_claim_valid(claim, r)
        claim = color_middle_friendship(n, 2 * n + 1)
        assert claim.claimed_k == 2 * n + 2
        assert_claim_valid(claim, 2 * n + 1)
        claim = color_middle_friendship(n, 2 * n + 2)
        assert claim.claimed_k == 2 * n + 4
        assert_claim_valid(claim, 2 * n + 2)


def test_middle_friendship_fidelity_pins():
    # case 1 at n=2: v_{2n+2} and v_{2n+3} carry the literal constants 3, 4
    claim = color_middle_friendship(2, 2)
    assert claim.paper_color(6) == 3
    assert claim.paper_color(7) == 4
    # outer vertices alternate colors 1 and 2
    assert [claim.paper_color(i) for i in range(8, 10)] == [1, 2]
    # edge-origin tail reuses color 2n+1
    assert claim.paper_color(10) == 5
    assert claim.paper_color(11) == 5


def test_middle_friendship_n1_anomaly():
    """At n=1 the printed small-r constants 3 and 4 collide with 2n+1 and
    2n+2, producing adjacent equal colors. Reproduced as published; the
    verifier reports the clash and the exact solver still gives 2n+1."""
    for r in (2, 3):
        claim = color_middle_friendship(1, r)
        rep = check_conditional(claim.graph, claim.coloring, r)
        assert not rep.valid
        assert rep.c1_violations  # a genuine C1 clash, not a C2 shortfall
    g, _ = build("M(fr:1)")
    assert chi_r_exact(g, 2).chi_r == 3  # the claimed value is still right
    assert chi_r_exact(g, 3).chi_r == 4
    # the r = Delta case is unaffected at n = 1
    assert_claim_valid(color_middle_friendship(1, 4), 4)


def test_middle_bipartite():
    for (n1, n2) in ((1, 2), (2, 2), (2, 3), (3, 3)):
        for r in range(1, n2 + 1):
            claim = color_middle_bipartite(n1, n2, r)
            assert claim.claimed_k == n2 + 1
            assert_claim_valid(claim, r)
        claim = color_middle_bipartite(n1, n2, n2 + 1)
        assert claim.claimed_k == n2 + 2
        assert_claim_valid(claim, n2 + 1)
    assert color_middle_bipartite(3, 1, 1).claimed_k == 4  # sizes auto-sorted
    with pytest.raises(UnsupportedCaseError):
        color_middle_bipartite(2, 2, 4)


def _constructor_calls():
    """(constructor, args, proposition, spec, r) over each public
    constructor's valid parameters and r in 1..Delta; r is None where the
    constructor colours at r = Delta."""
    calls = [(lambda k, n, r: chi_windmill(k, n, r)[1], (k, n, r), 1, f"wd:{k},{n}", r)
             for k in (3, 4) for n in (1, 2) for r in range(2, n * (k - 1) + 1)]
    calls += [(color_line_windmill_delta, (k, n), 2, f"L(wd:{k},{n})", None)
              for k in (3, 4) for n in (1, 2)]
    calls += [(color_line_friendship, (n, r), 3, f"L(fr:{n})", r)
              for n in (2, 3) for r in range(2, 2 * n + 1)]
    calls += [(color_middle_multipartite_delta, (s,), 4, f"M(kpart:{','.join(map(str, s))})",
               None) for s in ([1, 1, 1], [1, 2], [2, 2], [3, 1, 2])]
    calls += [(color_middle_cycle, (n, r), 5, f"M(cyc:{n})", r)
              for n in (4, 5, 6, 7) for r in range(1, 5)]
    calls += [(color_middle_friendship, (n, r), 6, f"M(fr:{n})", r)
              for n in (1, 2, 3) for r in range(1, 2 * n + 3)]
    calls += [(color_middle_bipartite, (n1, n2, r), 7, f"M(kpart:{min(n1, n2)},{max(n1, n2)})", r)
              for n1, n2 in ((1, 2), (2, 2), (3, 1), (2, 3)) for r in range(1, n1 + n2 + 1)]
    return calls


def test_constructors_claim_only_where_their_row_covers():
    wrong, messages = [], []
    for fn, args, prop, spec, r in _constructor_calls():
        delta = build(spec)[0].max_degree()
        covered = (delta if r is None else r) in covered_levels(spec, prop)
        try:
            claim = fn(*args)
        except UnsupportedCaseError as exc:
            claimed = False
            messages.append(str(exc))
        else:
            claimed = True
            assert (claim.proposition, claim.provenance.spec) == (prop, spec), args
        if claimed != covered:
            wrong.append((prop, args))
    assert not wrong
    # The one refusal names the proposition, the spec and the r its cases cover.
    assert all(m.startswith("proposition ") and " only at " in m for m in messages), messages


def test_construct_dispatcher():
    assert construct("wd:3,2", 2).proposition == 1
    assert construct("L(wd:3,2)", 4).proposition == 2
    assert construct("L(fr:2)", 3).proposition == 3
    assert construct("M(kpart:1,1,1)", 4).proposition == 4
    assert construct("M(cyc:6)", 2).proposition == 5
    assert construct("M(fr:2)", 3).proposition == 6
    assert construct("M(kpart:2,3)", 2).proposition == 7
    with pytest.raises(UnsupportedCaseError, match="r = Delta"):
        construct("L(wd:4,2)", 2)
    with pytest.raises(UnsupportedCaseError):
        construct("cyc:5", 2)
    with pytest.raises(UnsupportedCaseError):
        construct("M(kpart:1,1,1)", 2)
    with pytest.raises(UnsupportedCaseError):
        construct("M(fr:2)", 1)  # the M(F_n) cases start at r = 2


def test_predicted_chi_r_examples():
    assert predicted_chi_r("wd:3,2", 2) == 3
    assert predicted_chi_r("wd:4,3", 9) == 10  # min{9, 9} + 1
    assert predicted_chi_r("L(wd:3,2)", 5) == 5
    assert predicted_chi_r("L(fr:3)", 2) == 6
    assert predicted_chi_r("M(kpart:1,2)", 2) == 3
    assert predicted_chi_r("M(kpart:1,2)", 3) == 4
    assert predicted_chi_r("M(kpart:1,1,2)", 6) == 8  # Delta = 6
    assert predicted_chi_r("M(cyc:7)", 3) == 4
    assert predicted_chi_r("M(fr:2)", 6) == 8


def test_predicted_chi_r_never_extrapolates():
    assert predicted_chi_r("M(cyc:5)", 4) is None
    assert predicted_chi_r("M(cyc:3)", 2) is None
    assert predicted_chi_r("wd:3,2", 1) is None
    assert predicted_chi_r("L(fr:1)", 1) is None  # no small-r claim at n=1
    assert predicted_chi_r("M(kpart:1,1,2)", 4) is None  # below Delta = 6
    assert predicted_chi_r("L(wd:4,2)", 2) is None
    assert predicted_chi_r("M(kpart:1,1,2)", 2) is None
    assert predicted_chi_r("cyc:6", 2) is None
    assert predicted_chi_r("M(fr:2)", 1) is None
    assert predicted_chi_r("M(wd:3,2)", 1) is None
    # specs the builders reject raise, as construct and build do
    for spec, r in (("wd:3,0", 2), ("fr:0", 5), ("M(kpart:0,2)", 1),
                    ("L(wd:3,0)", 2), ("cyc:2", 2), ("M(cyc:2)", 2), ("kpart:3", 1),
                    ("L(L(kpart:1,1))", 1)):
        with pytest.raises(ParameterError):
            predicted_chi_r(spec, r)
        with pytest.raises(ParameterError):
            construct(spec, r)


def test_predictions_match_solver_on_corpus(corpus):
    for spec, g in corpus:
        for r in range(2, g.max_degree() + 1):
            pred = predicted_chi_r(spec, r)
            if pred is None:
                continue
            assert pred == chi_r_exact(g, r).chi_r, (spec, r)


@pytest.mark.parametrize(
    "spec",
    CORPUS_SPECS
    + ["wd:5,2", "L(wd:4,3)", "M(cyc:3)", "M(wd:3,2)", "M(wd:4,2)", "M(kpart:3,1)"]
    + ["M(kpart:2,1,1)", "M(kpart:1,2,1)", "M(kpart:3,1,2)"],
)
def test_construct_covers_exactly_the_predicted_cases(spec):
    g, prov = build(spec)
    delta = g.max_degree()
    for r in range(1, delta + 3):
        pred = predicted_chi_r(spec, r)
        try:
            claim = construct(spec, r)
        except (ParameterError, UnsupportedCaseError):
            assert pred is None, (spec, r)
            continue
        assert claim.claimed_k == pred, (spec, r)
        assert r in claim.r_values or min(r, delta) in claim.r_values, (spec, r)
        assert claim.graph == g, (spec, r)  # the graph `generate` emits
        assert claim.provenance.spec == prov.spec, (spec, r)
        assert claim.provenance.origin == prov.origin, (spec, r)


def test_unstated_specs_are_validated_without_building(monkeypatch):
    build_calls = []
    monkeypatch.setattr(families, "build", lambda spec: build_calls.append(spec))
    assert predicted_chi_r("M(wd:4,2)", 1) is None
    assert covered_levels("L(cyc:5)", 2) == []
    with pytest.raises(ParameterError):
        predicted_chi_r("M(wd:4,0)", 1)
    with pytest.raises(ParameterError):
        covered_levels("L(cyc:2)", 2)
    # Stated at r = 2 by cases that read no Delta, but over the vertex limit,
    # where build and construct refuse them.
    for spec in ("wd:3,99999999", "M(cyc:99999999)"):
        with pytest.raises(ParameterError, match="the limits are"):
            predicted_chi_r(spec, 2)
    with pytest.raises(ParameterError, match="the limits are"):
        covered_levels("L(cyc:99999999)", 2)
    assert build_calls == []


def test_construct_builds_the_inner_graph_once(monkeypatch):
    built_specs = []

    def build_and_record(spec, build=families.build):
        built_specs.append(str(spec))
        return build(spec)

    monkeypatch.setattr(families, "build", build_and_record)
    claim = construct("L(fr:3)", 2)
    assert claim.provenance.spec == "L(fr:3)"
    assert built_specs.count("fr:3") == 1
    assert built_specs.count("L(fr:3)") == 1


def test_numbering_must_permute_the_vertices():
    built = build("M(cyc:5)")
    _numbered(built, _ROW[5], 5)
    for n in (4, 6):
        with pytest.raises(ValueError):
            _numbered(built, _ROW[5], n)
    with pytest.raises(ValueError):
        _numbered(build("M(kpart:1,2,1)"), _ROW[4], (1, 1, 2))
