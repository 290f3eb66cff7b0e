"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS line on
success (run with -s); pytest reports any failure in the usual way.
"""

from condchrom import (
    build,
    check_c3,
    check_conditional,
    chi_r_exact,
    clique_number,
    construct,
    declared_max_degree,
    max_vset_d2r,
    predicted_chi_r,
)
from condchrom.cli import main
from oracles import chromatic_number_bruteforce, random_c2_colorings


def _chi(spec, r):
    g, _ = build(spec)
    res = chi_r_exact(g, r)
    assert res.proven, (spec, r)
    return res.chi_r


def test_criterion_1_windmill_closed_form():
    checked = 0
    for k in (3, 4):
        for n in (1, 2, 3):
            delta = n * (k - 1)
            for r in range(2, delta + 1):
                expected = construct(f"wd:{k},{n}", r).claimed_k
                assert _chi(f"wd:{k},{n}", r) == expected, (k, n, r)
                checked += 1
    print(f"[PASS] criterion 1: Wd(k,n) closed form exact on {checked} (k,n,r) points")


def test_criterion_2_line_windmill_delta():
    for n in (1, 2, 3):
        g, _ = build(f"L(wd:3,{n})")
        assert _chi(f"L(wd:3,{n})", g.max_degree()) == 2 * n + 1
    constructions = 0
    for k in (3, 4):
        for n in (1, 2, 3):
            spec = f"L(wd:{k},{n})"
            claim = construct(spec, declared_max_degree(spec))
            rep = check_conditional(claim.graph, claim.coloring, claim.graph.max_degree())
            assert rep.valid and claim.coloring.colors_used == claim.claimed_k, (k, n)
            constructions += 1
    print(
        "[PASS] criterion 2: chi_Delta(L(Wd(3,n))) = 2n+1 for n in 1..3; "
        f"{constructions} delta constructions valid with exactly z colors"
    )


def test_criterion_3_line_friendship():
    for n in (2, 3):
        g, _ = build(f"L(fr:{n})")
        delta = g.max_degree()
        for r in range(2, delta):
            assert _chi(f"L(fr:{n})", r) == 2 * n, (n, r)
        assert _chi(f"L(fr:{n})", delta) == 2 * n + 1
    # n = 1: L(F_1) = K_3 has Delta = 2, so there is no small-r claim; at
    # r = Delta the claim is proposition 2's 2n+1 = 3, the exact value
    assert _chi("L(fr:1)", 2) == 3
    assert predicted_chi_r("L(fr:1)", 1) is None
    claim = construct("L(fr:1)", 2)
    assert (claim.proposition, claim.claimed_k) == (2, 3)
    print(
        "[PASS] criterion 3: chi_r(L(F_n)) = 2n (r < Delta) and 2n+1 (r = Delta) "
        "for n in {2,3}; n=1 recorded (exact 3 at Delta = 2, no small-r claim)"
    )


def test_criterion_4_middle_multipartite_delta():
    expected = {"1,1,1": 6, "1,2": 4, "2,2": 6, "1,1,2": 8}
    for sizes, value in expected.items():
        spec = f"M(kpart:{sizes})"
        g, _ = build(spec)
        assert _chi(spec, g.max_degree()) == value, sizes
    print(
        "[PASS] criterion 4: chi_Delta(M(K_partition)) = k+l on "
        "[1,1,1], [1,2], [2,2], [1,1,2]"
    )


def test_criterion_5_middle_cycle():
    for n in (4, 5, 6, 7):
        assert _chi(f"M(cyc:{n})", 2) == 3
        assert _chi(f"M(cyc:{n})", 3) == 4
    verified = 0
    for n in range(4, 51):
        for r in (2, 3):
            claim = construct(f"M(cyc:{n})", r)
            assert check_conditional(claim.graph, claim.coloring, r).valid, (n, r)
            verified += 1
    print(
        "[PASS] criterion 5: chi_2(M(C_n)) = 3, chi_3(M(C_n)) = 4 for n in 4..7; "
        f"parity formulas verifier-valid on {verified} instances up to n = 50"
    )


def test_criterion_6_middle_friendship():
    assert [_chi("M(fr:1)", r) for r in (2, 3, 4)] == [3, 4, 6]
    assert [_chi("M(fr:2)", r) for r in (2, 3, 4, 5, 6)] == [5, 5, 5, 6, 8]
    print(
        "[PASS] criterion 6: chi_r(M(F_1)) = (3,4,6), "
        "chi_r(M(F_2)) = (5,5,5,6,8) exactly"
    )


def test_criterion_7_middle_bipartite():
    assert [_chi("M(kpart:1,2)", r) for r in (2, 3)] == [3, 4]
    assert [_chi("M(kpart:2,2)", r) for r in (1, 2, 3)] == [3, 3, 4]
    print(
        "[PASS] criterion 7: chi_r(M(K_{1,2})) = (3,4) at r = (2,3); "
        "chi_r(M(K_{2,2})) = (3,3,4) at r = (1,2,3)"
    )


def test_criterion_8_vset_certificates_sound(corpus):
    checked = 0
    for spec, g in corpus:
        for r in (2, g.max_degree()):
            rep = max_vset_d2r(g, r)
            assert rep.value <= chi_r_exact(g, r).chi_r, (spec, r)
            checked += 1
    print(f"[PASS] criterion 8: vset-d2r certificate <= chi_r on {checked} checks")


def test_criterion_9_c2_implies_c1_under_c3(corpus):
    samples = 0
    for spec, g in corpus:
        for r in (2, g.max_degree()):
            ok, _ = check_c3(g, r)
            if not ok:
                continue
            for c in random_c2_colorings(g, r, k=g.n, count=100, seed=11):
                rep = check_conditional(g, c, r)
                assert not rep.c2_violations, (spec, r)
                assert not rep.c1_violations, (spec, r)
                samples += 1
    assert samples > 0
    print(
        "[PASS] criterion 9: C2-satisfying assignments on C3 instances were "
        f"all proper ({samples} samples, 0 violations)"
    )


def test_criterion_10_cited_bound_invariants(corpus):
    for spec, g in corpus:
        delta = g.max_degree()
        omega = clique_number(g).value
        values = [chi_r_exact(g, r).chi_r for r in range(1, delta + 1)]
        assert values == sorted(values), spec
        for r, chi in enumerate(values, start=1):
            assert omega <= chi, (spec, r)
            assert chi >= min(r, delta) + 1, (spec, r)
    print(
        "[PASS] criterion 10: omega <= chi_r1 <= chi_r2 and "
        "chi_r >= min{r,Delta}+1 across the exact-solved corpus"
    )


def test_criterion_11_chi1_matches_chromatic_number(corpus):
    checked = 0
    for spec, g in corpus:
        if g.n > 12:
            continue
        assert chi_r_exact(g, 1).chi_r == chromatic_number_bruteforce(g), spec
        checked += 1
    print(
        f"[PASS] criterion 11: chi_1 equals independent chromatic number on "
        f"{checked} corpus graphs"
    )


def test_criterion_12_table_deterministic(capsys):
    code1 = main(["table", "all"])
    out1 = capsys.readouterr().out
    code2 = main(["table", "all"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) > 50
    print("[PASS] criterion 12: table output byte-identical across runs, exit 0")
