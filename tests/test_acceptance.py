"""Acceptance criteria, one test per criterion.

Each test enforces its stated budget or exact value and prints a PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Expected
values are computed by independent oracles: closed-form label-count
arithmetic for construction sizes, subset enumeration for clique numbers,
networkx for graph6.
"""

import itertools
import json
import random
import time
from math import comb

import networkx as nx

import sfcheck.verify as verify_mod
from sfcheck.cli import main
from sfcheck.construct import DEFAULT_PROFILE, build_F, build_SF
from sfcheck.formats import decode_graph6, encode_graph6
from sfcheck.graphs import COMBINE_OPS, Graph, combine, complement, complete, empty
from sfcheck.report import load_report, strip_volatile
from sfcheck.solve import ORACLE_MAX_N, Stack, _split_clique, oracle_max_clique, verify_witness
from sfcheck.verify import bound_report_from_counts, check_theorem_1_2

from oracles import all_profiles

GENERAL = DEFAULT_PROFILE.replace(base_case="general")


def recount_default_stack(t):
    """Independent recount of DEFAULT-profile SF(t) size from label-count
    arithmetic; never touches the builder."""
    n, m = 6, 5
    ones, twos = 3, 3
    for r in range(4, t + 1):
        a, b = r // 2, r - r // 2
        side = (r - 1) * r
        g_m = (r - 1) * (comb(a, 2) + comb(b, 2))
        h_m = comb(side, 2) - g_m
        g_ones, g_twos = (r - 1) * a, (r - 1) * b
        cross = g_ones * g_ones + g_twos * g_twos
        f_m = g_m + h_m + cross
        f_ones = f_twos = side
        m += f_m + ones * f_twos + twos * f_ones
        n += 2 * side
        ones += f_ones
        twos += f_twos
    return n, m


def test_criterion_1_explicit_base_case(tmp_path):
    start = time.perf_counter()
    report_path = tmp_path / "t11_r3.json"
    code = main(
        ["verify", "--theorem", "1.1", "--r", "3", "--base", "explicit",
         "--report", str(report_path)]
    )
    elapsed = time.perf_counter() - start
    report = load_report(report_path)
    check = report["checks"][0]
    assert code == 0
    assert check["claimed"] == 2
    assert check["computed"] == {"mono_clique": 2}
    assert check["status"] == "CONFIRMED"
    assert check["witness"] == [2, 3]
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: base case CONFIRMED with witness (w, x) in {elapsed:.3f}s")


def test_criterion_2_theorem_sweep(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    start = time.perf_counter()
    main(["sweep", "--t-max", "6", "--report-dir", str(first)])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    expected = [f"t11_r{r}.json" for r in range(3, 7)] + [f"t12_r{r}.json" for r in range(2, 6)]
    assert sorted(p.name for p in first.iterdir()) == sorted(expected)

    verdicts = {}
    for name in expected:
        report = load_report(first / name)  # load re-runs the job and compares every field, the witness included
        check = report["checks"][0]
        target = report["target"]
        lg = build_SF(target["param"], DEFAULT_PROFILE) if target["kind"] == "SF" else build_F(
            target["param"], DEFAULT_PROFILE
        )
        assert lg.graph.n <= 160
        assert verify_witness(lg.graph, tuple(check["witness"]), check["witness_mode"])
        verdicts[name] = check["status"]
    assert set(verdicts.values()) <= {"CONFIRMED", "REFUTED"}

    main(["sweep", "--t-max", "6", "--report-dir", str(second)])
    for name in expected:
        a = json.loads((first / name).read_text())
        b = json.loads((second / name).read_text())
        assert strip_volatile(a) == strip_volatile(b)
    print(f"\nPASS criterion 2: sweep of 8 certificate-backed verdicts in {elapsed:.1f}s, stable across reruns")


def test_criterion_3_base_case_honesty():
    g = build_SF(3, DEFAULT_PROFILE).graph
    tc = check_theorem_1_2(Stack("SF", 3, DEFAULT_PROFILE))
    assert tc.status == "REFUTED"
    assert tc.computed == {"omega": 2, "alpha": 3}
    assert tc.witness_mode == "independent"
    assert len(tc.witness) == 3
    assert verify_witness(g, tc.witness, "independent")
    print(f"\nPASS criterion 3: SF(3) honestly REFUTED with independent set {tc.witness}")


def random_cograph(n, rng):
    """A cograph on n vertices: one vertex, or a random union or join of two
    smaller cographs, with its vertices shuffled."""
    if n == 1:
        return empty(1)
    k = rng.randint(1, n - 1)
    g = combine(random_cograph(k, rng), random_cograph(n - k, rng), rng.choice(COMBINE_OPS))
    order = rng.sample(range(n), n)
    return Graph.from_edges(n, ((order[u], order[v]) for u, v in g.edges()))


def test_criterion_4_oracle_equivalence():
    # The split that gives every stage's optima, against the enumeration
    # oracle, on the graphs it must solve with no search: cographs.
    rng = random.Random(4)
    start = time.perf_counter()
    for _ in range(300):
        n = rng.randint(1, ORACLE_MAX_N)
        g = random_cograph(n, rng)
        for mode, flip, view in (("clique", 0, g), ("independent", -1, complement(g))):
            size, mask, nodes = _split_clique(g, (1 << n) - 1, flip)
            witness = [v for v in range(n) if mask >> v & 1]
            assert size == len(witness) == oracle_max_clique(view), encode_graph6(g)
            assert verify_witness(g, witness, mode)
            assert nodes == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: split equals enumeration on 300 random cographs, both views, in {elapsed:.2f}s")


def test_criterion_5_ramsey_ground_truth():
    verify_mod.confirm_R3.cache_clear()
    start = time.perf_counter()
    assert verify_mod.confirm_R3() is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # Exhaustiveness, recounted here: all 32768 colorings forced.
    pairs = list(itertools.combinations(range(6), 2))
    index = {p: i for i, p in enumerate(pairs)}
    masks = [
        (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
        for a, b, c in itertools.combinations(range(6), 3)
    ]
    forced = sum(
        1 for coloring in range(1 << 15) if any((coloring & m) in (0, m) for m in masks)
    )
    assert forced == 32768

    # Any implication R(3) > n with n >= 6 must carry the contradiction flag;
    # no real graph can produce one, so pass counts no solver can return.
    bound = bound_report_from_counts(3, 6, 2, 2)
    assert bound.implied == "R(3) > 6"
    assert bound.contradiction is not None
    print(f"\nPASS criterion 5: R(3)=6 re-derived over 32768 colorings in {elapsed:.2f}s; contradiction flag guards")


def test_criterion_6_construction_arithmetic():
    for r in range(3, 9):
        assert build_F(r, GENERAL).graph.n == 2 * (r - 1) * r
    for t in range(3, 7):
        n, m = recount_default_stack(t)
        lg = build_SF(t, DEFAULT_PROFILE)
        assert (lg.graph.n, lg.graph.m) == (n, m)
    assert recount_default_stack(4) == (30, 215)
    print("\nPASS criterion 6: F(r) and SF(t) sizes match the independent recount exactly (SF(4) = 30/215)")


def test_criterion_7_format_fidelity():
    for profile in all_profiles():
        for r in range(3, 7):
            g = build_F(r, profile).graph
            assert decode_graph6(encode_graph6(g)) == g
        for t in range(3, 7):
            g = build_SF(t, profile).graph
            assert decode_graph6(encode_graph6(g)) == g

    # Independent-encoder confirmation for K_3.  The confirmation step pins
    # the value to "Bw" ('B' is n=3; triangle bits 111 pad to 111000 = 56,
    # character 'w').  The sometimes-quoted "B~" fails this confirmation:
    # '~' is bit value 63 = 111111, i.e. nonzero padding.
    h = nx.complete_graph(3)
    independent = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
    encoded = encode_graph6(complete(3))
    assert encoded == independent == "Bw"
    assert encoded != "B~"
    # A tolerant decoder still reads "B~" as K_3 because padding is ignored.
    assert decode_graph6("B~") == complete(3)
    print("\nPASS criterion 7: corpus round-trip identity; K_3 encodes to 'Bw' per the independent encoder")
