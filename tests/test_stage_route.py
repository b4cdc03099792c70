"""The stage route: omega and alpha of SF(t) composed from per-stage solves.

The monolithic solve of the dense SF(t) is the reference, for the numbers,
for the stack's closed-form counts and for its witness check.  The closed
forms of the per-stage numbers are a test oracle only; no verdict rests on
them.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfcheck
from sfcheck import cli as cli_module
from sfcheck import construct as construct_module
from sfcheck import solve as solve_module
from sfcheck.cli import main
from sfcheck.construct import DEFAULT_PROFILE, LABELS, InterpretationProfile, build_F, build_SF
from sfcheck.graphs import Graph, combine, complete, empty, product
from sfcheck.report import load_report, report_to_json, run_verification, strip_volatile, verify_report, write_report
from sfcheck.solve import (
    Prefix,
    Stack,
    max_clique,
    max_independent_set,
    stage_solve,
    verify_witness,
)
from sfcheck.verify import CLAIMS, check_theorem_1_1, check_theorem_1_2

from oracles import (
    all_profiles,
    block_optima,
    class_masks,
    class_split,
    clear_memos,
    dense_first_part,
    family_representatives,
    flat_optima,
    label_counts,
    max_mono_clique,
    pairwise_composition,
    prefixes_built,
    layout_cuts,
    listed_members,
    reference_stage_solve,
    stack_labels,
    stack_parts,
    stack_stages,
)


def assert_route_matches_monolithic(t, profile=DEFAULT_PROFILE):
    stack = Stack("SF", t, profile)
    omega, alpha = stage_solve(stack)
    g = build_SF(t, profile).graph
    assert (omega.size, alpha.size) == (max_clique(g).size, max_independent_set(g).size)
    clique, independent = stack.members(omega.masks, "clique"), stack.members(alpha.masks, "independent")
    assert verify_witness(g, clique, "clique") and verify_witness(g, independent, "independent")
    assert len(clique) == omega.size and len(independent) == alpha.size


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_route_matches_monolithic_solve(profile):
    for t in range(3, 11):
        assert_route_matches_monolithic(t, profile)


@pytest.mark.parametrize("t", range(11, 17))
def test_route_matches_monolithic_solve_default_profile(t):
    assert_route_matches_monolithic(t)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stack_counts_match_the_dense_build(profile):
    for t in (*range(3, 13), 16):
        stack, lg = Stack("SF", t, profile), build_SF(t, profile)
        assert (stack.n, stack.m, stack.label_counts) == (lg.graph.n, lg.graph.m, label_counts(lg)), t
        assert stack_labels(stack) == list(lg.labels)


def over_copies(s):
    """``s.optima`` with each block mask written out over the copies it
    fills, numbered within its part: every copy for an independent set of
    G (part 0 in "independent") and a clique of H (part 1 in "clique"),
    copy 0 alone for the rest.  The base path is one copy."""
    b = s.block_n
    out = {}
    for mode, (sizes, masks) in s.optima.items():
        fills = (mode == "independent", mode == "clique")
        masks = tuple(tuple(sum(mask << c * b for c in range(s.k if fill else 1)) for mask in part) for part, fill in zip(masks, fills))
        out[mode] = (sizes, masks)
    return out


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stages_match_the_dense_build(profile):
    """Each part-native stage, its H side read by duality, against the
    dense F(r): n, m, label counts, every vertex's label, and each part's
    six optima, sizes and witness masks written out over the copies they
    fill and numbered within the part, as splits of that part of the dense
    graph give them."""
    for r in range(3, 17):
        stack, lg = Stack("F", r, profile), build_F(r, profile)
        assert (stack.n, stack.m, stack.label_counts) == (lg.graph.n, lg.graph.m, label_counts(lg)), r
        assert stack_labels(stack) == list(lg.labels), r
        assert over_copies(stack_stages(stack)[0]) == {mode: flat_optima(parts) for mode, parts in dense_part_optima(lg, layout_cuts("F", r, profile)).items()}, r


def test_an_h_side_shares_its_g_sides_results():
    """An H side's optima are its G side's masks, not copies: its whole,
    label-1 and label-2 optima are G's whole, label-2 and label-1 optima of
    the other mode."""
    for profile in family_representatives():
        for r in range(3, 9):
            s = solve_module.stage(r, profile)
            if not s.paired:
                assert [len(masks) for *_, masks in s.optima.values()] == [1, 1]
                continue
            for mode, other in (("clique", "independent"), ("independent", "clique")):
                # Sizes, then masks: G's of the other mode, part 0, and H's, part 1.
                for g, h in zip(s.optima[other], s.optima[mode]):
                    (whole, one, two), ours = g[0], h[1]
                    assert len(ours) == 3 and all(a is b for a, b in zip(ours, (whole, two, one))), (r, mode)


def test_a_stage_keeps_its_answers_not_its_block():
    """Every stage memo entry keeps only its answers: counts, each part as
    (first vertex, inverse, odd, even) and per mode (sizes, masks) with
    three queries per part, so no graph and no tuple of
    one entry per vertex.  A paired stage of 2r(r-1) vertices has a block
    of r vertices and its side's r-1 copies; the base path is six
    vertices, one copy."""
    fields = {"block_n", "k", "paired", "parts", "n", "m", "label_counts", "optima"}
    for profile in family_representatives():
        for r in range(3, 13):
            s = solve_module.stage(r, profile)
            assert set(vars(s)) == fields and not any(isinstance(value, Graph) for value in vars(s).values()), (profile, r)
            assert [len(part) for part in s.parts] == [4] * (1 + s.paired) and s.label_counts.keys() == {1, 2}
            for sizes, masks in s.optima.values():
                assert [len(part) for part in (*sizes, *masks)] == [3] * 2 * len(s.parts), (profile, r)
                assert all(type(value) is int for part in (*sizes, *masks) for value in part), (profile, r)
            assert (s.n, s.block_n, s.k) == ((2 * r * (r - 1), r, r - 1) if s.paired else (6, 6, 1))


def test_optima_are_block_masks():
    """A stage keeps each part optimum as a mask over its block alone, and
    no mask of its copies."""
    for profile in family_representatives():
        for r in range(3, 13):
            s = solve_module.stage(r, profile)
            assert not hasattr(s, "repunit"), (profile, r)
            assert all(0 <= mask < 1 << s.block_n for *_, masks in s.optima.values() for part in masks for mask in part), (profile, r)


def test_a_warm_rerun_checks_no_optimum_again(monkeypatch):
    """Each optimum is checked once, where its stage finds it: with the
    stages of SF(21) memoized, re-running T1.2 at r = 20 and loading its
    report make no ``_holds`` call."""
    report, calls, holds = run_verification("1.2", 20), [], solve_module._holds
    monkeypatch.setattr(solve_module, "_holds", lambda *args: calls.append(args) or holds(*args))
    assert run_verification("1.2", 20)["checks"] == report["checks"] and verify_report(report) == []
    assert calls == []


def stage_sizes(r, profile):
    """Per mode, per part, the sizes of F(r)'s whole, label-1 and label-2
    optima from ``block_optima``: a clique lies in one copy, an
    independent set of G fills all k = r - 1, and an H side's optima are
    G's of the other mode with the labels swapped."""
    w, w1, w2, a, a1, a2 = block_optima(r, profile)
    if r == 3 and profile.base_case == "explicit_path":
        return {"clique": ((w, w1, w2),), "independent": ((a, a1, a2),)}
    k = r - 1
    return {"clique": ((w, w1, w2), (k * a, k * a2, k * a1)), "independent": ((k * a, k * a1, k * a2), (w, w2, w1))}


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stage_optima_follow_the_block_shapes(profile):
    for r in range(3, 201):
        optima = stack_stages(Stack("F", r, profile))[0].optima
        assert {mode: sizes for mode, (sizes, _) in optima.items()} == stage_sizes(r, profile), r


@pytest.mark.parametrize("t", [100, 200, 400])
def test_stage_solve_follows_the_closed_forms_past_the_loader_limit(t):
    """At the default profile and even t, omega(SF(t)) = 2(t - 1) and
    alpha(SF(t)) = 3t^2/4 - 5."""
    omega, alpha = stage_solve(Stack("SF", t, DEFAULT_PROFILE))
    assert (omega.size, alpha.size) == (2 * (t - 1), 3 * t * t // 4 - 5)


def test_block_copies_match_the_dense_side():
    """k shifted copies of the block a stage is built from, one copy of the
    G side, are r-1 product copies of G_z, built by the graph operators,
    and the first part of the dense ``build_F(r)``, rows and labels, under
    every profile (the fact about ``graphs.product`` that the copy rule
    rests on), and the stage's n, m and label counts are ``build_F``'s."""
    for profile in all_profiles():
        for r in range(4, 41):
            s, (side, labels, paired) = solve_module.stage(r, profile), dense_first_part(r, profile)
            _, rows, block_labels, _ = construct_module.stage_block(r, profile)
            product_side = product(empty(r - 1), combine(complete(r // 2), complete(r - r // 2), profile.sum), profile.prod)
            b = s.block_n
            rows = tuple(row << c * b for c in range(s.k) for row in rows)
            assert (s.k * b, rows, block_labels * s.k, s.paired) == (side.n, side.rows, labels, paired) == (product_side.n, product_side.rows, labels, True), (profile, r)
            assert s.parts[0][2:] == class_masks(block_labels), (profile, r)
            lg = build_F(r, profile)
            assert (s.n, s.m, s.label_counts) == (lg.graph.n, lg.graph.m, label_counts(lg)), (profile, r)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_copy_rule_optima_match_a_split_of_the_dense_side(profile):
    """The six optima that the copy rule reads from a block, sizes and
    witness masks written out over the copies they fill, are those of
    splits of the whole G side of the dense ``build_F(r)``, and H's are
    G's by duality."""
    for r in range(4, 21):
        s, (side, labels, _) = solve_module.stage(r, profile), dense_first_part(r, profile)
        full = (1 << side.n) - 1
        dense = [class_split(side, within, flip) for flip in (0, -1) for within in (full, *class_masks(labels))]
        for mode, (g, h) in (("clique", (dense[:3], dense[3:])), ("independent", (dense[3:], dense[:3]))):
            assert over_copies(s)[mode] == flat_optima([g, (h[0], h[2], h[1])]), (r, mode)


@st.composite
def stack_witnesses(draw):
    """(t, profile, mode, masks): any set of SF(t)'s parts, each with one
    of its whole, label-1 and label-2 optima in ``mode``, so that parts
    meet within a stage and across stages, in every pair of parities."""
    t = draw(st.integers(3, 7))
    profile = draw(st.sampled_from(family_representatives()))
    mode = draw(st.sampled_from(["clique", "independent"]))
    parts = stack_parts(Stack("SF", t, profile))
    masks = {}
    for i in draw(st.lists(st.integers(0, len(parts) - 1), min_size=1, unique=True)):
        _, s, inverse, *_ = parts[i]
        masks[parts[i]] = s.optima[mode][1][1 if inverse else 0][draw(st.integers(0, 2))]
    return t, profile, mode, masks


@settings(max_examples=300, deadline=None)
@given(stack_witnesses())
def test_stack_witness_check_matches_the_dense_one(case):
    """``Stack.holds`` on part optima: the dense check's verdict on the
    vertices they stand for, which ``Stack.members`` lists where it holds."""
    t, profile, mode, masks = case
    stack, members = Stack("SF", t, profile), listed_members(masks, mode)
    assert stack.holds(masks, mode) == verify_witness(build_SF(t, profile).graph, members, mode)
    if stack.holds(masks, mode):
        assert stack.members(masks, mode) == members


# SF(5) under the default profile: the base path is part 0 (0..5), F(4)'s G
# side part 1 (6..17), three copies of a block K_2 + K_2 (labels 1, 1, 2,
# 2), and its H side part 2 (18..29).  A block mask fills every copy as an
# independent set of G or a clique of H, and copy 0 alone otherwise.  Each
# case names its parts by index; the witness is keyed by the parts.
@pytest.mark.parametrize(
    "masks, mode, members",
    [
        ({1: 0b0011}, "clique", [6, 7]),
        ({1: 0b0101}, "independent", [6, 8, 10, 12, 14, 16]),
        ({2: 0b0101}, "clique", [18, 20, 22, 24, 26, 28]),
        ({2: 0b0011}, "independent", [18, 19]),
        ({1: 0b0001, 2: 0b1100}, "independent", [6, 10, 14, 20, 21]),
    ],
    ids=["G clique", "G independent set", "H clique", "H independent set", "odd independent sets of G and of H"],
)
def test_members_lists_each_mask_over_the_copies_it_fills(masks, mode, members):
    stack, g = Stack("SF", 5, DEFAULT_PROFILE), build_SF(5).graph
    masks = {stack_parts(stack)[i]: mask for i, mask in masks.items()}
    assert stack.members(masks, mode) == listed_members(masks, mode) == tuple(members)
    assert stack.holds(masks, mode) and verify_witness(g, members, mode)


def mask_cases(stack):
    """Per case, (masks, mode) on ``stack``, SF(5), from its stages' own
    optima.  Stage 4's G side, part g, is three copies of a four-vertex
    block, its H side is part h, and the base path is part 0.  The last
    five cases meet several parts, for the parity rule."""
    parts, stages = stack_parts(stack), stack_stages(stack)
    path, g, h = parts[0], *(part for part in parts if part[1] is stages[1])
    s = stages[1]
    # Per mode, G's and H's whole, label-1 and label-2 optima, and the base path's.
    (gc, hc), (gi, hi) = (s.optima[mode][1] for mode in ("clique", "independent"))
    path_masks = stages[0].optima["clique"][1][0]
    return {
        "G clique": ({g: gc[0]}, "clique"),
        "G independent set over every copy": ({g: gi[0]}, "independent"),
        "H clique over every copy": ({h: hc[0]}, "clique"),
        "H independent set": ({h: hi[0]}, "independent"),
        "odd clique of G, even clique of H": ({g: gc[1], h: hc[2]}, "clique"),
        "odd cliques of G and of H": ({g: gc[1], h: hc[1]}, "clique"),
        "cliques of three parts": ({path: path_masks[1], g: gc[2], h: hc[1]}, "clique"),
        "odd independent sets of G and of H": ({g: gi[1], h: hi[1]}, "independent"),
        "odd independent set of G, even of H": ({g: gi[1], h: hi[2]}, "independent"),
    }


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_mask_check_matches_the_dense_one(profile):
    """``Stack.holds`` passes part optima exactly where the vertices they
    list are a clique or an independent set of the dense SF(5)."""
    stack, g = Stack("SF", 5, profile), build_SF(5, profile).graph
    for case, (masks, mode) in mask_cases(stack).items():
        assert stack.holds(masks, mode) == verify_witness(g, listed_members(masks, mode), mode), case


def test_members_refuses_a_valid_set_the_route_does_not_compose():
    """A clique that is no optimum, G's less its lowest vertex, is refused
    though the dense check passes it."""
    stack = Stack("SF", 5, DEFAULT_PROFILE)
    masks, mode = mask_cases(stack)["G clique"]
    less = {part: mask & mask - 1 for part, mask in masks.items()}
    assert verify_witness(build_SF(5).graph, listed_members(less, mode), mode)
    with pytest.raises(AssertionError, match="invalid clique witness"):
        stack.members(less, mode)


@pytest.mark.parametrize("members", [[0, 0], [-1], [30], [True]], ids=["repeated", "negative", "n", "bool"])
def test_stack_witness_check_refuses_what_the_dense_one_does(members):
    """A T1.2 r = 3 report, on SF(4), whose witness the dense check
    refuses, or whose witness mode it does not know, does not load."""
    report, g = run_verification("1.2", 3), build_SF(4).graph
    mode = report["checks"][0]["witness_mode"]
    with pytest.raises(ValueError):
        verify_witness(g, members, mode)
    with pytest.raises(ValueError, match="unknown witness mode"):
        verify_witness(g, [], "path")
    for field, value in (("witness", members), ("witness_mode", "path")):
        forged = json.loads(report_to_json(report))
        forged["checks"][0][field] = value
        assert verify_report(forged), field


def dense_part_optima(lg, cuts):
    """Per mode, each part's whole, label-1 and label-2 optima, numbered
    within the part, each from a split of its own set in the dense build
    ``lg``, whose parts ``cuts`` separates."""
    g, classes = lg.graph, class_masks(lg.labels)
    bounds = [0, *cuts, g.n]
    optima = {"clique": [], "independent": []}
    for lo, hi in zip(bounds, bounds[1:]):
        part = (1 << hi) - (1 << lo)
        solves = [class_split(g, part & within, flip) for flip in (0, -1) for within in (part, *classes)]
        solves = [(size, mask >> lo) for size, mask in solves]
        optima["clique"].append(tuple(solves[:3]))
        optima["independent"].append(tuple(solves[3:]))
    return optima


def stage_numbers(lg):
    """[omega, omega_1, omega_2, alpha, alpha_1, alpha_2] of one stage; _1
    and _2 are its label-1 and label-2 classes.  Each is a split of its
    own set in the whole stage."""
    full = (1 << lg.graph.n) - 1
    return [class_split(lg.graph, within, flip)[0] for flip in (0, -1) for within in (full, *class_masks(lg.labels))]


def closed_form(profile, r):
    """The per-stage numbers of F(r), r >= 4, by profile class."""
    half = r // 2
    if profile.prod == "tensor":
        one, two = (r - 1) * (r - half), (r - 1) * half
        return [r * (r - 1), one, two, r * (r - 1), two + 1, one + 1]
    whole = 2 * (r - 1) if profile.sum == "disjoint_union" else (3 * r - 1) // 2
    return [whole, r - 1, r - 1, whole, (3 * r - 1) // 2, (3 * r - 2) // 2]


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stage_numbers_follow_closed_forms(profile):
    for r in range(4, 11):
        assert stage_numbers(build_F(r, profile)) == closed_form(profile, r)


@pytest.mark.parametrize(
    "sum_, prod", [("disjoint_union", "lexicographic"), ("join", "cartesian"), ("join", "tensor")]
)
def test_stage_numbers_follow_closed_forms_to_20(sum_, prod):
    profile = InterpretationProfile(sum=sum_, prod=prod)
    for r in range(11, 21):
        assert stage_numbers(build_F(r, profile)) == closed_form(profile, r)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_theorem_1_1_reads_the_stage_as_the_whole_graph_is_split(profile):
    """T1.1 takes its single-label clique from the stage's part optima;
    splitting each label class of the whole F(r) gives the same size and
    witness."""
    for r in range(3, 17):
        tc = check_theorem_1_1(Stack("F", r, profile))
        lg = build_F(r, profile)
        whole = max_mono_clique(lg.graph, lg.labels)
        assert (tc["computed"]["mono_clique"], tc["witness"]) == (whole.size, list(whole.witness)), r


def test_profiles_that_differ_only_in_y_label_share_all_but_the_base_path():
    one, two = (stack_stages(Stack("SF", 5, InterpretationProfile(y_label=y))) for y in LABELS)
    assert one[0] is not two[0] and one[0].parts != two[0].parts
    assert one[1:] == two[1:]
    assert all(a is b for a, b in zip(one[1:], two[1:]))
    general = [stack_stages(Stack("F", 3, InterpretationProfile(base_case="general", y_label=y))) for y in LABELS]
    assert general[0][0] is general[1][0]


class StandIn:
    """A stand-in stage, keyed by identity as a stage is, so that its parts
    can key a witness."""

    def __init__(self, **fields):
        vars(self).update(fields)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(*[st.integers(0, 3)] * 6), min_size=1, max_size=2), min_size=1, max_size=4))
def test_stage_solve_picks_the_pairwise_composition_winner(stages):
    """On stand-in stages whose part optima tie often, the prefix built one
    stage at a time picks the witness that building every candidate picks,
    with the reference's sizes and part masks.  Each optimum
    gets its own vertices, so the witness names the candidate that won."""
    # Optimum k of a part holds its vertices 4k.. of 24, numbered within the
    # part, so label 1 lies in vertices 4..7 and 16..19, label 2 in 8..11 and 20..23.
    odd, even = 0xF00F0, 0xF00F00
    prefix, optima = None, {"clique": [], "independent": []}  # per part of every stage
    for parts in stages:
        first = len(optima["clique"])
        for sizes in parts:
            results = [(size, (1 << size) - 1 << 4 * j) for j, size in enumerate(sizes)]
            optima["clique"].append(tuple(results[:3]))
            optima["independent"].append(tuple(results[3:]))
        layout = tuple((24 * j, inverse, odd, even) for j, inverse in zip(range(len(parts)), (0, -1)))
        s = StandIn(n=24 * len(parts), m=0, label_counts={1: 0, 2: 0}, parts=layout, k=1, block_n=24,
                    optima={mode: flat_optima(optima[mode][first:]) for mode in optima})
        prefix = Prefix(prefix, s)
    stack = SimpleNamespace(prefix=prefix)
    results = stage_solve(stack)
    assert results == reference_stage_solve(stack_parts(stack))
    for mode, res in zip(optima, results):
        witness = listed_members(res.masks, mode)
        assert witness == pairwise_composition(stack_parts(stack), optima[mode], mode) and res.size == len(witness)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_prefix_route_matches_the_reference(profile):
    """SF(t)'s prefix, composed from SF(t - 1)'s and stage t's in O(1),
    gives the sizes and part masks of composing every
    candidate over every part (``reference_stage_solve``), for t <= 60,
    and so does F(r), a one-stage prefix."""
    for t in range(3, 61):
        for kind in ("F", "SF"):
            stack = Stack(kind, t, profile)
            assert stage_solve(stack) == reference_stage_solve(stack_parts(stack)), (kind, t)


@pytest.mark.parametrize("profile", [DEFAULT_PROFILE, DEFAULT_PROFILE.replace(prod="tensor")], ids=["default", "tensor"])
def test_a_job_list_reads_each_stage_once_per_job(profile):
    """From empty memos, the job list to t = 60 builds each stage and each
    prefix once, and each job adds at most one hit to the stage memo: a
    T1.2 job extends the prefix before it by one stage, and re-reads none
    of stages 3..t."""
    clear_memos()
    hits = []
    for theorem, (min_r, _, shift) in CLAIMS.items():
        for r in range(min_r, 60 - shift + 1):
            before = solve_module.stage.cache_info().hits
            run_verification(theorem, r, profile)
            hits.append(solve_module.stage.cache_info().hits - before)
    assert solve_module.stage.cache_info().misses == prefixes_built() == 58
    assert max(hits) == 1


def test_check_lists_only_the_witness_it_stores(monkeypatch):
    """``check_theorem_1_2`` lists one witness, the one its report stores,
    so a stack refuted by a clique never has its alpha witness listed.
    Under every profile at t <= 20, that witness is the one that building
    every candidate whole from the parts of the dense F(3..t) gives."""
    listed, members = [], Stack.members
    monkeypatch.setattr(Stack, "members", staticmethod(lambda masks, mode: listed.append(masks) or members(masks, mode)))
    refuted_by_clique = 0
    for profile in family_representatives():
        optima = {"clique": [], "independent": []}  # per part of SF(t), numbered within the part
        for t in range(3, 21):
            for mode, parts in dense_part_optima(build_F(t, profile), layout_cuts("F", t, profile)).items():
                optima[mode] += parts
            stack = Stack("SF", t, profile)
            listed.clear()
            tc = check_theorem_1_2(stack)
            omega, alpha = stage_solve(stack)
            assert listed == [(alpha if tc["witness_mode"] == "independent" else omega).masks], (profile, t)
            assert tc["witness"] == list(pairwise_composition(stack_parts(stack), optima[tc["witness_mode"]], tc["witness_mode"])), (profile, t)
            refuted_by_clique += tc["status"] == "REFUTED" and tc["witness_mode"] == "clique"
    assert refuted_by_clique


def test_each_profile_reads_the_stage_of_its_block():
    """F(r)'s stage under a profile's own reading equals the stage under
    its ``stage_family`` key, which reads cartesian as lexicographic and
    tensor under either sum as under disjoint_union: the same block.  So
    the 24 profiles key three families of stages after the third."""
    fields = ("block_n", "k", "parts", "n", "m", "label_counts", "optima")
    for profile in all_profiles():
        base, rest = construct_module.stage_family(profile)
        for r in range(3, 41):
            own, keyed = solve_module.stage.__wrapped__(r, profile), solve_module.stage(r, base if r == 3 else rest)
            assert [getattr(own, f) for f in fields] == [getattr(keyed, f) for f in fields], (profile, r)
    assert len({construct_module.stage_family(profile)[1] for profile in all_profiles()}) == 3


def test_profiles_that_differ_only_in_base_case_share_every_stage_after_the_third():
    for profile in all_profiles():
        ours = stack_stages(Stack("SF", 6, profile))
        other = stack_stages(Stack("SF", 6, profile.replace(base_case="general" if profile.base_case == "explicit_path" else "explicit_path")))
        assert (ours[0].block_n, ours[0].paired) != (other[0].block_n, other[0].paired)
        assert all(a is b for a, b in zip(ours[1:], other[1:]))
        assert stack_stages(Stack("F", 4, profile))[0] is other[1]


def test_a_doctored_cluster_table_is_solved(seed_stage):
    # A block's own edges are whatever its cluster table makes them; its
    # copies, the H side and the edges between the sides follow from them.
    # The dense SF(6) sees the same doctored block of F(4), vertex 0 moved
    # from K_2 {0, 1} to K_2 {2, 3}, in each of its copies.
    edge, optima = build_F(4).graph.has_edge(0, 1), solve_module.stage(4, DEFAULT_PROFILE).optima
    seed_stage(4, lambda clusters, labels: ((0b0010, 0b1101), labels))
    assert construct_module.stage_block(4, DEFAULT_PROFILE)[1] == (0b1100, 0, 0b1001, 0b0101)
    assert solve_module.stage(4, DEFAULT_PROFILE).optima != optima
    assert build_F(4).graph.has_edge(0, 1) != edge and build_F(4).graph.has_edge(8, 9) != edge
    assert_route_matches_monolithic(6)


def test_verification_never_builds_the_dense_stack(monkeypatch):
    def no_build(*args):
        raise AssertionError("built the dense SF(t)")

    monkeypatch.setattr(construct_module, "build_SF", no_build)
    for r in (2, 3, 9):
        report = run_verification("1.2", r)
        assert verify_report(report) == []


def test_reports_do_not_depend_on_what_ran_before(tmp_path):
    """One report, from ``verify`` in a fresh process (no memo) and from a
    sweep (memo filled by the jobs before it).  And T1.2 reports for
    r = 2..19 under four profiles, run in ascending order, in descending
    order from empty memos, and with every list of prefixes emptied before
    each job."""
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    alone = tmp_path / "alone.json"
    subprocess.run(
        [sys.executable, "-m", "sfcheck.cli", "verify", "--theorem", "1.2", "--r", "9", "--report", str(alone)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        check=False,
    )
    main(["sweep", "--t-max", "10", "--report-dir", str(tmp_path / "sweep")])
    texts = [alone.read_text(), (tmp_path / "sweep" / "t12_r9.json").read_text()]
    stripped = [report_to_json(strip_volatile(json.loads(text))) for text in texts]
    assert stripped[0] == stripped[1]

    def reports(rs, profile, cold=False):
        texts = {}
        for r in rs:
            if cold:
                solve_module._chains.clear()
            texts[r] = report_to_json(strip_volatile(run_verification("1.2", r, profile)))
        return texts

    join = InterpretationProfile(sum="join", prod="cartesian")
    for profile in (DEFAULT_PROFILE, DEFAULT_PROFILE.replace(prod="tensor"), join, DEFAULT_PROFILE.replace(base_case="general")):
        ascending = reports(range(2, 20), profile)
        clear_memos()
        assert reports(range(19, 1, -1), profile) == ascending, profile
        assert reports(range(2, 20), profile, cold=True) == ascending, profile


def test_a_cold_load_builds_only_its_own_stages_and_prefixes(tmp_path):
    """From empty memos, loading one SF(20) report builds its 18 stages and
    its 18 prefixes, no more."""
    path = tmp_path / "r19.json"
    write_report(path, run_verification("1.2", 19))
    clear_memos()
    load_report(path)
    assert (solve_module.stage.cache_info().misses, prefixes_built()) == (18, 18)


def test_a_warm_load_still_checks_the_stored_witness(tmp_path, monkeypatch):
    """With SF(20)'s prefix built, so that the load composes nothing, the
    re-run still passes the stored witness through ``Stack.holds`` (in
    ``Stack.members``), and a report with one witness vertex moved does
    not load."""
    report = run_verification("1.2", 19)
    forged = json.loads(report_to_json(report))
    witness = forged["checks"][0]["witness"]
    moved = next(v for v in range(witness[0] + 1, forged["graph_stats"]["n"]) if v not in witness)
    forged["checks"][0]["witness"] = sorted([moved, *witness[1:]])
    path = tmp_path / "forged.json"
    path.write_text(report_to_json(forged))
    calls, holds = [], Stack.holds
    monkeypatch.setattr(Stack, "holds", staticmethod(lambda masks, mode: calls.append(mode) or holds(masks, mode)))
    built = prefixes_built()
    with pytest.raises(ValueError, match=r"checks\[0\]\.witness\[0\] differs"):
        load_report(path)
    assert calls == ["clique"] and prefixes_built() == built


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--t-max", "101", "--report-dir", "DIR"], ["verify", "--theorem", "1.2", "--r", str(10**9), "--report", "DIR/r.json"]],
    ids=["sweep t-max 101", "verify r 10**9"],
)
def test_unloadable_targets_refused_unbuilt(argv, tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built a target no loader would accept")

    monkeypatch.setattr(cli_module, "Stack", no_build)
    monkeypatch.setattr(cli_module, "build_stream", no_build)
    monkeypatch.setattr(construct_module, "build_F", no_build)
    monkeypatch.setattr(construct_module, "build_SF", no_build)
    monkeypatch.setattr(construct_module, "stage_block", no_build)
    monkeypatch.setattr(solve_module, "stage_block", no_build)
    out_dir = tmp_path / "out"
    assert main([arg.replace("DIR", str(out_dir)) for arg in argv]) == 2
    assert "is above the limit of t = 100" in capsys.readouterr().err
    assert not out_dir.exists()
