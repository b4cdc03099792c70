"""Constructor tests: blocks, sides, stage graphs, stacked graphs, layout, and
the rule between the sides of a stage on the dense and doctored builds."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sfcheck import construct, solve
from sfcheck.cli import main
from sfcheck.construct import (
    DEFAULT_PROFILE,
    LABELS,
    InterpretationProfile,
    LabeledGraph,
    build_F,
    build_SF,
    label_masks,
)
from sfcheck.graphs import complete
from sfcheck.report import load_report
from sfcheck.solve import Prefix, Stack, Stage, max_clique, max_independent_set, stage, stage_mono_clique, stage_solve

from oracles import (
    all_profiles,
    class_masks,
    clear_memos,
    dense_first_part,
    flip_label,
    label_counts,
    label_parity,
    layout_cuts,
    pairwise_induced,
    random_cluster_table,
    stack_labels,
    stack_parts,
    stacked_vertex_count,
    stage_vertex_count,
)

GENERAL = DEFAULT_PROFILE.replace(base_case="general")


def cross_pairs_by_rule(lg, cuts):
    """Pairs the opposite-parity rule applies to: those in different parts,
    a part being the base path or one side of a stage, split at ``cuts``,
    from ``layout_cuts``."""
    n = lg.graph.n
    part = [sum(v >= cut for cut in cuts) for v in range(n)]
    return [(v, w) for v in range(n) for w in range(v + 1, n) if part[v] != part[w]]


class TestProfile:
    def test_default_values(self):
        assert DEFAULT_PROFILE == InterpretationProfile(
            sum="disjoint_union", prod="lexicographic", base_case="explicit_path", y_label=2
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sum": "concat"},
            {"prod": "strong"},
            {"base_case": "folklore"},
            {"y_label": 3},
        ],
    )
    def test_rejects_unknown_values(self, kwargs):
        with pytest.raises(ValueError):
            InterpretationProfile(**kwargs)

    def test_rejects_bool_y_label(self):
        with pytest.raises(ValueError):
            InterpretationProfile(y_label=True)

    def test_dict_round_trip(self):
        for p in all_profiles():
            assert InterpretationProfile.from_dict(p.to_dict()) == p


class TestBuildBlock:
    """The block G_z is the first r vertices of F(r) under the lexicographic
    and cartesian products: copy 0 of the G side."""

    def test_r3_disjoint_union(self):
        lg = build_F(3, GENERAL)
        assert pairwise_induced(lg.graph, range(3)).m == 1
        assert lg.labels[:3] == (1, 2, 2)

    @pytest.mark.parametrize("prod", ["lexicographic", "cartesian"])
    def test_r4_disjoint_union(self, prod):
        lg = build_F(4, DEFAULT_PROFILE.replace(prod=prod))
        block = pairwise_induced(lg.graph, range(4))
        assert lg.labels[:4] == (1, 1, 2, 2)
        assert block.m == 2
        assert block.has_edge(0, 1) and block.has_edge(2, 3)

    @pytest.mark.parametrize("prod", ["lexicographic", "cartesian"])
    def test_r5_join(self, prod):
        lg = build_F(5, DEFAULT_PROFILE.replace(sum="join", prod=prod))
        assert pairwise_induced(lg.graph, range(5)) == complete(5)
        assert lg.labels[:5] == (1, 1, 2, 2, 2)


class TestBuildSides:
    def test_r3_general(self):
        lg = build_F(3, GENERAL)
        assert pairwise_induced(lg.graph, range(6)).m == 2
        assert pairwise_induced(lg.graph, range(6, 12)).m == 15 - 2

    def test_r4_tensor_degenerate(self):
        lg = build_F(4, DEFAULT_PROFILE.replace(prod="tensor"))
        assert pairwise_induced(lg.graph, range(12)).m == 0
        assert pairwise_induced(lg.graph, range(12, 24)) == complete(12)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_label_flip_across_correspondence(self, r):
        lg = build_F(r, GENERAL)
        half = (r - 1) * r
        for v in range(half):
            assert lg.labels[v + half] == flip_label(lg.labels[v])


class TestBuildF:
    def test_explicit_path_default(self):
        lg = build_F(3, DEFAULT_PROFILE)
        assert lg.graph.n == 6 and lg.graph.m == 5
        assert lg.labels == (1, 2, 1, 1, 2, 2)

    def test_explicit_path_y_label_one(self):
        lg = build_F(3, DEFAULT_PROFILE.replace(y_label=1))
        assert lg.labels == (1, 2, 1, 1, 1, 2)

    def test_r3_general_counts(self):
        lg = build_F(3, GENERAL)
        assert lg.graph.n == 12
        g_m = pairwise_induced(lg.graph, range(6)).m
        h_m = pairwise_induced(lg.graph, range(6, 12)).m
        cross = lg.graph.m - g_m - h_m
        assert (g_m, h_m, cross) == (2, 13, 20)
        assert lg.graph.m == 35

    def test_r4_general_counts(self):
        lg = build_F(4, GENERAL)
        assert lg.graph.n == 24
        g_m = pairwise_induced(lg.graph, range(12)).m
        h_m = pairwise_induced(lg.graph, range(12, 24)).m
        assert (g_m, h_m, lg.graph.m - g_m - h_m) == (6, 60, 72)
        assert lg.graph.m == 138

    @pytest.mark.parametrize("r", range(3, 9))
    def test_general_vertex_count(self, r):
        assert build_F(r, GENERAL).graph.n == stage_vertex_count(r)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_general_label_counts(self, r):
        lg = build_F(r, GENERAL)
        g_ones = sum(1 for v in range((r - 1) * r) if lg.labels[v] == 1)
        g_twos = (r - 1) * r - g_ones
        assert g_ones == (r - 1) * (r // 2)
        assert g_twos == (r - 1) * ((r + 1) // 2)
        h_ones = sum(1 for v in range((r - 1) * r, 2 * (r - 1) * r) if lg.labels[v] == 1)
        assert h_ones == g_twos

    def test_cross_edges_follow_parity_rule(self):
        lg = build_F(4, DEFAULT_PROFILE)
        for v, w in cross_pairs_by_rule(lg, layout_cuts("F", 4, DEFAULT_PROFILE)):
            differs = label_parity(lg.labels[v]) != label_parity(lg.labels[w])
            assert lg.graph.has_edge(v, w) == differs

    def test_bit_reproducible(self):
        assert build_F(5, DEFAULT_PROFILE) == build_F(5, DEFAULT_PROFILE)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            build_F(2)


class TestBuildSF:
    def test_base_case_equals_stage(self):
        assert build_SF(3, DEFAULT_PROFILE) == build_F(3, DEFAULT_PROFILE)

    def test_sf4_default_counts(self):
        lg = build_SF(4, DEFAULT_PROFILE)
        assert lg.graph.n == 30
        prefix_m = pairwise_induced(lg.graph, range(6)).m
        stage_m = pairwise_induced(lg.graph, range(6, 30)).m
        assert (prefix_m, stage_m, lg.graph.m - prefix_m - stage_m) == (5, 138, 72)
        assert lg.graph.m == 215

    def test_sf5_vertex_count(self):
        assert build_SF(5, DEFAULT_PROFILE).graph.n == 70

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_vertex_count_closed_form(self, t):
        assert build_SF(t, DEFAULT_PROFILE).graph.n == stacked_vertex_count(t, True)
        assert build_SF(t, GENERAL).graph.n == stacked_vertex_count(t, False)

    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_prefix_is_induced_previous_stack(self, t):
        prev = build_SF(t - 1, DEFAULT_PROFILE)
        cur = build_SF(t, DEFAULT_PROFILE)
        assert pairwise_induced(cur.graph, range(prev.graph.n)) == prev.graph
        assert cur.labels[: prev.graph.n] == prev.labels

    def test_cross_stage_edges_follow_parity_rule(self):
        lg = build_SF(5, DEFAULT_PROFILE)
        for v, w in cross_pairs_by_rule(lg, layout_cuts("SF", 5, DEFAULT_PROFILE)):
            differs = label_parity(lg.labels[v]) != label_parity(lg.labels[w])
            assert lg.graph.has_edge(v, w) == differs

    def test_bit_reproducible(self):
        assert build_SF(5, DEFAULT_PROFILE) == build_SF(5, DEFAULT_PROFILE)

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            build_SF(2)

    @pytest.mark.parametrize("t", range(3, 8))
    @pytest.mark.parametrize("profile", all_profiles())
    def test_all_profiles_meet_the_premise(self, profile, t):
        assert not rule_breaks(build_F(t, profile), layout_cuts("F", t, profile))


class TestLayout:
    @pytest.mark.parametrize("profile", all_profiles(), ids=str)
    def test_stack_parts_start_at_the_nested_loop_cuts(self, profile):
        # The stack owns the layout; the dense builds are checked against
        # the same cuts by the rule tests and the part optima.
        for kind in ("F", "SF"):
            for param in range(3, 9):
                starts = tuple(start for start, *_ in stack_parts(Stack(kind, param, profile)))
                assert starts[1:] == layout_cuts(kind, param, profile), (kind, param)

    def test_labeled_graph_rejects_bad_shapes(self):
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, lg.labels[:-1])
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, (0,) * 6)

    def test_labeled_graph_rejects_bool_label(self):
        # True == 1, so a plain membership test in (1, 2) would accept it.
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match="outside"):
            LabeledGraph(lg.graph, (True,) + lg.labels[1:])

    def test_labeled_graph_rejects_float_label(self):
        # 2.0 == 2 as well, so only the exact-int test refuses it.
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match=r"^label 2\.0 outside \{1, 2\}$"):
            LabeledGraph(lg.graph, lg.labels[:-1] + (2.0,))


class TestLabelMasks:
    """``label_masks`` reads the two label classes from the label bytes;
    ``class_masks`` in ``tests/oracles.py`` builds them one vertex at a time."""

    @given(st.lists(st.sampled_from(LABELS), max_size=200).map(tuple))
    @example(())
    @example((1,))
    @example((2,))
    @example((1, 2) * 32 + (2,))
    @example((2,) * 64 + (1,))
    def test_match_the_per_vertex_definition(self, labels):
        assert label_masks(labels) == class_masks(labels)

    @pytest.mark.parametrize("y_label", LABELS)
    def test_base_path(self, y_label):
        _, labels, _ = dense_first_part(3, DEFAULT_PROFILE.replace(y_label=y_label))
        assert label_masks(labels) == class_masks(labels)
        assert label_masks(labels)[y_label - 1] >> 4 & 1


def rule_breaks(lg, cuts):
    """The pairs in different parts of ``lg``, split at ``cuts``, whose
    adjacency is not the opposite-parity rule's."""
    return [
        (v, w)
        for v, w in cross_pairs_by_rule(lg, cuts)
        if lg.graph.has_edge(v, w) != (label_parity(lg.labels[v]) != label_parity(lg.labels[w]))
    ]


def flipped_edge(rows, v, w):
    """``rows`` with the pair (v, w) toggled."""
    rows = list(rows)
    rows[v] ^= 1 << w
    rows[w] ^= 1 << v
    return tuple(rows)


def moved(clusters, v, i):
    """The cluster table ``clusters`` with vertex v moved to cluster i."""
    return tuple((cluster & ~(1 << v)) | (j == i) << v for j, cluster in enumerate(clusters))


def flipped_label(labels, v):
    return labels[:v] + (flip_label(labels[v]),) + labels[v + 1 :]


# Seeded faults in the cluster table of F(4)'s block, K_2 and K_2, and so
# in each of the three copies that make its G side, stage 4 of SF(5):
# vertices 0..3, 4..7 and 8..11.  The H side and the edges between the
# sides, and between stages, follow from the G side by definition, so no
# fault can be seeded there.
FAULTS = {
    "vertex moved between the block's clusters": lambda clusters, labels: (moved(clusters, 0, 1), labels),
    "label of one vertex of the G side": lambda clusters, labels: (clusters, flipped_label(labels, 0)),
}


def assert_stack_matches_dense(t, profile):
    """The stack SF(t) and the dense build agree in n, m, labels, omega and alpha."""
    stack, lg = Stack("SF", t, profile), build_SF(t, profile)
    assert (stack.n, stack.m, stack.label_counts) == (lg.graph.n, lg.graph.m, label_counts(lg))
    assert stack_labels(stack) == list(lg.labels)
    omega, alpha = stage_solve(stack)
    assert (omega.size, alpha.size) == (max_clique(lg.graph).size, max_independent_set(lg.graph).size)


class TestPremise:
    """The stage memo keeps only one block of a stage's G side: its copies,
    the H side and the rule between the sides hold by definition.  The
    dense builder, for export, must meet the rule, and a fault seeded into
    the block reaches the stage route and every copy of the dense build
    alike, so the rule still holds on the doctored dense build; a report
    made under it fails to load."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_seeded_fault_reaches_both_builds(self, fault, seed_stage):
        real = construct.stage_block(4, DEFAULT_PROFILE)
        seed_stage(4, FAULTS[fault])
        doctored, kept, (clusters, rows, labels, _) = build_F(4), stage(4, DEFAULT_PROFILE), construct.stage_block(4, DEFAULT_PROFILE)
        assert (clusters, labels) != real[::2] and kept.k == 3 and kept.parts[0][2:] == class_masks(labels)
        for lo in (0, 4, 8):
            assert (rows, labels) == (pairwise_induced(doctored.graph, range(lo, lo + 4)).rows, doctored.labels[lo : lo + 4])
        assert (kept.n, kept.m, kept.label_counts) == (doctored.graph.n, doctored.graph.m, label_counts(doctored))
        assert not rule_breaks(doctored, layout_cuts("F", 4, DEFAULT_PROFILE))
        assert_stack_matches_dense(5, DEFAULT_PROFILE)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_report_under_a_seeded_fault_fails_to_load(self, fault, seed_stage, tmp_path):
        seed_stage(4, FAULTS[fault])
        out = tmp_path / "r.json"
        assert main(["verify", "--theorem", "1.1", "--r", "4", "--report", str(out)]) in (0, 1)
        seed_stage(4, lambda block, labels: (block, labels))
        with pytest.raises(ValueError, match="failed re-verification"):
            load_report(out)

    @pytest.mark.parametrize("profile", all_profiles(), ids=str)
    def test_doctored_sides_keep_the_rule(self, profile, seed_stage):
        """Random cluster tables for a clustered block, and random edge
        flips for the base path, each with random labels flipped: the
        doctored dense build keeps the rule between its parts, and the
        stage route still reads branch and bound's omega and alpha."""
        rng = random.Random(11)
        for r in (3, 4, 5):
            clusters, rows, _, _ = construct.stage_block(r, profile)
            for _ in range(8):
                relabel = [rng.random() < 0.2 for _ in range(len(rows))]
                if clusters is None:
                    flips = [rng.sample(range(len(rows)), 2) for _ in range(rng.randint(1, 4))]

                    def doctor(rows, labels, flips=flips, relabel=relabel):
                        for v, w in flips:
                            rows = flipped_edge(rows, v, w)
                        return rows, tuple(flip_label(x) if f else x for x, f in zip(labels, relabel))
                else:
                    def doctor(clusters, labels, table=random_cluster_table(r, rng), relabel=relabel):
                        return table, tuple(flip_label(x) if f else x for x, f in zip(labels, relabel))

                seed_stage(r, doctor)
                assert not rule_breaks(build_F(r, profile), layout_cuts("F", r, profile))
                assert_stack_matches_dense(r, profile)


# The dense builds that ``check_stage_families`` holds equal within a family.
DENSE_BUILDS = [(build_F, r) for r in range(3, 9)] + [(build_SF, t) for t in range(3, 8)]


def route_results(stack):
    """The sizes and listed witnesses of ``stage_solve``'s omega and alpha
    and of ``stage_mono_clique`` on ``stack``."""
    omega, alpha = stage_solve(stack)
    modes = ((omega, "clique"), (alpha, "independent"), (stage_mono_clique(stack), "clique"))
    return [(res.size, Stack.members(res.masks, mode)) for res, mode in modes]


def check_stage_families():
    """Each of the 24 profiles against its family's representative, the
    first profile in ``all_profiles`` order that ``construct.stage_family``
    maps to the same family: its dense F(3..8) and SF(3..7), graphs and
    labels, are the representative's, and so are the route results of
    F(t) and SF(t), t <= 20, each stage built under the profile's own
    reading, ``stage_block(r, profile)``, outside the stage memo.  There
    are nine representatives, and no two agree on every dense build."""
    reps, builds = {}, {}
    for profile in all_profiles():
        rep = reps.setdefault(construct.stage_family(profile), profile)
        builds[profile] = tuple(build(param, profile) for build, param in DENSE_BUILDS)
        assert builds[profile] == builds[rep], f"dense builds under {profile} differ from its representative {rep}'s"
        prefix = None
        for t in range(3, 21):
            own = Stage(*construct.stage_block(t, profile))
            prefix = Prefix(prefix, own)
            for kind, ours in (("F", Prefix(None, own)), ("SF", prefix)):
                theirs = Stack(kind, t, rep)
                assert route_results(SimpleNamespace(prefix=ours)) == route_results(theirs), f"route on {kind}({t}) under {profile} differs from {rep}'s"
    assert len(reps) == 9, f"{len(reps)} stage families"
    assert len({builds[rep] for rep in reps.values()}) == 9, "two representatives agree on every dense build"


class TestStageFamilies:
    """``construct.stage_family`` names the 9 stage families of the 24
    profiles, and a fault in it shows in ``check_stage_families``."""

    def test_each_profile_builds_what_its_representative_does(self):
        check_stage_families()

    @pytest.mark.parametrize(
        "fault, seen",
        [
            # Groups tensor with lexicographic, whose dense builds differ.
            (lambda family, p: family(p.replace(prod="lexicographic") if p.prod == "tensor" else p), "^dense builds under"),
            # Groups as the map does, but keys a tensor family's stages under cartesian.
            (lambda family, p: tuple(key.replace(prod="cartesian") for key in family(p)) if p.prod == "tensor" else family(p), "^route on"),
        ],
        ids=["tensor read as lexicographic", "tensor keyed as cartesian"],
    )
    def test_a_faulty_map_fails_the_family_check(self, fault, seen, monkeypatch):
        real = construct.stage_family

        def doctored(profile):
            return fault(real, profile)

        monkeypatch.setattr(construct, "stage_family", doctored)
        monkeypatch.setattr(solve, "stage_family", doctored)
        clear_memos()
        try:
            with pytest.raises(AssertionError, match=seen):
                check_stage_families()
        finally:
            clear_memos()
