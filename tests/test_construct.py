"""Constructor tests: blocks, sides, stage graphs, stacked graphs, layout, validate."""

import dataclasses
import random

import pytest

from sfcheck.construct import (
    DEFAULT_PROFILE,
    InterpretationProfile,
    LabeledGraph,
    build_F,
    build_SF,
    flip_label,
    label_parity,
    validate,
)
from sfcheck.graphs import Graph, complete, induced

from oracles import all_profiles, layout_provenance, stacked_vertex_count, stage_vertex_count

GENERAL = dataclasses.replace(DEFAULT_PROFILE, base_case="general")


def cross_pairs_by_rule(lg):
    """Pairs the opposite-parity rule applies to, recomputed from provenance."""
    out = []
    n = lg.graph.n
    prov = [lg.provenance(v) for v in range(n)]
    for v in range(n):
        pv = prov[v]
        for w in range(v + 1, n):
            pw = prov[w]
            if pv.stage_r != pw.stage_r:
                out.append((v, w))
            elif pv.side != pw.side and "path" not in (pv.side, pw.side):
                out.append((v, w))
    return out


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
        assert induced(lg.graph, range(3)).m == 1
        assert lg.labels[:3] == (1, 2, 2)

    @pytest.mark.parametrize("prod", ["lexicographic", "cartesian"])
    def test_r4_disjoint_union(self, prod):
        lg = build_F(4, dataclasses.replace(DEFAULT_PROFILE, prod=prod))
        block = induced(lg.graph, range(4))
        assert lg.labels[:4] == (1, 1, 2, 2)
        assert block.m == 2
        assert block.has_edge(0, 1) and block.has_edge(2, 3)

    @pytest.mark.parametrize("prod", ["lexicographic", "cartesian"])
    def test_r5_join(self, prod):
        lg = build_F(5, dataclasses.replace(DEFAULT_PROFILE, sum="join", prod=prod))
        assert induced(lg.graph, range(5)) == complete(5)
        assert lg.labels[:5] == (1, 1, 2, 2, 2)


class TestBuildSides:
    def test_r3_general(self):
        lg = build_F(3, GENERAL)
        assert induced(lg.graph, range(6)).m == 2
        assert induced(lg.graph, range(6, 12)).m == 15 - 2

    def test_r4_tensor_degenerate(self):
        lg = build_F(4, dataclasses.replace(DEFAULT_PROFILE, prod="tensor"))
        assert induced(lg.graph, range(12)).m == 0
        assert induced(lg.graph, range(12, 24)) == complete(12)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_label_flip_across_correspondence(self, r):
        lg = build_F(r, GENERAL)
        half = (r - 1) * r
        for v in range(half):
            g, h = lg.provenance(v), lg.provenance(v + half)
            assert (g.side, h.side) == ("G_side", "H_side")
            assert (g.copy, g.block, g.within) == (h.copy, h.block, h.within)
            assert label_parity(lg.labels[v]) != label_parity(lg.labels[v + half])


class TestBuildF:
    def test_explicit_path_default(self):
        lg = build_F(3, DEFAULT_PROFILE)
        assert lg.graph.n == 6 and lg.graph.m == 5
        assert lg.labels == (1, 2, 1, 1, 2, 2)
        assert [lg.provenance(v).block for v in range(6)] == ["v", "u", "w", "x", "y", "t"]
        assert lg.stages == (3,) and lg.base_path

    def test_explicit_path_y_label_one(self):
        lg = build_F(3, dataclasses.replace(DEFAULT_PROFILE, y_label=1))
        assert lg.labels == (1, 2, 1, 1, 1, 2)

    def test_r3_general_counts(self):
        lg = build_F(3, GENERAL)
        assert lg.graph.n == 12
        g_m = induced(lg.graph, range(6)).m
        h_m = induced(lg.graph, range(6, 12)).m
        cross = lg.graph.m - g_m - h_m
        assert (g_m, h_m, cross) == (2, 13, 20)
        assert lg.graph.m == 35

    def test_r4_general_counts(self):
        lg = build_F(4, GENERAL)
        assert lg.graph.n == 24
        g_m = induced(lg.graph, range(12)).m
        h_m = induced(lg.graph, range(12, 24)).m
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
        for v, w in cross_pairs_by_rule(lg):
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
        prefix_m = induced(lg.graph, range(6)).m
        stage_m = induced(lg.graph, range(6, 30)).m
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
        assert induced(cur.graph, range(prev.graph.n)) == prev.graph
        assert cur.labels[: prev.graph.n] == prev.labels

    def test_cross_stage_edges_follow_parity_rule(self):
        lg = build_SF(5, DEFAULT_PROFILE)
        for v, w in cross_pairs_by_rule(lg):
            differs = label_parity(lg.labels[v]) != label_parity(lg.labels[w])
            assert lg.graph.has_edge(v, w) == differs

    def test_bit_reproducible(self):
        assert build_SF(5, DEFAULT_PROFILE) == build_SF(5, DEFAULT_PROFILE)

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            build_SF(2)

    @pytest.mark.parametrize("t", range(3, 8))
    @pytest.mark.parametrize("profile", all_profiles())
    def test_all_profiles_validate_clean(self, profile, t):
        assert validate(build_SF(t, profile)) == []


class TestLayout:
    @pytest.mark.parametrize("profile", all_profiles(), ids=str)
    def test_provenance_matches_nested_loop_layout(self, profile):
        for kind, build in (("F", build_F), ("SF", build_SF)):
            for param in range(3, 9):
                lg = build(param, profile)
                got = [lg.provenance(v) for v in range(lg.graph.n)]
                assert got == layout_provenance(kind, param, profile), (kind, param)

    def test_stages_record_the_stack(self):
        lg = build_SF(6, GENERAL)
        assert lg.stages == (3, 4, 5, 6) and not lg.base_path
        spans = list(lg.stage_spans())
        assert spans == [(3, 0, 12), (4, 12, 36), (5, 36, 76), (6, 76, 136)]

    @pytest.mark.parametrize("v", [-1, 6, True])
    def test_provenance_rejects_outside_vertex(self, v):
        with pytest.raises(ValueError, match="out of range"):
            build_F(3).provenance(v)


class TestValidate:
    def test_clean_build(self):
        assert validate(build_F(4, DEFAULT_PROFILE)) == []

    def test_missing_cross_edge_detected(self):
        lg = build_F(4, DEFAULT_PROFILE)
        # drop one G-H cross edge: vertex 0 (G side) to its first cross partner
        partner = next(
            w for w in range(12, 24) if lg.graph.has_edge(0, w)
        )
        edges = [e for e in lg.graph.edges() if e != (0, partner)]
        doctored = dataclasses.replace(lg, graph=Graph.from_edges(lg.graph.n, edges))
        violations = validate(doctored)
        assert violations == [f"missing-cross-edge: (0, {partner})"]

    def test_broken_label_flip_detected(self):
        lg = build_F(4, DEFAULT_PROFILE)
        v, w = 0, 12
        labels = list(lg.labels)
        labels[w] = labels[v]
        doctored = dataclasses.replace(lg, labels=tuple(labels))
        flips = [x for x in validate(doctored) if x.startswith("label-flip")]
        assert len(flips) == 1
        assert f"({v}, {w})" in flips[0]

    def test_lower_triangle_bit_detected(self):
        lg = build_F(4, DEFAULT_PROFILE)
        rows = list(lg.graph.rows)
        rows[5] |= 1 << 2
        doctored = dataclasses.replace(lg, graph=Graph._trusted(lg.graph.n, tuple(rows)))
        assert validate(doctored) == ["asymmetric adjacency between 5 and 2"]

    def test_bit_beyond_n_reported_not_raised(self):
        lg = build_F(4, DEFAULT_PROFILE)
        n = lg.graph.n
        rows = list(lg.graph.rows)
        rows[0] |= 1 << n
        doctored = dataclasses.replace(lg, graph=Graph._trusted(n, tuple(rows)))
        assert validate(doctored) == [f"row 0 addresses vertices outside 0..{n - 1}"]

    @pytest.mark.parametrize("profile", all_profiles(), ids=str)
    def test_cross_edge_messages_follow_rule_on_doctored_builds(self, profile):
        rng = random.Random(11)
        for t in (3, 4, 5):
            lg = build_SF(t, profile)
            n = lg.graph.n
            for _ in range(8):
                # Flipping rows[v] alone leaves a bit on one side of the diagonal.
                rows = list(lg.graph.rows)
                for _ in range(rng.randint(1, 4)):
                    v, w = rng.sample(range(n), 2)
                    rows[v] ^= 1 << w
                    if rng.random() < 0.5:
                        rows[w] ^= 1 << v
                labels = tuple(flip_label(x) if rng.random() < 0.05 else x for x in lg.labels)
                doctored = dataclasses.replace(
                    lg, graph=Graph._trusted(n, tuple(rows)), labels=labels
                )
                want = []
                for v, w in cross_pairs_by_rule(doctored):
                    differs = label_parity(labels[v]) != label_parity(labels[w])
                    if doctored.graph.has_edge(v, w) != differs:
                        want.append(f"{'missing' if differs else 'unexpected'}-cross-edge: ({v}, {w})")
                got = validate(doctored)
                assert [m for m in got if "cross-edge" in m] == want
                problems = list(doctored.graph.problems())
                assert got[: len(problems)] == problems

    @pytest.mark.parametrize(
        "rows, message",
        [
            (lambda rows: (None,) * len(rows), "row 0 must be an int"),
            (lambda rows: rows[:-1], "rows length must equal vertex count"),
        ],
        ids=["not-ints", "one-short"],
    )
    def test_bad_row_shape_reported_not_raised(self, rows, message):
        lg = build_F(4, DEFAULT_PROFILE)
        doctored = dataclasses.replace(lg, graph=Graph._trusted(lg.graph.n, rows(lg.graph.rows)))
        assert validate(doctored) == [message]

    def test_labeled_graph_rejects_bad_shapes(self):
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, lg.labels[:-1], lg.stages, lg.base_path)
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, (0,) * 6, lg.stages, lg.base_path)

    @pytest.mark.parametrize(
        "stages, base_path", [((3,), False), ((4,), True), ((3, 4), True), ((), True)]
    )
    def test_labeled_graph_rejects_stage_size_mismatch(self, stages, base_path):
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match="do not lay out 6 vertices"):
            LabeledGraph(lg.graph, lg.labels, stages, base_path)

    def test_labeled_graph_rejects_stage_below_three(self):
        # Stage 2 would lay out 2 * 2 * 1 = 4 vertices, but no build has one.
        with pytest.raises(ValueError, match="do not lay out 4 vertices"):
            LabeledGraph(Graph(4, (0,) * 4), (1, 2, 2, 1), (2,), False)

    def test_labeled_graph_rejects_bool_label(self):
        # True == 1, so a plain membership test in (1, 2) would accept it.
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match="outside"):
            LabeledGraph(lg.graph, (True,) + lg.labels[1:], lg.stages, lg.base_path)
