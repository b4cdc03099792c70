"""Constructor tests: blocks, sides, stage graphs, stacked graphs, validate."""

import dataclasses
import random

import pytest

from sfcheck.construct import (
    DEFAULT_PROFILE,
    InterpretationProfile,
    LabeledGraph,
    build_F,
    build_SF,
    build_block,
    build_sides,
    flip_label,
    label_parity,
    validate,
)
from sfcheck.graphs import Graph, complete, induced

from oracles import all_profiles, stacked_vertex_count, stage_vertex_count

GENERAL = dataclasses.replace(DEFAULT_PROFILE, base_case="general")


def cross_pairs_by_rule(lg):
    """Pairs the opposite-parity rule applies to, recomputed from provenance."""
    out = []
    n = lg.graph.n
    for v in range(n):
        pv = lg.provenance[v]
        for w in range(v + 1, n):
            pw = lg.provenance[w]
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
    def test_r3_disjoint_union(self):
        lg = build_block(3, DEFAULT_PROFILE)
        assert lg.graph.n == 3
        assert lg.labels == (1, 2, 2)
        assert lg.graph.m == 1

    def test_r4_disjoint_union(self):
        lg = build_block(4, DEFAULT_PROFILE)
        assert lg.labels == (1, 1, 2, 2)
        assert lg.graph.m == 2
        assert lg.graph.has_edge(0, 1) and lg.graph.has_edge(2, 3)

    def test_r5_join(self):
        lg = build_block(5, dataclasses.replace(DEFAULT_PROFILE, sum="join"))
        assert lg.graph == complete(5)
        assert lg.labels == (1, 1, 2, 2, 2)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            build_block(2)

    def test_block_validates_clean(self):
        assert validate(build_block(5)) == []


class TestBuildSides:
    def test_r3_default(self):
        lg = build_sides(3, DEFAULT_PROFILE)
        g_side = induced(lg.graph, range(6))
        h_side = induced(lg.graph, range(6, 12))
        assert g_side.m == 2
        assert h_side.m == 15 - 2
        # no cross edges yet
        assert lg.graph.m == g_side.m + h_side.m

    def test_r4_tensor_degenerate(self):
        lg = build_sides(4, dataclasses.replace(DEFAULT_PROFILE, prod="tensor"))
        assert induced(lg.graph, range(12)).m == 0
        assert induced(lg.graph, range(12, 24)) == complete(12)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_label_flip_across_correspondence(self, r):
        lg = build_sides(r, DEFAULT_PROFILE)
        assert len(lg.correspondence) == (r - 1) * r
        for v, w in lg.correspondence:
            assert label_parity(lg.labels[v]) != label_parity(lg.labels[w])

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            build_sides(2)


class TestBuildF:
    def test_explicit_path_default(self):
        lg = build_F(3, DEFAULT_PROFILE)
        assert lg.graph.n == 6 and lg.graph.m == 5
        assert lg.labels == (1, 2, 1, 1, 2, 2)
        assert [p.block for p in lg.provenance] == ["v", "u", "w", "x", "y", "t"]
        assert lg.correspondence == ()

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
        v, w = lg.correspondence[0]
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
        "edit, message",
        [
            (lambda c: c[1:], "correspondence: missing pair (0, 12)"),
            (lambda c: c + ((0, 1),), "correspondence: unexpected pair (0, 1)"),
            (lambda c: c + c[:1], "correspondence: repeated pair (0, 12)"),
        ],
        ids=["dropped", "added", "repeated"],
    )
    def test_correspondence_edit_detected(self, edit, message):
        lg = build_F(4, DEFAULT_PROFILE)
        doctored = dataclasses.replace(lg, correspondence=edit(lg.correspondence))
        assert validate(doctored) == [message]

    @pytest.mark.parametrize("v", [2, 7, 20])
    def test_shifted_within_detected(self, v):
        lg = build_SF(4, DEFAULT_PROFILE)
        prov = list(lg.provenance)
        prov[v] = dataclasses.replace(prov[v], within=prov[v].within + 1)
        doctored = dataclasses.replace(lg, provenance=tuple(prov))
        assert validate(doctored) == [
            f"provenance-order: vertex {v} is {prov[v]}, expected {lg.provenance[v]}"
        ]

    @pytest.mark.parametrize(
        "lg, field, value, vertices",
        [
            (build_block(5), "side", "elsewhere", range(5)),
            (build_SF(4), "stage_r", 0, [7]),
        ],
        ids=["unknown-side", "stage-zero"],
    )
    def test_odd_provenance_reported_not_raised(self, lg, field, value, vertices):
        prov = list(lg.provenance)
        for v in vertices:
            prov[v] = dataclasses.replace(prov[v], **{field: value})
        doctored = dataclasses.replace(lg, provenance=tuple(prov))
        assert any(m.startswith("provenance-order") for m in validate(doctored))

    def test_labeled_graph_rejects_bad_shapes(self):
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, lg.labels[:-1], lg.provenance, ())
        with pytest.raises(ValueError):
            LabeledGraph(lg.graph, (0,) * 6, lg.provenance, ())

    def test_labeled_graph_rejects_bool_label(self):
        # True == 1, so a plain membership test in (1, 2) would accept it.
        lg = build_F(3, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match="outside"):
            LabeledGraph(lg.graph, (True,) + lg.labels[1:], lg.provenance, ())
