"""Serialization tests: graph6, DIMACS, and JSON reports."""

import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck.construct import DEFAULT_PROFILE, build_F, build_SF
from sfcheck.formats import Graph6ParseError, decode_graph6, encode_dimacs, encode_graph6
from sfcheck.graphs import Graph, complete, empty, path, random_graph
from sfcheck.report import (
    load_report,
    read_report,
    report_to_json,
    run_verification,
    strip_volatile,
    verify_report,
    write_report,
)

from oracles import (
    all_profiles,
    bitwise_decode_graph6,
    bitwise_encode_graph6,
    edgewise_encode_dimacs,
    walk_problems,
)


def nx_encode(g: Graph) -> str:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def decoded(text: str) -> Graph:
    """``decode_graph6(text)``, whose rows the per-bit walk must pass: decode
    checks the text, not the rows it builds from it."""
    g = decode_graph6(text)
    assert walk_problems(g.n, g.rows) == []
    return g


def nx_decode(text: str) -> Graph:
    h = nx.from_graph6_bytes(text.encode("ascii"))
    return Graph.from_edges(h.number_of_nodes(), h.edges())


class TestGraph6:
    def test_complete3_frozen_value(self):
        # Independent-encoder confirmation: 'B' encodes n=3 and the triangle
        # bits 111 pad to 111000 = 56, which is 'w'.
        encoded = encode_graph6(complete(3))
        assert encoded == nx_encode(complete(3)) == "Bw"

    def test_single_vertex_frozen_value(self):
        assert encode_graph6(empty(1)) == nx_encode(empty(1)) == "@"

    def test_path6(self):
        assert encode_graph6(path(6)) == nx_encode(path(6))

    def test_round_trip_constructed_stages(self):
        for r in range(3, 7):
            g = build_F(r, DEFAULT_PROFILE).graph
            assert decoded(encode_graph6(g)) == g

    def test_matches_networkx_both_directions(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_graph(rng.randint(0, 20), rng.random(), rng)
            assert encode_graph6(g) == nx_encode(g)
            assert nx_decode(encode_graph6(g)) == g

    def test_long_form_above_62_vertices(self):
        g = build_SF(5, DEFAULT_PROFILE).graph
        assert g.n == 70
        encoded = encode_graph6(g)
        assert encoded.startswith("~")
        assert encoded == nx_encode(g)
        assert decoded(encoded) == g

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_round_trip_across_byte_widths(self, n):
        for g in (random_graph(n, 0.5, random.Random(n)), complete(n), empty(n)):
            assert decoded(encode_graph6(g)) == g

    def test_header_tolerated(self):
        assert decoded(">>graph6<<Bw\n") == complete(3)

    def test_nonzero_padding_tolerated_on_decode(self):
        assert decoded("B~") == complete(3)

    def test_empty_input(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("")
        assert err.value.offset == 0

    def test_invalid_character_offset(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("B\x1f")
        assert err.value.offset == 1

    def test_truncated_data(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("E")
        assert err.value.offset == 1
        assert "truncated" in str(err.value)

    def test_trailing_garbage_offset(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("BwBw")
        assert err.value.offset == 2

    def test_truncated_long_header(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6("~A")

    def test_non_canonical_long_forms_accepted(self):
        # n=3 spelled in the 18-bit and 36-bit headers; decoders take both.
        assert decoded("~??Bw") == complete(3)
        assert decoded("~~?????Bw") == complete(3)


@st.composite
def gnp(draw):
    """G(n, p) with n = 0..140, across the 62/63 header switch, and a few
    byte widths past 256 vertices."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=140), st.sampled_from([62, 63, 255, 256, 257, 300])))
    return random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32))))


def decode_outcome(decode, text):
    """The graph a decoder returns, or the message and offset it raises."""
    try:
        g = decode(text)
    except Graph6ParseError as exc:
        return ("error", str(exc), exc.offset)
    return ("graph", g.n, g.rows)


BAD_CHARS = st.one_of(
    st.integers(min_value=0, max_value=62).map(chr),
    st.integers(min_value=127, max_value=255).map(chr),
    st.characters(min_codepoint=256),
)


@st.composite
def damaged_graph6(draw):
    """graph6 text of a G(n, p) graph, maybe framed by the header and a
    newline, with one bad character, truncated data or trailing data."""
    body = encode_graph6(draw(gnp()))
    damage = draw(st.sampled_from(["char", "truncate", "trail"]))
    if damage == "char":
        k = draw(st.integers(min_value=0, max_value=len(body) - 1))
        body = body[:k] + draw(BAD_CHARS) + body[k + 1 :]
    elif damage == "truncate":
        body = body[: draw(st.integers(min_value=1, max_value=len(body)))]
    else:
        body += draw(st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1, max_size=5))
    header = draw(st.sampled_from(["", ">>graph6<<"]))
    return header + body + draw(st.sampled_from(["", "\n", " \r\n"]))


class TestCodecsMatchTheBitwiseOracles:
    @settings(max_examples=150, deadline=None)
    @given(gnp())
    def test_encode_decode_dimacs(self, g):
        text = encode_graph6(g)
        assert text == bitwise_encode_graph6(g)
        assert decoded(text) == bitwise_decode_graph6(text) == g
        assert encode_dimacs(g) == edgewise_encode_dimacs(g)

    @settings(max_examples=300, deadline=None)
    @given(damaged_graph6())
    def test_parse_errors(self, text):
        assert decode_outcome(decode_graph6, text) == decode_outcome(bitwise_decode_graph6, text)

    @settings(max_examples=100, deadline=None)
    @given(gnp(), st.integers(min_value=1, max_value=31))
    def test_nonzero_padding_is_ignored(self, g, bits):
        pad = -(g.n * (g.n - 1) // 2) % 6
        text = encode_graph6(g)
        text = text[:-1] + chr(ord(text[-1]) | bits & ((1 << pad) - 1))
        assert decoded(text) == bitwise_decode_graph6(text) == g


class TestDimacs:
    def test_path3(self):
        assert encode_dimacs(path(3)) == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_empty2(self):
        assert encode_dimacs(empty(2)) == "p edge 2 0\n"

    def test_complete3_sorted(self):
        assert encode_dimacs(complete(3)) == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


class TestReports:
    def test_json_round_trip_lossless(self, tmp_path):
        report = run_verification("1.2", 2, DEFAULT_PROFILE)
        target = tmp_path / "r.json"
        write_report(target, report)
        assert read_report(target) == report

    def test_deterministic_bytes_excluding_timestamps(self):
        a = run_verification("1.2", 3, DEFAULT_PROFILE)
        b = run_verification("1.2", 3, DEFAULT_PROFILE)
        assert report_to_json(strip_volatile(a)) == report_to_json(strip_volatile(b))

    def test_load_reverifies_witnesses(self, tmp_path):
        report = run_verification("1.1", 3, DEFAULT_PROFILE)
        target = tmp_path / "r.json"
        write_report(target, report)
        loaded = load_report(target)
        assert loaded["checks"][0]["witness"] == [2, 3]

    def test_load_rejects_tampered_witness(self, tmp_path):
        report = run_verification("1.1", 3, DEFAULT_PROFILE)
        report["checks"][0]["witness"] = [0, 5]
        target = tmp_path / "r.json"
        write_report(target, report)
        with pytest.raises(ValueError, match="re-verification"):
            load_report(target)
        assert verify_report(report)

    def test_load_rejects_tampered_status(self, tmp_path):
        report = run_verification("1.2", 2, DEFAULT_PROFILE)
        report["checks"][0]["status"] = "CONFIRMED"
        target = tmp_path / "r.json"
        write_report(target, report)
        with pytest.raises(ValueError):
            load_report(target)

    def test_schema_version_required(self):
        report = run_verification("1.1", 3, DEFAULT_PROFILE)
        report["schema_version"] = "0"
        assert verify_report(report)

    def test_profile_spelled_out(self):
        report = run_verification("1.1", 4, DEFAULT_PROFILE)
        assert report["profile"] == {
            "sum": "disjoint_union",
            "prod": "lexicographic",
            "base_case": "explicit_path",
            "y_label": 2,
        }
        assert report["notes"]

    def test_canonical_json_is_sorted(self):
        report = run_verification("1.1", 3, DEFAULT_PROFILE)
        text = report_to_json(report)
        assert json.loads(text) == report
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_full_corpus_round_trip():
    for profile in all_profiles():
        for r in range(3, 7):
            g = build_F(r, profile).graph
            assert decoded(encode_graph6(g)) == g
        for t in range(3, 7):
            g = build_SF(t, profile).graph
            assert decoded(encode_graph6(g)) == g


def test_exports_match_their_digest():
    """What ``sfcheck build`` writes, pinned: one sha256 over the graph6
    and DIMACS text and the label bytes of F(3..8), then SF(3..7), under
    each profile in ``all_profiles`` order."""
    total = hashlib.sha256()
    for profile in all_profiles():
        for build, params in ((build_F, range(3, 9)), (build_SF, range(3, 8))):
            for param in params:
                lg = build(param, profile)
                total.update(encode_graph6(lg.graph).encode())
                total.update(encode_dimacs(lg.graph).encode())
                total.update(bytes(lg.labels))
    assert total.hexdigest() == "44609028c458978a96e841c54f9eaf88856d50f8675d9c80f68e754ffcf5e8f4"
