"""Serialization tests: graph6, DIMACS, and JSON reports."""

import errno
import hashlib
import json
import os
import random
import stat

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import formats
from sfcheck.construct import DEFAULT_PROFILE, build_F, build_SF
from sfcheck.formats import Graph6ParseError, decode_graph6, encode_dimacs, encode_graph6, graph6_chunks
from sfcheck.graphs import Graph, complete
from sfcheck.report import (
    _canonical,
    load_report,
    report_to_json,
    run_verification,
    strip_volatile,
    verify_report,
    write_report,
    write_text,
)

from oracles import (
    all_profiles,
    bitwise_decode_graph6,
    bitwise_encode_graph6,
    combine,
    edge_set,
    edgewise_encode_dimacs,
    empty,
    family_representatives,
    from_edges,
    path,
    random_graph,
    rowwise_encode_graph6,
    walk_problems,
)


def nx_encode(g: Graph) -> str:
    h = nx.empty_graph(g.n)
    h.add_edges_from(map(tuple, edge_set(g)))
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def decoded(text: str) -> Graph:
    """``decode_graph6(text)``, whose rows the per-bit walk must pass: decode
    checks the text, not the rows it builds from it."""
    g = decode_graph6(text)
    assert walk_problems(g.n, g.rows) == []
    return g


def nx_decode(text: str) -> Graph:
    h = nx.from_graph6_bytes(text.encode("ascii"))
    return from_edges(h.number_of_nodes(), h.edges())


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
def gnp(draw, past_256=True):
    """G(n, p) with n = 0..140, across the 62/63 header switch, and unless
    ``past_256`` is false a few byte widths past 256 vertices."""
    widths = [62, 63, 255, 256, 257, 300] if past_256 else [62, 63]
    n = draw(st.one_of(st.integers(min_value=0, max_value=140), st.sampled_from(widths)))
    return random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32))))


def first_n_past(bits: int) -> int:
    """The least n whose triangle, n(n-1)/2 bits, holds more than ``bits``."""
    n = 0
    while n * (n - 1) // 2 <= bits:
        n += 1
    return n


# n whose triangle crosses one chunk boundary of ``graph6_chunks``, then two.
CHUNK_CROSSING = [first_n_past(k * formats._CHUNK_BITS) + d for k in (1, 2) for d in (-1, 0, 1)]


@st.composite
def chunked_gnp(draw):
    """G(n, p) with n = 0..70, across the 62/63 header switch, and n whose
    triangle ``graph6_chunks`` spells in one, two or three chunks."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=70), st.sampled_from([62, 63, *CHUNK_CROSSING])))
    return random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32))))


@st.composite
def blown_up(draw):
    """A random base graph on 1..30 vertices, each vertex blown up into a
    run of 1..5 consecutive twins, true (adjacent to each other) or false.
    Twins agree above themselves, the rows whose names ``dimacs_rows``
    keeps from the row before; ``gnp`` draws them almost only at p = 0 or 1."""
    base = random_graph(draw(st.integers(1, 30)), draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32))))
    runs = draw(st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=base.n, max_size=base.n))
    owner = [x for x, (size, _) in enumerate(runs) for _ in range(size)]
    edges = []
    for v, y in enumerate(owner):
        for u, x in enumerate(owner[:v]):
            if runs[x][1] if x == y else base.has_edge(x, y):
                edges.append((u, v))
    return from_edges(len(owner), edges)


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


def assert_dimacs_matches_the_edgewise_encoder(g):
    # Line by line: on a mismatch pytest names the first line that differs
    # at once, where its diff of two whole texts of K_140 runs for minutes.
    assert encode_dimacs(g).splitlines(True) == edgewise_encode_dimacs(g).splitlines(True)


class TestCodecsMatchTheBitwiseOracles:
    @settings(max_examples=150, deadline=None)
    @given(gnp())
    def test_encode_decode_graph6(self, g):
        text = encode_graph6(g)
        assert text == bitwise_encode_graph6(g)
        assert decoded(text) == bitwise_decode_graph6(text) == g

    @settings(max_examples=150, deadline=None)
    @given(gnp(past_256=False))  # n <= 140, so each shrink step of a failure stays fast
    def test_encode_dimacs(self, g):
        assert_dimacs_matches_the_edgewise_encoder(g)

    @settings(max_examples=200, deadline=None)
    @given(chunked_gnp())
    def test_graph6_matches_the_rowwise_encoder(self, g):
        expected = rowwise_encode_graph6(g)
        assert encode_graph6(g) == "".join(graph6_chunks(g.n, iter(g.rows))) == expected

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

    @settings(max_examples=200, deadline=None)
    @given(blown_up())
    def test_twin_runs_match_the_edgewise_encoder(self, g):
        assert_dimacs_matches_the_edgewise_encoder(g)

    @pytest.mark.parametrize("n", range(13))
    def test_one_twin_run_to_the_last_vertex(self, n):
        # Every row agrees with the row before above it: K_n drops the
        # first name each row, empty(n) keeps an empty list.
        for g in (complete(n), empty(n)):
            assert_dimacs_matches_the_edgewise_encoder(g)

    @pytest.mark.parametrize("a", range(13))
    def test_complete_bipartite_in_either_order(self, a):
        # K_{a,b}: a false twins naming the whole second part, then b false
        # twins with no neighbor above, the last of them the last vertex.
        # At b = 1 that vertex's empty list is the row before's less its one
        # name.  (a, b) and (b, a) both run, so each order of the parts does.
        for b in range(13 - a):
            g = combine(empty(a), empty(b), "join")
            assert_dimacs_matches_the_edgewise_encoder(g)


class TestReports:
    def test_json_round_trip_lossless(self, tmp_path):
        report = run_verification("1.2", 2, DEFAULT_PROFILE)
        target = tmp_path / "r.json"
        write_report(target, report)
        assert json.loads(target.read_text()) == report

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
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("theorem, r", [("1.1", 3), ("1.2", 5)])
    def test_loader_compares_by_the_writers_serializer(self, theorem, r):
        report = run_verification(theorem, r, DEFAULT_PROFILE)
        assert _canonical(report) + "\n" == report_to_json(report)

    def test_indented_report_still_loads(self, tmp_path):
        """A report in the two-space indented form reports were once
        written in loads: the loader compares values, not text."""
        report = run_verification("1.2", 4, DEFAULT_PROFILE)
        target = tmp_path / "indented.json"
        target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        assert load_report(target) == report


def failing_chunks():
    """A chunk source that fails partway, after some text was written."""
    yield "p edge 3 2\n"
    raise ValueError("the source failed")


class TestAtomicWriter:
    def test_report_mode_is_what_open_gives_a_new_file(self, tmp_path, umask):
        target = tmp_path / "r.json"
        write_report(target, run_verification("1.1", 3, DEFAULT_PROFILE))
        assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask

    def test_a_source_that_fails_partway_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="the source failed"):
            write_text(tmp_path / "t.txt", failing_chunks())
        assert os.listdir(tmp_path) == []

    def test_an_existing_target_survives_a_failed_rewrite(self, tmp_path):
        target = tmp_path / "t.txt"
        target.write_text("old\n")
        with pytest.raises(ValueError, match="the source failed"):
            write_text(target, failing_chunks())
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.txt"]

    def test_a_missing_directory_is_an_oserror_naming_the_target(self, tmp_path):
        target = tmp_path / "missing" / "r.json"
        with pytest.raises(OSError) as exc:
            write_report(target, run_verification("1.1", 3, DEFAULT_PROFILE))
        assert exc.value.errno == errno.ENOENT and exc.value.filename == str(target)
        assert os.listdir(tmp_path) == []

    def test_a_target_name_at_the_length_limit_is_written(self, tmp_path):
        # The temporary's name does not grow with the target's.
        target = tmp_path / ("x" * 255)
        write_text(target, iter(["p edge 2 1\n", "e 1 2\n"]))
        assert target.read_text() == "p edge 2 1\ne 1 2\n"
        assert os.listdir(tmp_path) == [target.name]

    def test_a_symlink_in_the_temporarys_place_is_not_followed_nor_removed(self, tmp_path, monkeypatch):
        # With its random bytes fixed, the writer draws one temporary name,
        # seen by a chunk source that lists the directory mid-write.
        monkeypatch.setattr(os, "urandom", lambda size: bytes(size))
        seen = []

        def listing():
            seen.extend(os.listdir(tmp_path))
            yield ""

        write_text(tmp_path / "probe", listing())
        [tmp] = set(seen) - {"probe"}
        victim, target = tmp_path / "victim", tmp_path / "t.txt"
        victim.write_text("keep\n")
        (tmp_path / tmp).symlink_to(victim)
        with pytest.raises(OSError) as exc:
            write_text(target, ["new\n"])
        assert exc.value.errno == errno.EEXIST and exc.value.filename == str(target)
        assert victim.read_text() == "keep\n" and (tmp_path / tmp).is_symlink()
        assert not target.exists()

    def test_a_symlinked_target_is_written_through(self, tmp_path):
        # The file the symlink names is replaced; the symlink stays.
        real, link = tmp_path / "real.dim", tmp_path / "link.dim"
        real.write_text("old\n")
        link.symlink_to("real.dim")
        write_text(link, ["p edge 2 1\n", "e 1 2\n"])
        assert link.is_symlink() and os.readlink(link) == "real.dim"
        assert real.read_text() == "p edge 2 1\ne 1 2\n"
        assert sorted(os.listdir(tmp_path)) == ["link.dim", "real.dim"]

    def test_an_existing_targets_mode_is_kept(self, tmp_path, umask):
        target = tmp_path / "t.txt"
        target.write_text("old\n")
        target.chmod(0o640)
        write_text(target, ["new\n"])
        assert target.read_text() == "new\n" and os.stat(target).st_mode & 0o777 == 0o640

    def test_a_fifo_is_written_in_place(self, tmp_path):
        # A reader opened without blocking lets the writer open the FIFO;
        # the text fits the pipe's buffer, so the write never waits.
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_text(fifo, ["p edge 2 1\n", "e 1 2\n"])
            assert os.read(reader, 1 << 16) == b"p edge 2 1\ne 1 2\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["out.fifo"]


def test_full_corpus_round_trip():
    for profile in family_representatives():
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
