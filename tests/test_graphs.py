"""Graph value and algebra tests."""

import copy
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck.construct import DEFAULT_PROFILE, build_F, build_SF
from sfcheck.formats import decode_graph6, encode_graph6
from sfcheck.graphs import (
    PRODUCT_KINDS,
    Graph,
    as_vertex_set,
    combine,
    complement,
    complete,
    cycle,
    empty,
    path,
    product,
    random_graph,
    transpose_rows,
)
from sfcheck.report import run_verification
from sfcheck.solve import max_independent_set, verify_witness

from oracles import (
    all_profiles,
    bitwise_transpose,
    brute_force_isomorphic,
    clear_memos,
    edge_set,
    naive_product_edges,
    pairwise_induced,
    walk_problems,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, (p for p, keep in zip(pairs, picks) if keep))


class TestGraphValue:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b11))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1, ())

    def test_from_edges_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_vertex_set_validation(self):
        g = path(4)
        assert as_vertex_set(g, [3, 0]) == (0, 3)
        with pytest.raises(ValueError):
            as_vertex_set(g, [0, 0])
        with pytest.raises(ValueError):
            as_vertex_set(g, [4])

    def test_vertex_set_rejects_bools(self):
        with pytest.raises(ValueError):
            as_vertex_set(path(4), [True, 2])

    @pytest.mark.parametrize(
        "members, message",
        [
            ([1.5, 2], "vertex 1.5 is not an int"),
            (["a"], "vertex 'a' is not an int"),
            ([2, "a", 1], "vertex 'a' is not an int"),
            ([True, 2], "vertex True out of range for n=4"),
            ([0, 4], "vertex 4 out of range for n=4"),
            ([-1, 2], "vertex -1 out of range for n=4"),
            ([1, True], "vertex set contains duplicates"),
        ],
    )
    def test_vertex_set_names_the_offender(self, members, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_vertex_set(complete(4), members)

    @pytest.mark.parametrize("members", [[1.5, 2], ["a"]])
    def test_witness_check_rejects_non_int_vertices(self, members):
        with pytest.raises(ValueError, match="is not an int"):
            verify_witness(complete(4), members, "clique")

    def test_problems_lists_every_violation_without_raising(self):
        g = Graph._trusted(3, (0b1001, 0b011, 0b000))
        assert list(g.problems()) == [
            "row 0 addresses vertices outside 0..2",
            "self-loop at vertex 0",
            "self-loop at vertex 1",
            "asymmetric adjacency between 1 and 0",
        ]
        with pytest.raises(ValueError, match="^row 0 addresses vertices outside 0..2$"):
            Graph(3, g.rows)
        assert list(Graph._trusted(2, (0,)).problems()) == ["rows length must equal vertex count"]
        assert list(complete(4).problems()) == []

    @pytest.mark.parametrize(
        "n, rows, problem",
        [
            (2, (0.5, 0), "row 0 must be an int"),
            (1, (None,), "row 0 must be an int"),
            (2, (0, True), "row 1 must be an int"),
            ("2", (0, 0), "vertex count must be an int"),
            (True, (0,), "vertex count must be an int"),
            (2, [0, 0], "rows must be a tuple"),
        ],
    )
    def test_problems_name_wrong_types_without_raising(self, n, rows, problem):
        assert list(Graph._trusted(n, rows).problems()) == [problem]
        with pytest.raises(ValueError, match=f"^{problem}$"):
            Graph(n, rows)


class TestPrimitives:
    def test_empty_two(self):
        g = empty(2)
        assert g.n == 2 and g.m == 0

    def test_path_six_edges(self):
        g = path(6)
        assert edge_set(g) == {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]}

    def test_complete_four(self):
        assert complete(4).m == 6

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)
        assert cycle(3).m == 3

    @pytest.mark.parametrize("build", [empty, complete])
    def test_negative_count(self, build):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            build(-1)


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete(3)) == empty(3)

    def test_c5_self_complementary(self):
        assert brute_force_isomorphic(complement(cycle(5)), cycle(5))

    def test_involution_bit_identical(self):
        g = path(6)
        assert complement(complement(g)) == g


class TestCombine:
    def test_disjoint_union_counts(self):
        g = combine(complete(2), complete(3), "disjoint_union")
        assert g.n == 5 and g.m == 4

    def test_join_of_cliques_is_clique(self):
        assert combine(complete(2), complete(3), "join") == complete(5)

    def test_union_of_singletons(self):
        assert combine(empty(1), empty(1), "disjoint_union") == empty(2)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            combine(empty(1), empty(1), "sum")

    def test_operand_order(self):
        g = combine(complete(2), empty(2), "disjoint_union")
        assert g.has_edge(0, 1) and not g.has_edge(2, 3)


class TestProduct:
    def test_cartesian_with_edgeless_factor(self):
        g = product(empty(2), complete(2), "cartesian")
        assert g.n == 4 and g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(2, 3) and not g.has_edge(0, 2)

    def test_tensor_with_edgeless_factor(self):
        g = product(empty(2), complete(2), "tensor")
        assert g.n == 4 and g.m == 0

    def test_lexicographic_copies(self):
        # Three disjoint copies of a 2-edge graph: 12 vertices, 6 edges.
        base = combine(complete(2), complete(2), "disjoint_union")
        g = product(empty(3), base, "lexicographic")
        assert g.n == 12 and g.m == 6
        assert edge_set(g) == naive_product_edges(empty(3), base, "lexicographic")

    @pytest.mark.parametrize("kind", ["cartesian", "tensor", "lexicographic"])
    def test_matches_naive_definition(self, kind):
        rng = random.Random(11)
        for _ in range(12):
            a = empty(rng.randint(0, 4))
            b = random_graph(rng.randint(0, 4), 0.5, rng)
            assert edge_set(product(a, b, kind)) == naive_product_edges(a, b, kind)

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    def test_rejects_a_left_factor_with_an_edge(self, kind):
        with pytest.raises(ValueError, match="edgeless left factor"):
            product(path(2), complete(2), kind)

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    def test_edgeless_left_factor_gives_copies_or_isolated_vertices(self, kind):
        # The identity the stage memo keys on: empty(k) x G is k disjoint
        # copies of G under lexicographic and cartesian, and edgeless under tensor.
        rng = random.Random(12)
        for _ in range(12):
            k = rng.randint(0, 4)
            b = random_graph(rng.randint(0, 5), 0.5, rng)
            if kind == "tensor":
                expected = empty(k * b.n)
            else:
                expected = empty(0)
                for _ in range(k):
                    expected = combine(expected, b, "disjoint_union")
            assert product(empty(k), b, kind) == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            product(empty(2), empty(2), "strong")


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6))
def test_combine_edge_counts(a, b):
    assert combine(a, b, "join").m == a.m + b.m + a.n * b.n
    assert combine(a, b, "disjoint_union").m == a.m + b.m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4), graphs(max_n=5))
def test_edgeless_factor_product_properties(k, b):
    a = empty(k)
    lex = product(a, b, "lexicographic")
    assert lex == product(a, b, "cartesian")
    assert product(a, b, "tensor").m == 0
    assert lex.m == k * b.m
    # Each copy is the base graph.
    for i in range(k):
        assert pairwise_induced(lex, range(i * b.n, (i + 1) * b.n)) == b


def assert_passes_public_check(g):
    assert type(g.rows) is tuple
    assert Graph(g.n, g.rows) == g


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6), st.sets(st.integers(min_value=0, max_value=5)))
def test_operations_preserve_invariants(a, b, picks):
    # The algebra and random_graph build their output unchecked; re-run
    # the public check on it.
    outputs = [
        complement(a),
        combine(a, b, "disjoint_union"),
        combine(a, b, "join"),
        complete(a.n),
        empty(a.n),
        random_graph(a.n, 0.5, random.Random(sum(picks))),
    ]
    outputs.extend(product(empty(a.n), b, kind) for kind in PRODUCT_KINDS)
    for g in outputs:
        assert_passes_public_check(g)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_builds_preserve_invariants(profile):
    for t in range(3, 7):
        assert_passes_public_check(build_F(t, profile).graph)
        assert_passes_public_check(build_SF(t, profile).graph)


@st.composite
def doctored_rows(draw):
    """(n, rows) of a G(n, p) graph with up to four faults written into its
    rows: a bit only below the diagonal, a bit at or beyond n, a self-loop,
    a bit flipped in the last row alone.  n crosses byte widths and runs
    past 256 vertices."""
    n = draw(st.one_of(st.integers(min_value=0, max_value=140), st.sampled_from([255, 256, 257, 300])))
    g = random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32))))
    rows = list(g.rows)
    for _ in range(draw(st.integers(min_value=0, max_value=4 if n else 0))):
        fault = draw(st.sampled_from(["below", "beyond", "loop", "last"]))
        i = draw(st.integers(min_value=0, max_value=n - 1))
        if fault == "below" and i > 0:
            j = draw(st.integers(min_value=0, max_value=i - 1))
            rows[i] |= 1 << j
            rows[j] &= ~(1 << i)
        elif fault == "beyond":
            rows[i] |= 1 << (n + draw(st.integers(min_value=0, max_value=3)))
        elif fault == "loop":
            rows[i] |= 1 << i
        elif fault == "last" and n > 1:
            rows[-1] ^= 1 << draw(st.integers(min_value=0, max_value=n - 2))
    return n, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(doctored_rows())
def test_problems_match_the_per_bit_walk(case):
    n, rows = case
    expected = walk_problems(n, rows)
    assert list(Graph._trusted(n, rows).problems()) == expected
    if expected:
        with pytest.raises(ValueError, match=f"^{re.escape(expected[0])}$"):
            Graph(n, rows)
    else:
        assert Graph(n, rows).rows == rows


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 513]).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    )
)
def test_transpose_matches_the_per_bit_definition(case):
    n, rows = case
    assert transpose_rows(rows) == bitwise_transpose(rows, n)


@pytest.mark.parametrize("n", [1, 8, 255, 256, 300])
@pytest.mark.parametrize("fault", ["negative", "far negative", "past the packed width", "far past n"])
def test_rows_out_of_range_are_named_before_packing(n, fault):
    # A negative row, or one a byte or more wider than n bits, or far
    # past n, is named as out of range, never raised as another error.
    last = {
        "negative": -1,
        "far negative": -(1 << 4000),
        "past the packed width": 1 << 8 * (n // 8 + 1),
        "far past n": 1 << 4000,
    }[fault]
    rows = (*complete(n).rows[:-1], last)
    expected = walk_problems(n, rows)
    assert f"row {n - 1} addresses vertices outside 0..{n - 1}" in expected
    assert list(Graph._trusted(n, rows).problems()) == expected
    with pytest.raises(ValueError, match=f"^{re.escape(expected[0])}$"):
        Graph(n, rows)


def test_decode_memory_stays_near_the_matrix():
    # A small multiple of the n²/8 bytes of the rows: decode holds the
    # packed matrix and a few big ints of its size, never a string per bit.
    n = 2000
    g = random_graph(n, 0.5, random.Random(2000))
    text = encode_graph6(g)
    tracemalloc.start()
    try:
        assert decode_graph6(text) == g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # eight times the rows' n²/8 bytes


PATH6_ROWS = path(6).rows


@pytest.fixture
def checked(monkeypatch):
    """(n, rows) of every graph that runs Graph's invariant check."""
    calls = []
    check = Graph.__post_init__

    def counting(self):
        calls.append((self.n, self.rows))
        check(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    return calls


class TestTrustBoundary:
    def test_only_boundary_constructions_check(self, checked):
        clear_memos()  # so that run_verification builds every stage of SF(8)
        run_verification("1.2", 7)
        max_independent_set(build_SF(8).graph)
        # One check per build of stages 3..8: the explicit base path's from_edges.
        assert checked == [(6, PATH6_ROWS)] * 2

    def test_public_constructors_check_once(self, checked):
        Graph(3, (0b110, 0b101, 0b011))
        assert len(checked) == 1
        Graph.from_edges(3, [(0, 1)])
        assert len(checked) == 2

    def test_decode_runs_no_check(self, checked):
        # The text is checked in full, and the rows it gives are valid by
        # construction; tests/test_formats.py walks every decoded graph.
        assert decode_graph6("Bw") == complete(3)
        assert checked == []

    def test_random_graph_runs_no_check(self, checked):
        # Each edge drawn is set in both rows and none on the diagonal;
        # test_operations_preserve_invariants walks what it returns.
        assert random_graph(4, 1.0, random.Random(1)) == complete(4)
        assert checked == []

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((0b10, 0b00), "asymmetric"),
            ((0b11, 0b01), "self-loop"),
            ((0b100, 0b000), "outside"),
        ],
    )
    def test_public_constructor_still_rejects(self, checked, rows, message):
        with pytest.raises(ValueError, match=message):
            Graph(2, rows)
        assert len(checked) == 1


# A valid instance of each checked record, field changes that make it
# invalid, and the ValueError those changes raise.
INVALID_RECORDS = [
    (path(3), {"rows": (0b010, 0b101, 0b000)}, "asymmetric adjacency between 1 and 2"),
    (path(3), {"n": 2}, "rows length must equal vertex count"),
    (DEFAULT_PROFILE, {"y_label": 3}, "y_label must be 1 or 2, got 3"),
    (DEFAULT_PROFILE, {"sum": "meet"}, "unknown sum reading 'meet'"),
    (build_F(4), {"labels": (1,) * 23 + (3,)}, "label 3 outside {1, 2}"),
    (build_F(4), {"labels": (1,) * 23 + (2.0,)}, "label 2.0 outside {1, 2}"),
    (build_F(4), {"labels": (1, 2)}, "labels length must equal vertex count"),
]


@pytest.mark.parametrize("record, changes, message", INVALID_RECORDS)
def test_every_construction_path_checks(record, changes, message):
    """The constructor, by position or keyword, ``replace``, a pickle round
    trip under every protocol and a copy all raise the same ValueError for
    the same invalid fields."""
    invalid = record._replace(**changes)  # the named tuple's unchecked route
    paths = {
        "positional": lambda: type(record)(*invalid),
        "keyword": lambda: type(record)(**invalid._asdict()),
        "replace": lambda: record.replace(**changes),
        **{f"pickle {p}": lambda p=p: pickle.loads(pickle.dumps(invalid, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
        "copy": lambda: copy.copy(invalid),
        "deepcopy": lambda: copy.deepcopy(invalid),
    }
    for name, make in paths.items():
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message, name


@pytest.mark.parametrize("record", [path(3), DEFAULT_PROFILE, build_F(4)], ids=lambda r: type(r).__name__)
def test_valid_records_survive_every_construction_path(record):
    pickled = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in (*pickled, copy.deepcopy(record), record.replace()):
        assert type(made) is type(record) and made == record
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
