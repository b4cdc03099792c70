"""The component and co-component split that solves every stage side.

Branch and bound (``max_clique``) is the reference: on random cographs,
where the split leaves only single vertices, and on G(n, p) graphs, where
it leaves prime pieces to search, the split must give the same sizes and
witnesses that pass ``verify_witness``.
"""

import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import solve
from sfcheck.construct import build_F
from sfcheck.graphs import Graph, combine, complement, induced, random_graph
from sfcheck.solve import (
    MEMO_SIZE,
    Stack,
    _solve,
    _solve_prime,
    max_clique,
    max_independent_set,
    max_mono_clique,
    stage_solve,
    verify_witness,
)

from oracles import all_profiles

VERTEX = Graph(1, (0,))


def relabel(g, order):
    """``g`` with vertex i renamed order[i]."""
    rows = [0] * g.n
    for i, row in enumerate(g.rows):
        rows[order[i]] = sum(1 << order[j] for j in range(g.n) if row >> j & 1)
    return Graph(g.n, tuple(rows))


@st.composite
def cographs(draw):
    """A random cotree's cograph, on at most 40 vertices, its vertices
    shuffled so that no piece is a contiguous range."""
    tree = draw(
        st.recursive(
            st.just(VERTEX),
            lambda kids: st.tuples(
                st.sampled_from(["disjoint_union", "join"]), st.lists(kids, min_size=2, max_size=4)
            ),
            max_leaves=40,
        )
    )

    def build(node):
        if isinstance(node, Graph):
            return node
        op, kids = node
        return reduce(lambda a, b: combine(a, b, op), map(build, kids))

    g = build(tree)
    return relabel(g, draw(st.permutations(range(g.n))))


def assert_split_matches_search(g):
    """Returns the nodes the split's searches took."""
    nodes = 0
    for h in (g, complement(g)):
        for mode, search in (("clique", max_clique), ("independent", max_independent_set)):
            res = _solve(h, mode)
            assert res.size == search(h).size
            assert len(res.witness) == res.size and verify_witness(h, res.witness, mode)
            nodes += res.nodes_explored
    return nodes


@settings(max_examples=150, deadline=None)
@given(cographs())
def test_split_matches_search_on_cographs(g):
    assert assert_split_matches_search(g) == 0  # no piece of a cograph is prime


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_matches_search_on_random_graphs(n, p, seed):
    assert_split_matches_search(random_graph(n, p, random.Random(seed)))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_of_a_label_class_matches_search_on_the_induced_graph(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    labels = tuple(rng.choice((1, 2)) for _ in range(n))
    members = [v for v in range(n) if labels[v] == 1]
    sub = induced(g, members)
    for mode, search in (("clique", max_clique), ("independent", max_independent_set)):
        res = _solve(g, mode, labels, 1)
        assert res.size == search(sub).size
        assert set(res.witness) <= set(members) and verify_witness(g, res.witness, mode)


def test_deep_cotree_needs_no_recursion():
    """A threshold graph, each vertex isolated from or joined to all the
    vertices before it, alternately: its cotree is as deep as it has
    vertices, past Python's default recursion limit."""
    n = 1100
    rows = [0] * n
    for v in range(1, n, 2):
        rows[v] = (1 << v) - 1
        for u in range(v):
            rows[u] |= 1 << v
    g = Graph(n, tuple(rows))
    clique = _solve(g, "clique")
    assert clique.size == n // 2 + 1 and clique.nodes_explored == 0
    assert _solve(g, "independent").size == n // 2


def test_search_sees_nothing_past_the_base_path(monkeypatch):
    """Under every profile, the route on SF(3..12) and the single-label
    cliques of F(3..12) pass branch and bound no piece above six vertices."""
    sizes = []

    def recording(g):
        sizes.append(g.n)
        return max_clique(g)

    monkeypatch.setattr(solve, "max_clique", recording)
    for memo in (solve.stage, _solve, _solve_prime):
        memo.cache_clear()
    for profile in all_profiles():
        for t in range(3, 13):
            stage_solve(Stack("SF", t, profile))
            f = build_F(t, profile)
            max_mono_clique(f.graph, f.labels)
    assert sizes and max(sizes) <= 6


def test_memos_stay_bounded():
    _solve.cache_clear()
    _solve_prime.cache_clear()
    for seed in range(1000):
        rng = random.Random(seed)
        g = random_graph(rng.randint(8, 16), 0.5, rng)
        labels = tuple(rng.choice((1, 2)) for _ in range(g.n))
        max_mono_clique(g, labels)
    for memo in (solve.stage, _solve, _solve_prime):
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= MEMO_SIZE
    assert _solve.cache_info().misses > MEMO_SIZE
