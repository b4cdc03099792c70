"""Solver tests: exact values against enumeration oracles, witnesses, determinism."""

import random
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcheck.construct import (
    DEFAULT_PROFILE,
    _members,
    InterpretationProfile,
    build_F,
    build_SF,
)
from sfcheck.formats import encode_graph6
from sfcheck.graphs import Graph, complement, complete
from sfcheck import solve
from sfcheck.solve import (
    _degeneracy_order,
    _flip,
    _holds,
    max_clique,
    max_independent_set,
    oracle_max_clique,
)

from oracles import (
    combine,
    cycle,
    empty,
    from_edges,
    max_mono_clique,
    pairwise_witness_ok,
    path,
    random_graph,
    recursive_max_clique,
    scan_degeneracy_order,
    subset_max_clique,
    subset_max_independent,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, (p for p, keep in zip(pairs, picks) if keep))


class TestMaxClique:
    def test_triangle_free_cycle(self):
        assert max_clique(cycle(5)).size == 2

    def test_complete(self):
        res = max_clique(complete(7))
        assert res.size == 7 and res.witness == tuple(range(7))

    def test_empty_graph(self):
        res = max_clique(empty(0))
        assert res.size == 0 and res.witness == ()

    def test_edgeless(self):
        assert max_clique(empty(5)).size == 1

    def test_witness_always_verifies(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(0, 10), rng.choice([0.2, 0.5, 0.8]), rng)
            res = max_clique(g)
            assert pairwise_witness_ok(g, res.witness, "clique")
            assert len(res.witness) == res.size

    def test_deterministic_across_runs(self):
        rng = random.Random(5)
        g = random_graph(12, 0.5, rng)
        first = max_clique(g)
        second = max_clique(g)
        assert (first.size, first.witness, first.nodes_explored) == (
            second.size,
            second.witness,
            second.nodes_explored,
        )


class TestMaxIndependentSet:
    def test_path(self):
        assert max_independent_set(path(6)).size == 3

    def test_complete(self):
        assert max_independent_set(complete(5)).size == 1

    def test_cycle(self):
        assert max_independent_set(cycle(5)).size == 2

    def test_witness_is_independent(self):
        rng = random.Random(9)
        g = random_graph(10, 0.5, rng)
        res = max_independent_set(g)
        assert pairwise_witness_ok(g, res.witness, "independent")


class TestOracle:
    def test_cycle(self):
        assert oracle_max_clique(cycle(5)) == 2

    def test_complete(self):
        assert oracle_max_clique(complete(10)) == 10

    def test_complement_of_path(self):
        # alpha(P6) = 3 and omega of the complement equals alpha.
        assert oracle_max_clique(complement(path(6))) == 3
        assert subset_max_independent(path(6)) == 3

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            oracle_max_clique(empty(25))

    def test_oracle_matches_subset_enumeration(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]), rng)
            assert oracle_max_clique(g) == subset_max_clique(g)


@cache
def oracle_graphs() -> list[Graph]:
    """600 G(n, p) graphs, seed 1, each n drawn from 1 up to the oracle's cap
    of 24 and p taking 0.2, 0.5 and 0.8 in turn: where the search's
    degeneracy renumbering and its highest-bit-first peeling have the most
    room to go wrong."""
    rng = random.Random(1)
    densities = (0.2, 0.5, 0.8)
    return [random_graph(rng.randint(1, solve.ORACLE_MAX_N), densities[trial % 3], rng) for trial in range(600)]


class TestSolverAgainstOracle:
    def test_random_instances(self):
        for g in oracle_graphs():
            assert max_clique(g).size == oracle_max_clique(g), encode_graph6(g)

    def test_independent_set_via_complement(self):
        for g in oracle_graphs():
            assert max_independent_set(g).size == oracle_max_clique(complement(g)), encode_graph6(g)


class TestMaxMonoClique:
    def test_explicit_path_witness(self):
        lg = build_F(3, DEFAULT_PROFILE)
        res = max_mono_clique(lg.graph, lg.labels)
        assert res.size == 2
        assert res.witness == (2, 3)
        assert {lg.labels[v] for v in res.witness} == {1}

    def test_uniform_labels_degenerate_to_clique_number(self):
        rng = random.Random(21)
        g = random_graph(9, 0.5, rng)
        assert max_mono_clique(g, (1,) * 9).size == max_clique(g).size

    def test_f4_matches_per_class_enumeration(self):
        lg = build_F(4, DEFAULT_PROFILE)
        expected = max(
            subset_max_clique(lg.graph, [v for v in range(lg.graph.n) if lg.labels[v] == 1]),
            subset_max_clique(lg.graph, [v for v in range(lg.graph.n) if lg.labels[v] == 2]),
        )
        res = max_mono_clique(lg.graph, lg.labels)
        assert res.size == expected == 3
        assert len({lg.labels[v] for v in res.witness}) == 1

    def test_bounded_by_clique_number(self):
        for r in (3, 4, 5):
            lg = build_F(r, DEFAULT_PROFILE)
            assert max_mono_clique(lg.graph, lg.labels).size <= max_clique(lg.graph).size


class TestWitnessChecks:
    """``_holds``, the program's witness check, on masks, and the tests'
    pairwise reference, which refuses what is no set of vertices."""

    def test_clique_true(self):
        assert _holds(complete(4).rows, 0b0111, _flip("clique"))

    def test_independent_true(self):
        assert _holds(path(6).rows, 0b10101, _flip("independent"))

    def test_clique_false(self):
        assert not _holds(path(6).rows, 0b1011, _flip("clique"))

    def test_invalid_set_rejected(self):
        with pytest.raises(ValueError, match="not a set of vertices"):
            pairwise_witness_ok(path(6), (0, 0), "clique")
        with pytest.raises(ValueError, match="not a set of vertices"):
            pairwise_witness_ok(path(6), (0, 6), "independent")
        for check in (_flip, lambda mode: pairwise_witness_ok(path(6), (0, 1), mode)):
            with pytest.raises(ValueError, match="unknown witness mode 'anticlique'"):
                check("anticlique")


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_clique_number_of_complement_is_independence_number(g):
    assert max_clique(g).size == max_independent_set(complement(g)).size


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=8))
def test_solver_agrees_with_oracle(g):
    assert max_clique(g).size == oracle_max_clique(g)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_clique_number_composition_rules(a, b):
    wa, wb = max_clique(a).size, max_clique(b).size
    assert max_clique(combine(a, b, "join")).size == wa + wb
    assert max_clique(combine(a, b, "disjoint_union")).size == max(wa, wb)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=14))
def test_degeneracy_order_matches_scan(g):
    for h in (g, complement(g)):
        assert _degeneracy_order(h.rows, h.n) == scan_degeneracy_order(h.rows, h.n)


@pytest.mark.parametrize(
    "profile",
    [
        DEFAULT_PROFILE,
        InterpretationProfile(sum="join", prod="cartesian", base_case="general", y_label=1),
        InterpretationProfile(prod="tensor", y_label=1),
        InterpretationProfile(sum="join", base_case="general"),
    ],
)
def test_degeneracy_order_matches_scan_on_sf(profile):
    for t in range(3, 10):
        g = build_SF(t, profile).graph
        for h in (g, complement(g)):
            assert _degeneracy_order(h.rows, h.n) == scan_degeneracy_order(h.rows, h.n)


# One profile per sum reading crossed with tensor / non-tensor products.
TREE_PROFILES = [
    DEFAULT_PROFILE,
    InterpretationProfile(sum="join", prod="cartesian", base_case="general", y_label=1),
    InterpretationProfile(prod="tensor", y_label=1),
    InterpretationProfile(sum="join", prod="tensor", base_case="general"),
]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=80),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(80, 0.5, 1)
@example(80, 0.85, 2)
@example(0, 0.5, 0)
@example(1, 0.5, 0)
@example(2, 1.0, 0)
@example(120, 0.7, 3)
def test_search_tree_matches_recursive_search(n, p, seed):
    """Same size, witness and node count as the recursive search."""
    g = random_graph(n, p, random.Random(seed))
    for h in (g, complement(g)):
        assert max_clique(h) == recursive_max_clique(h)


@pytest.mark.parametrize("profile", TREE_PROFILES)
def test_search_tree_matches_recursive_search_on_builds(profile):
    builds = [build_F(r, profile).graph for r in range(3, 9)]
    builds += [build_SF(t, profile).graph for t in range(3, 8)]
    for g in builds:
        for h in (g, complement(g)):
            assert max_clique(h) == recursive_max_clique(h)


def test_deep_search_needs_no_recursion(monkeypatch):
    """A one-vertex seed makes the search descend through all 1200 vertices
    of the complete graph, past Python's default recursion limit: one node
    per level, from the one root the bound leaves."""
    monkeypatch.setattr(solve, "_greedy_clique", lambda rows, n: [0] if n else [])
    expected = (1200, tuple(range(1200)), 1200)
    assert max_clique(complete(1200)) == expected
    assert max_independent_set(empty(1200)) == expected


def test_base_path_searches_are_pinned():
    """The base path and its complement are the only graphs a report sends
    to the search, so a change to the search that would move a report's
    witness or node count fails here first."""
    assert max_clique(path(6)) == (2, (0, 1), 0)
    assert max_clique(complement(path(6))) == (3, (0, 2, 4), 1)


def test_search_colors_nodes_deeper_than_best():
    """The circulant C_17(2, 4, 5, 6, 7, 8) (degree 12, omega 7) beside a
    hub of 13 pendant vertices: the hub's degree draws the greedy seed to
    the hub and one pendant, so the search colors nodes of depth 3 and more
    while best_size is 2.  Such a node skips max(best_size - depth, 0) = 0
    classes; without the clamp at 0 it would be bounded by best_size, not
    its depth, and prune a branch the reference takes."""
    n = 17
    edges = {tuple(sorted((u, (u + s) % n))) for u in range(n) for s in (2, 4, 5, 6, 7, 8)}
    g = from_edges(n + 14, [*edges, *((n, v) for v in range(n + 1, n + 14))])
    assert len(solve._greedy_clique(g.rows, g.n)) == 2
    assert max_clique(g) == recursive_max_clique(g)
    assert max_clique(g) == (7, (0, 2, 4, 6, 8, 10, 15), 21)


def test_search_counts_leaves_and_pruned_children_in_place():
    """Seven nodes, each counted where its parent branches to it.  The
    greedy seed is {0, 3, 4}.  Root 0 branches to {0, 3}, whose candidates
    4 and 7 are one class, at or below best - depth = 1: a child pruned by
    its first classes.  Root 3 is pruned the same way, and root 1 descends
    through {1, 2} and {1, 2, 4} to the leaf {1, 2, 4, 5}."""
    edges = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 4), (1, 5)]
    edges += [(1, 7), (2, 3), (2, 4), (2, 5), (2, 7), (3, 4), (3, 7), (4, 5)]
    g = from_edges(8, edges)
    assert max_clique(g) == (4, (1, 2, 4, 5), 7)
    assert max_clique(g).nodes_explored == recursive_max_clique(g).nodes_explored == 7


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_is_invariant_under_relabelling(n, p, seed):
    """A permuted copy has the same clique number, and each witness is a
    clique of its own graph in that graph's numbering."""
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    perm = rng.sample(range(n), n)
    h = from_edges(n, ((perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)))
    a, b = max_clique(g), max_clique(h)
    assert a.size == b.size
    assert pairwise_witness_ok(g, a.witness, "clique") and len(a.witness) == a.size
    assert pairwise_witness_ok(h, b.witness, "clique") and len(b.witness) == b.size


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**9 - 1), st.sampled_from(["clique", "independent"]))
def test_holds_matches_pairwise_reference(g, chosen, mode):
    chosen &= (1 << g.n) - 1
    assert _holds(g.rows, chosen, _flip(mode)) == pairwise_witness_ok(g, _members(chosen), mode)
