"""The split that answers each of a part's six queries on its own.

``class_split`` in ``tests/oracles.py``, which splits each label class
alone on the graph or its built complement, is the reference: on random
cographs, where the split leaves no prime piece, on G(n, p) graphs and
their complements, where it leaves prime pieces to search, and on the
base path, ``_split_clique``, which splits in the query's view, must give
the same sizes and witnesses.  Branch and bound (``max_clique``) checks
the sizes.  The pieces the split passes branch and bound are recorded: a
cograph's split passes none, the base path's its whole path and its
complement.
"""

import gc
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import report, solve
from sfcheck.construct import DEFAULT_PROFILE, LABELS, InterpretationProfile, build_F, label_masks
from sfcheck.graphs import Graph, combine, complement, induced, random_graph
from sfcheck.report import run_verification
from sfcheck.solve import (
    Stack,
    _split_clique,
    max_clique,
    max_independent_set,
    stage_solve,
)
from sfcheck.verify import CLAIMS

from oracles import all_profiles, class_split, clear_memos, family_representatives, max_mono_clique, prefixes_built, stack_stages

VERTEX = Graph(1, (0,))
MODES = ("clique", "independent")


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


def six_queries(g, labels):
    """The whole graph's, label 1's and label 2's optima, for clique then
    for independent set, each split on its own."""
    full = (1 << g.n) - 1
    return [_split_clique(g, within, flip) for flip in (0, -1) for within in (full, *label_masks(labels))]


def searches(fn, *args):
    """``fn(*args)`` and the pieces that ``solve._split_clique`` passed
    branch and bound meanwhile, by size."""
    sizes, search = [], solve.max_clique

    def recording(g):
        sizes.append(g.n)
        return search(g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve, "max_clique", recording)
        return fn(*args), sizes


def assert_read_matches_reference(g, labels):
    """Returns the sizes of the pieces the six queries searched."""
    results, searched = searches(six_queries, g, labels)
    expected = [class_split(g, mode, labels, label) for mode in MODES for label in (None, *LABELS)]
    assert results == expected
    assert (results[0][0], results[3][0]) == (max_clique(g).size, max_independent_set(g).size)
    for label, (size, _) in zip(LABELS, results[1:3]):
        assert size == max_clique(induced(g, [v for v in range(g.n) if labels[v] == label])).size
    mono = max_mono_clique(g, labels)
    size, mask = max(results[1:3], key=lambda res: res[0])
    assert (mono.size, sum(1 << v for v in mono.witness)) == (size, mask)
    return searched


@settings(max_examples=150, deadline=None)
@given(cographs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_read_matches_reference_on_cographs(g, seed):
    rng = random.Random(seed)
    labels = tuple(rng.choice(LABELS) for _ in range(g.n))
    assert assert_read_matches_reference(g, labels) == []  # no piece of a cograph is prime


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_read_matches_reference_on_random_graphs(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    labels = tuple(rng.choice(LABELS) for _ in range(n))
    for h in (g, complement(g)):
        assert_read_matches_reference(h, labels)


@pytest.mark.parametrize("y_label", LABELS)
def test_read_matches_reference_on_the_base_path(y_label):
    lg = build_F(3, InterpretationProfile(y_label=y_label))
    assert lg.graph.n == 6
    assert assert_read_matches_reference(lg.graph, lg.labels) == [6, 6]  # P6 and its complement are prime


# Two graphs in which label 1 (every vertex but 5) splits further than the
# pieces of the whole graph do, and its clique {1, 2} ties with {3, 4}.
# Vertex 5 joins {0, 3, 4} to the rest of their co-component, or is the
# second vertex of the path 0-5-3-4, a prime piece; either way 0 is the
# lowest vertex of a piece whose clique {3, 4} must not win the tie.
TIES = {"co-component": [(1, 2), (3, 4), (5, 0), (5, 3), (5, 4)], "prime": [(1, 2), (3, 4), (0, 5), (5, 3)]}


@pytest.mark.parametrize("edges", TIES.values(), ids=TIES)
def test_ties_go_where_a_split_of_the_class_alone_sends_them(edges):
    g = Graph.from_edges(6, edges)
    labels = (1, 1, 1, 1, 1, 2)
    for h, mode, flip in ((g, "clique", 0), (complement(g), "independent", -1)):
        res = _split_clique(h, 0b11111, flip)
        assert res == class_split(h, mode, labels, 1)
        assert res[1] == 0b110  # the clique {1, 2}


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
    rng = random.Random(5)
    labels = tuple(rng.choice(LABELS) for _ in range(n))
    results, searched = searches(six_queries, g, labels)
    assert results == [class_split(g, mode, labels, label) for mode in MODES for label in (None, *LABELS)]
    assert (results[0][0], results[3][0]) == (n // 2 + 1, n // 2)
    assert searched == []


def test_search_sees_nothing_past_the_base_path(monkeypatch):
    """Under every stage family, the route on SF(3..12) and the single-label
    cliques of F(3..12) pass branch and bound no piece above six vertices."""
    sizes = []

    def recording(g):
        sizes.append(g.n)
        return max_clique(g)

    monkeypatch.setattr(solve, "max_clique", recording)
    clear_memos()
    for profile in family_representatives():
        for t in range(3, 13):
            stage_solve(Stack("SF", t, profile))
            f = build_F(t, profile)
            max_mono_clique(f.graph, f.labels)
    assert sizes and max(sizes) <= 6


def test_no_part_complement_is_built(monkeypatch):
    """The stage route reads independent sets from the parts' own split:
    the only complements it builds are of prime pieces, at most the six
    vertices of the base path."""
    sizes = []

    def recording(g):
        sizes.append(g.n)
        return complement(g)

    monkeypatch.setattr(solve, "complement", recording)
    clear_memos()
    for profile in family_representatives():
        run_verification("1.2", 11, profile)
        run_verification("1.1", 12, profile)
    assert sizes and max(sizes) <= 6
    clear_memos()


def job_list(t_max, profile):
    """Every job of ``sfcheck sweep --t-max t_max`` under ``profile``, run."""
    for theorem, (min_r, _, shift) in CLAIMS.items():
        for r in range(min_r, t_max - shift + 1):
            run_verification(theorem, r, profile)


def test_memos_stay_bounded():
    """The memos evict nothing, and their keys bound them: the 24 profiles'
    job lists to t = 30 read three block families after stage 3, so they
    build 3 * 27 later stages, two base paths and three general stages 3,
    and 9 lists (base-path y_label or general, by family) of 28 prefixes."""
    clear_memos()
    for profile in all_profiles():
        job_list(30, profile)
    assert (solve.stage.cache_info().misses, prefixes_built()) == (86, 252)
    clear_memos()


def test_a_job_list_past_the_old_bound_builds_each_stage_once(monkeypatch):
    """With ``report.MAX_T`` at 600, the default job list builds each of
    stages 3..600 once and each of the prefixes SF(3..600) once, and
    leaves one live Stage per stage."""
    monkeypatch.setattr(report, "MAX_T", 600)
    clear_memos()
    gc.collect()
    before = sum(isinstance(o, solve.Stage) for o in gc.get_objects())
    job_list(600, DEFAULT_PROFILE)
    gc.collect()
    alive = sum(isinstance(o, solve.Stage) for o in gc.get_objects()) - before
    assert (solve.stage.cache_info().misses, prefixes_built(), alive) == (598, 598, 598)
    clear_memos()


def test_a_cold_base_stage_searches_only_its_prime_queries(monkeypatch):
    """Building the base stage splits its six queries, each on its own,
    with no recursion: only the whole path and its complement are prime,
    so they are the only two pieces induced and searched."""
    calls = {"induced": 0, "max_clique": 0, "_split_clique": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(solve, name, counting(name, getattr(solve, name)))
    solve.stage.cache_clear()
    solve.stage(3, DEFAULT_PROFILE)
    assert calls == {"induced": 2, "max_clique": 2, "_split_clique": 6}
    solve.stage.cache_clear()


def test_the_base_stage_is_shared_by_sum_and_prod():
    """Stage 3 on the base path reads y_label alone, so profiles that
    differ only in sum or prod share it."""
    for y_label in LABELS:
        p = InterpretationProfile(y_label=y_label)
        for q in all_profiles():
            if (q.base_case, q.y_label) == ("explicit_path", y_label):
                assert stack_stages(Stack("F", 3, p))[0] is stack_stages(Stack("F", 3, q))[0], q
