"""The stage blocks as clusters, and the optima read from them.

Every stage block but the six-vertex base path is a disjoint union of
cliques, which ``construct.stage_block`` gives as its cluster table.  The
graph operators' reading of the block, ``product(empty(1), G_z, prod)``
with G_z = ``combine(complete(a), complete(r - a), sum)``, is the
reference for the table; ``class_split`` in ``tests/oracles.py``, which
splits a set of the dense graph into components, is the reference for the
optima ``solve._optimum`` reads from it, witnesses and ties included, and
the recursive search is the reference for the base path's.  Nothing the
route runs searches.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import report, solve
from sfcheck.cli import main
from sfcheck.construct import DEFAULT_PROFILE, LABELS, InterpretationProfile, _members, cluster_rows, label_masks, stage_block
from sfcheck.graphs import Graph, combine, complement, complete, empty, path, product
from sfcheck.report import run_verification
from sfcheck.solve import Stack, _optimum
from sfcheck.verify import CLAIMS

from oracles import (
    all_profiles,
    class_split,
    clear_memos,
    family_representatives,
    pairwise_induced,
    prefixes_built,
    profile_argv,
    recursive_max_clique,
    stack_stages,
)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stage_block_is_the_operators_block(profile):
    """For r = 3..60, ``stage_block``'s rows and labels are those of the
    operators' block, or of ``path(6)`` for the base path, and its
    clusters partition the block into cliques that no edge joins."""
    for r in range(3, 61):
        clusters, rows, labels, k = stage_block(r, profile)
        if r == 3 and profile.base_case == "explicit_path":
            assert (clusters, rows, labels, k) == (None, path(6).rows, (1, 2, 1, 1, profile.y_label, 2), 1)
            continue
        a = r // 2
        block = product(empty(1), combine(complete(a), complete(r - a), profile.sum), profile.prod)
        assert (rows, labels, k) == (block.rows, (1,) * a + (2,) * (r - a), r - 1), r
        assert sum(clusters) == (1 << r) - 1 and sum(map(int.bit_count, clusters)) == r, r
        for cluster in clusters:
            assert all(rows[v] | 1 << v == cluster for v in _members(cluster)), (r, cluster)


@pytest.mark.parametrize("y_label", LABELS)
def test_the_base_paths_optima_are_the_recursive_searchs(y_label):
    """The base path's six optima, each the first largest subset that
    holds, are the witnesses of the recursive search on the set's
    induced graph, or on its complement's."""
    profile = DEFAULT_PROFILE.replace(y_label=y_label)
    _, rows, labels, _ = stage_block(3, profile)
    g, optima = Graph(6, rows), solve.stage(3, profile).optima
    for mode, view in (("clique", g), ("independent", complement(g))):
        masks = []
        for within in (63, *label_masks(labels)):
            members = _members(within)
            masks.append(sum(1 << members[v] for v in recursive_max_clique(pairwise_induced(view, members)).witness))
        assert optima[mode] == ((tuple(mask.bit_count() for mask in masks),), (tuple(masks),)), mode


@st.composite
def cluster_tables(draw):
    """A cluster table on at most 40 vertices in the form ``stage_block``
    gives one, clusters of consecutive vertices in order, cut at random,
    and a set within it.  On such a table the first largest C & W is also
    the one with the lowest first vertex, the split's tie rule."""
    n = draw(st.integers(1, 40))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) | {0, n}) if n > 1 else [0, 1]
    clusters = tuple((1 << hi) - (1 << lo) for lo, hi in zip(cuts, cuts[1:]))
    return clusters, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=200, deadline=None)
@given(cluster_tables())
def test_the_cluster_rule_is_the_split_of_the_dense_block(case):
    """Within any set, in both views, the cluster rule's optimum is the
    dense split's, witness and tie included."""
    clusters, within = case
    rows = cluster_rows(clusters)
    for flip in (0, -1):
        mask = _optimum(clusters, rows, within, flip)
        assert (mask.bit_count(), mask) == class_split(Graph(len(rows), rows), within, flip), flip


@pytest.mark.parametrize("profile", family_representatives(), ids=str)
def test_a_sweep_searches_nothing(profile, monkeypatch, tmp_path):
    """With branch and bound refusing, ``sweep --t-max 20`` still runs to
    its verdicts under every stage family, from empty memos: each stage's
    optima come from its cluster table or the base path's subsets."""

    def no_search(g):
        raise AssertionError(f"searched a graph of {g.n} vertices")

    monkeypatch.setattr(solve, "max_clique", no_search)
    clear_memos()
    try:
        assert main(["sweep", "--t-max", "20", *profile_argv(profile), "--report-dir", str(tmp_path)]) in (0, 1)
    finally:
        clear_memos()


def test_no_part_complement_is_built(monkeypatch):
    """The stage route reads independent sets from the parts' own cluster
    tables, in the complement's view through the rows: it builds no
    complement."""
    sizes = []

    def recording(g):
        sizes.append(g.n)
        return complement(g)

    monkeypatch.setattr(solve, "complement", recording)
    clear_memos()
    for profile in family_representatives():
        run_verification("1.2", 11, profile)
        run_verification("1.1", 12, profile)
    assert sizes == []
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


def test_the_base_stage_is_shared_by_sum_and_prod():
    """Stage 3 on the base path reads y_label alone, so profiles that
    differ only in sum or prod share it."""
    for y_label in LABELS:
        p = InterpretationProfile(y_label=y_label)
        for q in all_profiles():
            if (q.base_case, q.y_label) == ("explicit_path", y_label):
                assert stack_stages(Stack("F", 3, p))[0] is stack_stages(Stack("F", 3, q))[0], q
