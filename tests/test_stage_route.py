"""The stage route: omega and alpha of SF(t) composed from per-stage solves.

The monolithic solve of the whole SF(t) is the reference.  The closed forms
of the per-stage numbers are a test oracle only; no verdict rests on them.
"""

import json
import os
import subprocess
import sys

import pytest

import sfcheck
from sfcheck import report as report_module
from sfcheck.cli import main
from sfcheck.construct import DEFAULT_PROFILE, InterpretationProfile, LabeledGraph, build_F, build_SF
from sfcheck.graphs import Graph
from sfcheck.report import report_to_json, strip_volatile
from sfcheck.solve import _class_solves, _solve, max_clique, max_independent_set, stage_solve

from oracles import all_profiles


def route(lg):
    return stage_solve(lg.graph, lg.labels, lg.stage_cuts())


def assert_route_matches_monolithic(lg):
    omega, alpha = route(lg)
    assert (omega.size, alpha.size) == (max_clique(lg.graph).size, max_independent_set(lg.graph).size)
    assert len(omega.witness) == omega.size and len(alpha.witness) == alpha.size


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_route_matches_monolithic_solve(profile):
    for t in range(4, 11):
        assert_route_matches_monolithic(build_SF(t, profile))


@pytest.mark.parametrize("t", range(11, 17))
def test_route_matches_monolithic_solve_default_profile(t):
    assert_route_matches_monolithic(build_SF(t, DEFAULT_PROFILE))


def stage_numbers(lg):
    """[omega, omega_1, omega_2, alpha, alpha_1, alpha_2] of one stage; _1
    and _2 are its label-1 and label-2 classes."""
    numbers = []
    for mode in ("clique", "independent"):
        numbers.append(_solve(lg.graph, mode).size)
        numbers += [res.size for _, res in _class_solves(lg.graph, lg.labels, mode)]
    return numbers


def closed_form(profile, r):
    """The per-stage numbers of F(r), r >= 4, by profile class."""
    half = r // 2
    if profile.prod == "tensor":
        one, two = (r - 1) * (r - half), (r - 1) * half
        return [r * (r - 1), one, two, r * (r - 1), two + 1, one + 1]
    whole = 2 * (r - 1) if profile.sum == "disjoint_union" else (3 * r - 1) // 2
    return [whole, r - 1, r - 1, whole, (3 * r - 1) // 2, (3 * r - 2) // 2]


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_stage_numbers_follow_closed_forms(profile):
    for r in range(4, 11):
        assert stage_numbers(build_F(r, profile)) == closed_form(profile, r)


@pytest.mark.parametrize(
    "sum_, prod", [("disjoint_union", "lexicographic"), ("join", "cartesian"), ("join", "tensor")]
)
def test_stage_numbers_follow_closed_forms_to_20(sum_, prod):
    profile = InterpretationProfile(sum=sum_, prod=prod)
    for r in range(11, 21):
        assert stage_numbers(build_F(r, profile)) == closed_form(profile, r)


def flipped(lg, u, v):
    """``lg`` with the pair (u, v) toggled."""
    rows = list(lg.graph.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return LabeledGraph(Graph(lg.graph.n, tuple(rows)), lg.labels, lg.stages, lg.base_path)


@pytest.mark.parametrize("u, v", [(0, 6), (5, 29), (7, 31)], ids=["stages 3-4", "stages 3-4 far", "stages 4-5"])
def test_flipped_cross_stage_edge_raises(u, v):
    with pytest.raises(AssertionError, match="opposite-parity rule"):
        route(flipped(build_SF(5), u, v))


@pytest.mark.parametrize("cut", ["labels short", "cuts out of order", "cut at n"])
def test_layout_that_does_not_fit_is_refused(cut):
    lg = build_SF(5)
    labels, cuts = lg.labels, lg.stage_cuts()
    if cut == "labels short":
        labels = labels[:-1]
    elif cut == "cuts out of order":
        cuts = cuts[::-1]
    else:
        cuts = (*cuts, lg.graph.n)
    with pytest.raises(ValueError, match="do not lay out 70 vertices"):
        stage_solve(lg.graph, labels, cuts)


def test_flipped_edge_within_a_stage_is_solved():
    # The premise concerns only edges between stages; a stage's own edges
    # are whatever the graph holds.
    assert_route_matches_monolithic(flipped(build_SF(6), 6, 7))


def test_broken_build_exits_3(tmp_path, monkeypatch, capsys):
    def broken(t, profile):
        return flipped(build_SF(t, profile), 0, 6)

    monkeypatch.setattr(report_module, "build_SF", broken)
    out = tmp_path / "r.json"
    assert main(["verify", "--theorem", "1.2", "--r", "4", "--report", str(out)]) == 3
    assert "internal error: AssertionError" in capsys.readouterr().err
    assert not out.exists()


def test_reports_do_not_depend_on_what_ran_before(tmp_path, monkeypatch):
    """One report, from ``verify`` in a fresh process (no memo), from a
    serial sweep (memo filled by the jobs before it) and from a sweep at
    RF_THREADS=2."""
    src = os.path.dirname(os.path.dirname(sfcheck.__file__))
    alone = tmp_path / "alone.json"
    subprocess.run(
        [sys.executable, "-m", "sfcheck.cli", "verify", "--theorem", "1.2", "--r", "9", "--report", str(alone)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        check=False,
    )
    texts = [alone.read_text()]
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_THREADS", threads)
        main(["sweep", "--t-max", "10", "--report-dir", str(tmp_path / threads)])
        texts.append((tmp_path / threads / "t12_r9.json").read_text())
    stripped = [report_to_json(strip_volatile(json.loads(text))) for text in texts]
    assert stripped[0] == stripped[1] == stripped[2]


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--t-max", "32", "--report-dir", "DIR"], ["verify", "--theorem", "1.2", "--r", str(10**9), "--report", "DIR/r.json"]],
    ids=["sweep t-max 32", "verify r 10**9"],
)
def test_unloadable_targets_refused_unbuilt(argv, tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built a target no loader would accept")

    monkeypatch.setattr(report_module, "build_F", no_build)
    monkeypatch.setattr(report_module, "build_SF", no_build)
    out_dir = tmp_path / "out"
    assert main([arg.replace("DIR", str(out_dir)) for arg in argv]) == 2
    assert "above the limit of 20000" in capsys.readouterr().err
    assert not out_dir.exists()
