"""verify_report on malformed reports: a list of problems, never an exception."""

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import report as report_module
from sfcheck.construct import build_F, build_SF
from sfcheck.report import (
    MAX_REBUILD_VERTICES,
    load_report,
    run_verification,
    target_vertex_count,
    verify_report,
    write_report,
)

from oracles import all_profiles

DELETE = object()


@functools.cache
def base_report(theorem: str) -> dict:
    return run_verification(theorem, 3 if theorem == "1.1" else 2)


def edited(report, path, value):
    """A deep copy of ``report`` with the value at ``path`` replaced (or deleted)."""
    if not path:
        return value
    report = copy.deepcopy(report)
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return report


def all_paths(node, prefix=()):
    """Every key path into a JSON tree, the root's empty path included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from all_paths(child, prefix + (key,))


MALFORMED = {
    "check without witness": (("checks", 0, "witness"), DELETE),
    "computed is null": (("checks", 0, "computed"), None),
    "witness is a string": (("checks", 0, "witness"), "23"),
    "checks is an int": (("checks",), 5),
    "target.param is a string": (("target", "param"), "7"),
    "report is a list": ((), [1, 2]),
    "report is a string": ((), "report"),
    "report is null": ((), None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_report_is_a_problem_not_a_crash(case, tmp_path):
    path, value = MALFORMED[case]
    report = edited(base_report("1.1"), path, value)
    problems = verify_report(report)
    assert isinstance(problems, list) and problems
    target = tmp_path / "r.json"
    write_report(target, report)
    with pytest.raises(ValueError, match="re-verification"):
        load_report(target)


@pytest.mark.parametrize(
    "theorem, path",
    [("1.2", ("profile", "y_label")), ("1.1", ("checks", 0, "r"))],
    ids=["profile.y_label", "checks.r"],
)
def test_bool_is_not_an_int(theorem, path, tmp_path):
    report = edited(base_report(theorem), path, True)
    assert verify_report(report)
    target = tmp_path / "r.json"
    write_report(target, report)
    with pytest.raises(ValueError, match="re-verification"):
        load_report(target)


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_target_vertex_count_matches_builds(profile):
    for r in range(3, 9):
        assert target_vertex_count("F", r, profile) == build_F(r, profile).graph.n
        assert target_vertex_count("SF", r, profile) == build_SF(r, profile).graph.n


@pytest.mark.parametrize("theorem, param", [("1.2", 32), ("1.2", 10**9), ("1.1", 101)])
def test_oversized_target_refused_unbuilt(theorem, param, monkeypatch):
    def no_build(*args):
        raise AssertionError("verify_report built an oversized target")

    report = edited(base_report(theorem), ("target", "param"), param)
    monkeypatch.setattr(report_module, "build_F", no_build)
    monkeypatch.setattr(report_module, "build_SF", no_build)
    problems = verify_report(report)
    assert len(problems) == 1 and f"above the limit of {MAX_REBUILD_VERTICES}" in problems[0]


@pytest.mark.parametrize("param", [4, 10**9])
def test_unknown_kind_named_before_sizing(param):
    report = edited(base_report("1.2"), ("target",), {"kind": "X", "param": param})
    assert verify_report(report) == ["cannot rebuild target: unknown target kind 'X'"]


def test_sf30_is_within_the_rebuild_limit():
    for profile in all_profiles():
        assert target_vertex_count("SF", 30, profile) <= MAX_REBUILD_VERTICES


def test_unedited_reports_stand():
    assert verify_report(base_report("1.1")) == []
    assert verify_report(base_report("1.2")) == []


VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.text(max_size=4),
    st.integers(min_value=-3, max_value=12),
    st.lists(st.integers(min_value=-3, max_value=12), max_size=4),
)


@st.composite
def mutated_reports(draw):
    report = base_report(draw(st.sampled_from(["1.1", "1.2"])))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not isinstance(report, (dict, list)):
            break
        path = draw(st.sampled_from(list(all_paths(report))))
        report = edited(report, path, draw(VALUES))
    return report


@settings(max_examples=200, deadline=None)
@given(mutated_reports())
def test_verify_report_never_raises(report):
    problems = verify_report(report)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)
