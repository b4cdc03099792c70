"""verify_report on malformed reports: a list of problems, never an exception."""

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck.report import load_report, run_verification, verify_report, write_report

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
