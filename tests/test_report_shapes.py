"""verify_report on malformed and tampered reports: a list of problems, never an exception."""

import copy
import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcheck import cli
from sfcheck import construct as construct_module
from sfcheck import report as report_module
from sfcheck import solve as solve_module
from sfcheck.construct import InterpretationProfile, LabeledGraph, build_F
from sfcheck.report import (
    MAX_T,
    load_report,
    require_rebuildable,
    run_verification,
    verify_report,
    write_report,
)

from oracles import all_profiles, profile_argv, schema1, vertex_rule_accepts

DELETE = object()


@functools.cache
def base_report(theorem: str, r: int | None = None) -> dict:
    return run_verification(theorem, r or (3 if theorem == "1.1" else 2))


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


def as_floats(report):
    """``report`` with its target's parameter, its check's r and its claim as floats."""
    for path in (("target", "param"), CHECK + ("r",), CHECK + ("claimed",)):
        report = edited(report, path, float(report_path_value(report, path)))
    return report


MALFORMED = {
    "check without witness": (("checks", 0, "witness"), DELETE),
    "computed is null": (("checks", 0, "computed"), None),
    "witness is a string": (("checks", 0, "witness"), "23"),
    "checks is an int": (("checks",), 5),
    "target.param is a string": (("target", "param"), "7"),
    "report is a list": ((), [1, 2]),
    "report is a string": ((), "report"),
    "report is null": ((), None),
    "profile is a list": (("profile",), [1, 2]),
    "target is a string": (("target",), "F(3)"),
    "target.param is true": (("target", "param"), True),
    "profile without prod": (("profile", "prod"), DELETE),
    # Without the target check's exact int this report loads: the stage memo keys 3.0 as 3,
    # and the re-run's r and claim come out as the same floats.
    "target.param, r and claim are floats": ((), as_floats),
}

# The problem each read or check before the re-run gives, naming the value it read.
MISREAD = {
    "target.param is a string": "cannot rebuild target: stage parameter must be an integer, got '7'",
    "profile is a list": "report: profile is [1, 2], not an object",
    "target is a string": "report: target is 'F(3)', not an object",
    "target.param is true": "cannot rebuild target: stage parameter must be an integer, got True",
    "profile without prod": "cannot rebuild target: profile has no 'prod' field",
    "target.param, r and claim are floats": "cannot rebuild target: stage parameter must be an integer, got 3.0",
}


def assert_rejected(report, tmp_path):
    """``verify_report`` names problems in ``report``, and the loader
    refuses its file with the problems it names in the report read back."""
    problems = verify_report(report)
    assert isinstance(problems, list) and problems
    target = tmp_path / "r.json"
    write_report(target, report)
    with pytest.raises(ValueError) as refused:
        load_report(target)
    read_back = verify_report(json.loads(target.read_text()))
    assert str(refused.value) == f"report {target} failed re-verification: " + "; ".join(read_back)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_report_is_a_problem_not_a_crash(case, tmp_path):
    path, value = MALFORMED[case]
    report = base_report("1.1")
    report = edited(report, path, value(report_path_value(report, path)) if callable(value) else value)
    assert_rejected(report, tmp_path)
    if case in MISREAD:
        assert verify_report(report) == [MISREAD[case]]


# Well-formed edits that change what a report says: (theorem, r, edits),
# where a callable edit maps the value it replaces.  Most leave a valid
# witness, so only re-assembling the report from a re-run of its check at
# its own r shows them; the witness itself must be the re-run's, vertex
# for vertex and in order.
CHECK = ("checks", 0)


def forged(**computed):
    """Edits that set each computed value and cut the witness to the size of the first."""
    size = next(iter(computed.values()))
    return [*((CHECK + ("computed", key), value) for key, value in computed.items()), (CHECK + ("witness",), lambda w: w[:size])]


def implies(bound):
    """Edits that turn a T1.2 report into a CONFIRMED one that implies ``bound``."""
    return [(CHECK + ("status",), "CONFIRMED"), (("bound", "implied"), bound)]

TAMPERED = {
    "T1.1 r=4 claims 3, CONFIRMED": ("1.1", 4, [(CHECK + ("claimed",), 3), (CHECK + ("status",), "CONFIRMED")]),
    "T1.1 r set to 99": ("1.1", 3, [(CHECK + ("r",), 99)]),
    "T1.2 r=3 set to r=100, CONFIRMED": ("1.2", 3, [(CHECK + ("r",), 100), (CHECK + ("status",), "CONFIRMED")]),
    "bound.implied forged": ("1.2", 3, [(("bound", "implied"), "R(4) > 1000000")]),
    "bound is null": ("1.2", 3, [(("bound",), None)]),
    "checks is empty": ("1.1", 3, [(("checks",), [])]),
    "label_counts forged": ("1.1", 3, [(("graph_stats", "label_counts"), {"1": 4, "2": 2})]),
    "T1.1 r=4 computed lowered to the claim": (
        "1.1", 4, [(CHECK + ("computed", "mono_clique"), 2), (CHECK + ("status",), "CONFIRMED")]
    ),
    # A JSON value that Python's == takes for the recorded one: 30.0 == 30.
    "graph_stats.n is a float": ("1.2", 3, [(("graph_stats", "n"), 30.0)]),
    # Forged numbers with a witness cut to fit them, or with no witness behind them: only a
    # re-run of the check shows them.
    "T1.1 r=4 REFUTED forged to CONFIRMED": ("1.1", 4, [*forged(mono_clique=2), (CHECK + ("status",), "CONFIRMED")]),
    "T1.1 r=10 REFUTED forged to CONFIRMED": ("1.1", 10, [*forged(mono_clique=5), (CHECK + ("status",), "CONFIRMED")]),
    "T1.1 r=3 CONFIRMED forged to REFUTED": ("1.1", 3, [*forged(mono_clique=1), (CHECK + ("status",), "REFUTED")]),
    "T1.2 r=3 REFUTED forged to CONFIRMED, R(4) > 30": ("1.2", 3, [*forged(omega=3, alpha=3), *implies("R(4) > 30")]),
    "T1.2 r=20 REFUTED forged to CONFIRMED, R(21) > 6150": ("1.2", 20, [*forged(omega=20, alpha=20), *implies("R(21) > 6150")]),
    "T1.2 r=3 alpha lowered from 7 to 3": ("1.2", 3, [(CHECK + ("computed", "alpha"), 3)]),
    # Another valid optimum: F(4)'s single-label clique moved up one vertex is one too.
    "T1.1 r=4 witness moved up one vertex": ("1.1", 4, [(CHECK + ("witness",), lambda w: [v + 1 for v in w])]),
    "T1.2 r=3 witness reversed": ("1.2", 3, [(CHECK + ("witness",), lambda w: w[::-1])]),
    "T1.2 r=3 witness member dropped": ("1.2", 3, [(CHECK + ("witness",), lambda w: w[1:])]),
    "T1.2 r=3 witness member added": ("1.2", 3, [(CHECK + ("witness",), lambda w: [*w, max(w) + 1])]),
    # The target's kind picks the check the loader re-runs.
    "T1.2 r=3 target set to F(4)": ("1.2", 3, [(("target",), {"kind": "F", "param": 4})]),
    "T1.1 r=4 target.kind set to SF": ("1.1", 4, [(("target", "kind"), "SF")]),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_report_is_rejected(case, tmp_path):
    theorem, r, edits = TAMPERED[case]
    report = base_report(theorem, r)
    for path, value in edits:
        report = edited(report, path, value(report_path_value(report, path)) if callable(value) else value)
    assert_rejected(report, tmp_path)


# The fields of schema 1 that schema 2 dropped, each a restatement of
# another field, which ``oracles.schema1`` rebuilds; T1.1 has no bound.
DROPPED = {
    "deterministic": ("deterministic",),
    "checks[0].profile": CHECK + ("profile",),
    "checks[0].solver_stats": CHECK + ("solver_stats",),
    "solver_stats": ("solver_stats",),
    "bound.t": ("bound", "t"),
    "bound.n": ("bound", "n"),
    "bound.witness_ok": ("bound", "witness_ok"),
}


@pytest.mark.parametrize(
    "theorem, field",
    [(theorem, field) for theorem in ("1.1", "1.2") for field in DROPPED if theorem == "1.2" or not field.startswith("bound")],
)
def test_a_dropped_field_put_back_is_refused_by_name(theorem, field, tmp_path):
    """A report with one field that schema 2 dropped put back, with its
    schema-1 value, does not load, and the one problem names that field."""
    report = base_report(theorem, 3)
    path = DROPPED[field]
    target = tmp_path / "r.json"
    write_report(target, edited(report, path, report_path_value(schema1(report), path)))
    with pytest.raises(ValueError, match=f"failed re-verification: {re.escape(field)} is not in the re-assembled report$"):
        load_report(target)


# Fields a truncated report lacks, each named as missing, not as changed.
MISSING = {
    "notes": ("1.1", ("notes",)),
    "bound": ("1.1", ("bound",)),
    "graph_stats.m": ("1.2", ("graph_stats", "m")),
    "checks[0].witness": ("1.2", CHECK + ("witness",)),
}


@pytest.mark.parametrize("field", sorted(MISSING))
def test_a_missing_field_is_refused_by_name(field, tmp_path):
    theorem, path = MISSING[field]
    target = tmp_path / "r.json"
    write_report(target, edited(base_report(theorem, 3), path, DELETE))
    with pytest.raises(ValueError, match=f"failed re-verification: {re.escape(field)} is missing$"):
        load_report(target)


@pytest.mark.parametrize("theorem", ["1.1", "1.2"])
def test_an_unedited_load_encodes_once(theorem, tmp_path, monkeypatch):
    """A file that is the writer's text of its re-run stands after one
    encode, that of the re-run; the field-by-field comparison, which
    encodes both sides, is for any other file."""
    target = tmp_path / "r.json"
    write_report(target, base_report(theorem, 5))
    encoded = []

    class Counting:
        def encode(self, value):
            encoded.append(value)
            return encoder.encode(value)

    encoder = report_module._ENCODER
    monkeypatch.setattr(report_module, "_ENCODER", Counting())
    assert load_report(target) == base_report(theorem, 5)
    assert len(encoded) == 1


@pytest.mark.parametrize("theorem", ["1.1", "1.2"])
def test_a_schema_1_report_is_refused(theorem, tmp_path):
    """A report in its schema-1 form, every dropped field back, is refused
    on its schema_version alone."""
    target = tmp_path / "r.json"
    write_report(target, schema1(base_report(theorem, 3)))
    with pytest.raises(ValueError, match="failed re-verification: unsupported schema_version '1'$"):
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


class Built(Exception):
    """Raised in place of a dense build: ``build`` got past its checks."""


def accepts(call, *args) -> bool:
    """Whether ``call(*args)`` gets past its checks: it returns, or reaches a dense build."""
    try:
        call(*args)
    except ValueError:
        return False
    except Built:
        pass
    return True


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_parameter_bound_accepts_what_the_vertex_rule_did(profile, monkeypatch):
    """The stage route's check and ``sfcheck build`` accept exactly the
    targets that the vertex rule they replace did, at t = 3..250: F(r) and
    SF(t) up to t = 100, and an export up to F(100) and SF(31)."""
    def built(*args):
        raise Built

    monkeypatch.setattr(cli, "Stack", built)
    parser = cli._make_parser()
    for kind in ("F", "SF"):
        for param in range(3, 251):
            args = parser.parse_args(["build", "--kind", kind, "--r", str(param), *profile_argv(profile), "--out", "unwritten"])
            assert accepts(require_rebuildable, kind, param) == vertex_rule_accepts(kind, param, profile, dense=False), (kind, param)
            assert accepts(args.func, args) == vertex_rule_accepts(kind, param, profile, dense=True), (kind, param)


@pytest.mark.parametrize("theorem, param", [("1.2", 101), ("1.2", 10**9), ("1.1", 101)])
def test_oversized_target_refused_unbuilt(theorem, param, monkeypatch):
    def no_build(*args):
        raise AssertionError("verify_report built an oversized target")

    report = edited(base_report(theorem), ("target", "param"), param)
    monkeypatch.setattr(construct_module, "build_F", no_build)
    monkeypatch.setattr(construct_module, "build_SF", no_build)
    monkeypatch.setattr(construct_module, "stage_block", no_build)
    monkeypatch.setattr(solve_module, "stage_block", no_build)
    problems = verify_report(report)
    assert problems == [f"cannot rebuild target: {report['target']['kind']}({param}) is above the limit of t = {MAX_T}"]


@pytest.mark.parametrize("param", [4, 10**9])
def test_unknown_kind_named_before_sizing(param):
    report = edited(base_report("1.2"), ("target",), {"kind": "X", "param": param})
    assert verify_report(report) == ["cannot rebuild target: unknown target kind 'X'"]


@pytest.mark.parametrize("kind, name", [("F", "stage"), ("SF", "stack")])
@pytest.mark.parametrize("param", [-(10**9), 2])
def test_parameter_below_3_named_before_sizing(kind, name, param):
    report = edited(base_report("1.2"), ("target",), {"kind": kind, "param": param})
    assert verify_report(report) == [f"cannot rebuild target: {name} parameter must be >= 3, got {param}"]


def test_sf30_is_within_the_rebuild_limit():
    require_rebuildable("SF", 30)
    assert all(vertex_rule_accepts("SF", 30, profile, dense=False) for profile in all_profiles())


@pytest.mark.parametrize("profile", all_profiles(), ids=str)
def test_unedited_reports_stand(profile):
    for theorem, rs in (("1.1", range(3, 6)), ("1.2", range(2, 5))):
        for r in rs:
            assert verify_report(run_verification(theorem, r, profile)) == []


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


@pytest.mark.parametrize("theorem", ["1.1", "1.2"])
def test_float_y_label_cannot_rebuild(theorem, tmp_path):
    path = ("profile", "y_label")
    assert report_path_value(base_report(theorem, 3), path) == 2
    report = edited(base_report(theorem, 3), path, 2.0)
    assert verify_report(report) == ["cannot rebuild target: y_label must be 1 or 2, got 2.0"]
    assert_rejected(report, tmp_path)


def report_path_value(report, path):
    for key in path:
        report = report[key]
    return report


def test_float_labels_are_refused():
    with pytest.raises(ValueError, match="y_label must be 1 or 2, got 2.0"):
        InterpretationProfile(y_label=2.0)
    lg = build_F(3)
    with pytest.raises(ValueError, match="label 1.0 outside"):
        LabeledGraph(lg.graph, (1.0, *lg.labels[1:]))


def test_sf100_is_the_largest_stack_within_the_limit():
    # Verification rebuilds stages, so the limit bounds the stage parameter;
    # a dense build, for export, is limited in its total, to SF(31).
    require_rebuildable("SF", 100)
    with pytest.raises(ValueError, match=r"^SF\(101\) is above the limit of t = 100$"):
        require_rebuildable("SF", 101)
    assert (MAX_T, cli.MAX_EXPORT_T) == (100, 31)
    for profile in all_profiles():
        assert [vertex_rule_accepts("SF", t, profile, dense=False) for t in (100, 101)] == [True, False]
        assert [vertex_rule_accepts("SF", t, profile, dense=True) for t in (31, 32)] == [True, False]


@pytest.mark.parametrize(
    "theorem, r, target", [("1.2", 100, "SF(101)"), ("1.1", 101, "F(101)")]
)
def test_run_verification_refuses_what_verify_report_would(theorem, r, target, monkeypatch):
    def no_build(*args):
        raise AssertionError("run_verification built an oversized target")

    monkeypatch.setattr(construct_module, "build_F", no_build)
    monkeypatch.setattr(construct_module, "build_SF", no_build)
    monkeypatch.setattr(construct_module, "stage_block", no_build)
    monkeypatch.setattr(solve_module, "stage_block", no_build)
    message = f"{target} is above the limit of t = {MAX_T}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_verification(theorem, r)
    kind, param = target.rstrip(")").split("(")
    report = edited(base_report(theorem), ("target",), {"kind": kind, "param": int(param)})
    assert verify_report(report) == [f"cannot rebuild target: {message}"]


def test_a_file_nested_too_deep_to_decode_is_a_value_error(tmp_path):
    target = tmp_path / "deep.json"
    target.write_text("[" * 100_000)
    with pytest.raises(ValueError, match=f"^report {re.escape(str(target))} does not decode as JSON"):
        load_report(target)


def nested(depth):
    """A list nested ``depth`` deep around an empty list."""
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


def test_notes_nested_too_deep_to_serialize_are_a_problem_not_a_crash(tmp_path):
    """Serializing a 100,000-deep list for the comparison passes the
    recursion limit from any stack depth, where 989 deep fails only below
    pytest's frames.  JSON decodes a 990-deep list from the file, but
    writing it back there passes the limit too."""
    report = dict(base_report("1.1"), notes=nested(100_000))
    assert verify_report(report) == ["notes[0] differs from the re-assembled report"]
    target = tmp_path / "r.json"
    target.write_text(json.dumps(dict(report, notes="DEEP")).replace('"DEEP"', "[" * 990 + "]" * 990))
    with pytest.raises(ValueError, match=f"^report {re.escape(str(target))} "):
        load_report(target)


def called_through(frames, fn, *args):
    """``fn(*args)`` called ``frames`` calls deep."""
    return fn(*args) if frames == 0 else called_through(frames - 1, fn, *args)


@pytest.mark.parametrize("frames", [0, 50])
@pytest.mark.parametrize(
    "path",
    [("schema_version",), ("profile",), ("profile", "sum"), ("target",), ("target", "kind"), ("target", "param")],
    ids=".".join,
)
def test_a_value_nested_too_deep_to_repr_is_named_in_one_short_problem(path, frames):
    """A 989-deep list where the loader names a bad value gives one short
    problem, also from a call 50 frames deep, where a whole repr of it
    passes the recursion limit."""
    problems = called_through(frames, verify_report, edited(base_report("1.1"), path, nested(989)))
    assert len(problems) == 1 and len(problems[0]) < 200, problems
