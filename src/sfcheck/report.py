"""JSON verification reports: assembly, canonical serialization, loading.

Reports are plain dicts with a mandatory schema_version.  ``verify``
builds a check and a bound in the form a report stores them, and
``make_report`` puts them in unchanged.  One encoder, ``_ENCODER``,
serializes reports: compact, sorted keys, ASCII, the ``","`` and ``":"``
separators.  The writer adds one trailing newline to its text, and the
loader compares values by it, so two runs over the same target and
profile produce byte-identical files except for the timestamps block.
A report loads only if its job re-runs to it: the loader re-runs the
check on the target's prefix, whose stages keep their answers,
re-assembles the report through ``make_report``, witness included, and
names each field that differs, is missing or is extra, apart from
``timestamps`` and ``generated_by``.  A file that is already the
writer's text of the re-run, its own timestamps put in, stands after
that one encode.  Both routes check the target once, by its parameter,
before anything is built: ``require_rebuildable``, which takes an exact
int from 3 to ``MAX_T``.  Neither builds the dense graph; ``sfcheck
build`` streams its rows to export it.  ``write_text`` writes every file.
"""

from __future__ import annotations

import json
import os
import reprlib
import stat
from collections.abc import Iterator
from datetime import datetime, timezone

from sfcheck import __version__
from sfcheck.construct import DEFAULT_PROFILE, InterpretationProfile, _require_param
from sfcheck.solve import Stack
from sfcheck.verify import bound_report_from_counts, check_theorem_1_1, check_theorem_1_2, claim_target

SCHEMA_VERSION = "2"

Y_LABEL_NOTE = (
    "the label of base-path vertex y is an interpretation choice recorded in "
    "profile.y_label, not forced by the construction"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# The largest stage parameter the stage route takes: ``require_rebuildable``
# refuses, unbuilt, F(r) and SF(t) above it, in ``run_verification`` and in
# the loader alike.  Each stage keeps its answers, not its block, so the
# route's cost is not what limits t: the cap bounds the memos and the
# stages a report can name, and so the loader's re-run, and the witness
# a report stores: t^2 vertices under prod="tensor", 9900 in SF(100)'s.
MAX_T = 100


def require_rebuildable(kind: str, param: int) -> None:
    """The one check of a target, ``construct._require_param``, and a
    ValueError, unbuilt, for a parameter above ``MAX_T``."""
    _require_param(kind, param)
    if param > MAX_T:
        raise ValueError(f"{kind}({param}) is above the limit of t = {MAX_T}")


def make_report(stack: Stack, check: dict, started, finished) -> dict:
    """The report of ``check`` on ``stack``, the claim's target, which the
    report names.  The check is stored as built.  For T1.2 the Ramsey
    implication of SF(t), t the stack's parameter, is derived from the
    check's omega and alpha, not re-solved.
    """
    bound = None
    if check["theorem_id"] == "T1_2":
        computed = check["computed"]
        bound = bound_report_from_counts(stack.param, stack.n, computed["omega"], computed["alpha"])
    notes = []
    if stack.profile.base_case == "explicit_path":
        notes.append(Y_LABEL_NOTE)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": f"sfcheck {__version__}",
        "target": {"kind": stack.kind, "param": stack.param},
        "profile": stack.profile.to_dict(),
        "graph_stats": {
            "n": stack.n,
            "m": stack.m,
            "label_counts": {str(k): v for k, v in stack.label_counts.items()},
        },
        "checks": [check],
        "bound": bound,
        "notes": notes,
        "timestamps": {"started": started, "finished": finished},
    }


# The one serializer of reports, the writer's and the loader's comparison.
# Without an indent, ``encode`` runs ``json``'s C encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def report_to_json(report: dict) -> str:
    return _ENCODER.encode(report) + "\n"


def write_text(path, chunks) -> None:
    """Write the strings ``chunks`` to ``path``.  A regular or new file is
    replaced atomically: through a new temporary beside it (beside the file
    a symlink names), created exclusively by ``open``, never through a
    symlink, given an existing file's mode, and removed on any failure.  A
    device or a pipe, /dev/stdout say, is written in place.  An OSError
    names ``path``."""
    path, made = os.fspath(path), False
    try:
        mode = os.stat(path).st_mode if os.path.exists(path) else None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w") as fh:
                fh.writelines(chunks)
            return
        real = os.path.realpath(path) if os.path.islink(path) else path
        tmp = os.path.join(os.path.dirname(real), f".sfcheck-{os.urandom(8).hex()}.tmp")
        with open(tmp, "x") as fh:
            made = True
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, real)
        made = False
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if made:
            os.unlink(tmp)


def write_report(path, report: dict) -> None:
    write_text(path, (report_to_json(report),))


def strip_volatile(report: dict) -> dict:
    """Report content without run-dependent fields (timestamps)."""
    return {k: v for k, v in report.items() if k != "timestamps"}


def _check(stack: Stack) -> dict:
    """Run on ``stack`` the check its kind picks, by its module-level name,
    so that a wrapper bound in its place runs."""
    return (check_theorem_1_1 if stack.kind == "F" else check_theorem_1_2)(stack)


_MISSING = object()


def _canonical(value) -> str | None:
    """``value`` as the writer serializes it, less the trailing newline, in
    which 0, 0.0 and false differ; None for a value JSON cannot hold or
    nests too deep to write."""
    try:
        return _ENCODER.encode(value)
    except (TypeError, ValueError, RecursionError):
        return None


def _differences(expected, actual, where: str = "") -> Iterator[str]:
    """A problem for each field where ``actual`` differs from ``expected``,
    is missing or is extra, named by its path.  Values are compared as
    JSON, so a bool, an int and a float never stand for each other.  Equal
    subtrees are passed over in one comparison."""
    text = _canonical(expected)
    if text is not None and text == _canonical(actual):
        return
    if actual is _MISSING:
        yield f"{where} is missing"
    elif expected is _MISSING:
        yield f"{where} is not in the re-assembled report"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        for key in [*expected, *(k for k in actual if k not in expected)]:
            path = f"{where}.{key}" if where else key
            yield from _differences(expected.get(key, _MISSING), actual.get(key, _MISSING), path)
    elif isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _differences(e, a, f"{where}[{i}]")
    else:
        yield f"{where} differs from the re-assembled report"


def _rerun(report) -> dict | str:
    """The report that a loaded report's job re-runs to, or the one problem
    that stops the re-run.

    Reads three fields first, each in place: schema_version must be "2",
    and profile and target objects; the first that fails is the one
    problem, naming its value by ``reprlib.repr``.  Then checks the stated
    target with ``require_rebuildable`` (so target.param is exactly an int
    from 3 to ``MAX_T``), rebuilds its stages, re-runs the check its kind
    picks on them, and re-assembles the report with ``make_report`` from
    the re-run alone, ``generated_by`` copied from ``report``.
    """
    if not isinstance(report, dict):
        return f"report: expected an object, got {type(report).__name__}"
    if report.get("schema_version") != SCHEMA_VERSION:
        return f"unsupported schema_version {reprlib.repr(report.get('schema_version'))}"
    for field in ("profile", "target"):
        if not isinstance(report.get(field), dict):
            return f"report: {field} is {reprlib.repr(report.get(field))}, not an object"
    kind, param = report["target"].get("kind"), report["target"].get("param")
    try:
        require_rebuildable(kind, param)
        stack = Stack(kind, param, InterpretationProfile.from_dict(report["profile"]))
    except ValueError as exc:
        return f"cannot rebuild target: {exc}"
    expected = make_report(stack, _check(stack), None, None)
    expected["generated_by"] = report.get("generated_by")
    return expected


def _problems(expected: dict | str, report) -> list[str]:
    """The problems of ``report`` against ``expected``, ``_rerun``'s
    result: its one problem, or each field where the two differ, apart
    from ``timestamps``."""
    if isinstance(expected, str):
        return [expected]
    return list(_differences(strip_volatile(expected), strip_volatile(report)))


def verify_report(report) -> list[str]:
    """Re-run a loaded report's job (``_rerun``) and name each field where
    the report differs from the re-run's.  So every field, the claim, its r
    and the witness vertex for vertex included, must be the re-run's:
    checked optima that ``Stack.holds`` passed.  Copied, not compared:
    ``generated_by``.  Returns a list of problems, empty when the report
    stands; never raises.
    """
    return _problems(_rerun(report), report)


def load_report(path) -> dict:
    """Read a report and re-verify it; ValueError, naming the path, lists
    the problems found or says that the file does not decode.  A file that
    is, byte for byte, the writer's text of the re-run's report with the
    file's own timestamps stands after that one encode; any other goes
    field by field through ``verify_report``'s comparison."""
    try:
        with open(path) as fh:
            text = fh.read()
        report = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise ValueError(f"report {path} does not decode as JSON: {exc}") from None
    expected = _rerun(report)
    if isinstance(expected, dict):
        rewritten = strip_volatile(expected)
        if "timestamps" in report:
            rewritten["timestamps"] = report["timestamps"]
        encoded = _canonical(rewritten)
        if encoded is not None and encoded + "\n" == text:
            return report
    problems = _problems(expected, report)
    if problems:
        raise ValueError(f"report {path} failed re-verification: " + "; ".join(problems))
    return report


def run_verification(
    theorem: str,
    r: int,
    profile: InterpretationProfile = DEFAULT_PROFILE,
) -> dict:
    """Build the claim's target as a stack, its prefix, run the check of
    its kind on it, and assemble the full report.  The theorem and r are
    checked, and the target by ``require_rebuildable``, the loader's own
    check, before anything is built: a float r is refused, memo or not.
    """
    started = _now()
    target = claim_target(theorem, r)
    require_rebuildable(*target)
    stack = Stack(*target, profile)
    return make_report(stack, _check(stack), started, _now())
