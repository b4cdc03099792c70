"""JSON verification reports: assembly, canonical serialization, loading.

Reports are plain dicts with a mandatory schema_version.  Serialization is
canonical (sorted keys, fixed separators), so two runs over the same target
and profile produce byte-identical files except for the timestamps block.
Loading re-verifies every witness against a fresh build of the target.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone

from sfcheck import __version__
from sfcheck.construct import (
    DEFAULT_PROFILE,
    InterpretationProfile,
    LabeledGraph,
    build_F,
    build_SF,
)
from sfcheck.solve import verify_witness
from sfcheck.verify import (
    BoundReport,
    TheoremCheck,
    bound_report_from_counts,
    check_theorem_1_1,
    check_theorem_1_2,
    require_claim_r,
)

SCHEMA_VERSION = "1"

Y_LABEL_NOTE = (
    "the label of base-path vertex y is an interpretation choice recorded in "
    "profile.y_label, not forced by the construction"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# verify_report refuses, unbuilt, a target with more vertices than this, so a
# report file cannot demand an arbitrarily large build.  SF(30) has 17970
# vertices, SF(31) 19830 and SF(32) 21814.
MAX_REBUILD_VERTICES = 20_000


def target_vertex_count(kind: str, param: int, profile: InterpretationProfile) -> int:
    """Vertex count of ``build_target(kind, param, profile)`` from the stage
    layout, without building: 2r(r-1) for stage r (both sides of r-1 copies
    of r vertices), 6 for the explicit base path.  SF(t) sums stages 3..t:
    the sum of 2r(r-1) over 1 <= r <= t is 2(t-1)t(t+1)/3, less 4 for r = 2."""
    explicit = profile.base_case == "explicit_path"
    if kind == "F":
        return 6 if param == 3 and explicit else 2 * param * (param - 1)
    stacked = 2 * (param - 1) * param * (param + 1) // 3 - 4
    return stacked - 6 if explicit else stacked


def build_target(kind: str, param: int, profile: InterpretationProfile) -> LabeledGraph:
    if kind == "F":
        return build_F(param, profile)
    if kind == "SF":
        return build_SF(param, profile)
    raise ValueError(f"unknown target kind {kind!r}")


def make_report(
    kind: str,
    param: int,
    profile: InterpretationProfile,
    lg: LabeledGraph,
    checks: list[TheoremCheck],
    bound: BoundReport | None,
    started: str,
    finished: str,
) -> dict:
    counts = lg.label_counts()
    notes = []
    if profile.base_case == "explicit_path":
        notes.append(Y_LABEL_NOTE)
    total_nodes = sum(sum(tc.solver_stats.values()) for tc in checks)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": f"sfcheck {__version__}",
        "target": {"kind": kind, "param": param},
        "profile": profile.to_dict(),
        "deterministic": True,
        "graph_stats": {
            "n": lg.graph.n,
            "m": lg.graph.m,
            "label_counts": {str(k): v for k, v in counts.items()},
        },
        "checks": [dict(asdict(tc), witness=list(tc.witness)) for tc in checks],
        "bound": asdict(bound) if bound is not None else None,
        "solver_stats": {"nodes_explored": total_nodes},
        "notes": notes,
        "timestamps": {"started": started, "finished": finished},
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(path, report: dict) -> None:
    """Atomic write: the file appears complete or not at all."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(report_to_json(report))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def strip_volatile(report: dict) -> dict:
    """Report content without run-dependent fields (timestamps)."""
    return {k: v for k, v in report.items() if k != "timestamps"}


# The type of each field verify_report indexes; the fields it reads with
# .get may be missing, and a missing one fails the comparison it feeds.
_REPORT_FIELDS = {"profile": dict, "target": dict, "graph_stats": dict, "checks": list}
_CHECK_FIELDS = {"theorem_id": str, "r": int, "computed": dict, "witness": list}
_COMPUTED_FIELDS = {"T1_1": {"mono_clique": int}, "T1_2": {"omega": int, "alpha": int}}


def _shape_problem(obj, fields: dict, where: str) -> str | None:
    """Why ``obj`` is not an object holding ``fields`` with their types, or None."""
    if not isinstance(obj, dict):
        return f"{where}: expected an object, got {type(obj).__name__}"
    for key, kind in fields.items():
        # JSON true and false load as bool, a subclass of int; no field here is a bool.
        if not isinstance(obj.get(key), kind) or isinstance(obj.get(key), bool):
            return f"{where}: field {key!r} is {type(obj.get(key)).__name__}, expected {kind.__name__}"
    return None


def _check_shape_problem(check, where: str) -> str | None:
    """_shape_problem for one entry of ``checks``, its witness and computed block included."""
    shape = _shape_problem(check, _CHECK_FIELDS, where)
    if shape:
        return shape
    if check["theorem_id"] not in _COMPUTED_FIELDS:
        return f"{where}: unknown theorem_id {check['theorem_id']!r}"
    if not all(isinstance(v, int) for v in check["witness"]):
        return f"{where}: witness holds a non-integer vertex"
    return _shape_problem(check["computed"], _COMPUTED_FIELDS[check["theorem_id"]], f"{where} computed")


def verify_report(report) -> list[str]:
    """Re-check a loaded report against a fresh build of its target.

    Checks the shape of every field it reads, rebuilds the target graph
    (refusing, unbuilt, one above ``MAX_REBUILD_VERTICES``), re-verifies
    every witness pairwise, and checks internal consistency (sizes, verdict
    arithmetic, bound flags).  Returns a list of problems, empty when the
    report stands; never raises on malformed input.
    """
    if not isinstance(report, dict):
        return [f"report: expected an object, got {type(report).__name__}"]
    if report.get("schema_version") != SCHEMA_VERSION:
        return [f"unsupported schema_version {report.get('schema_version')!r}"]
    shape = _shape_problem(report, _REPORT_FIELDS, "report")
    shape = shape or _shape_problem(report["target"], {"param": int}, "target")
    if shape:
        return [shape]
    kind, param = report["target"].get("kind"), report["target"]["param"]
    try:
        profile = InterpretationProfile.from_dict(report["profile"])
        size = target_vertex_count(kind, param, profile)
        if size > MAX_REBUILD_VERTICES:
            return [
                f"cannot rebuild target: {kind}({param}) has {size} vertices, "
                f"above the limit of {MAX_REBUILD_VERTICES}"
            ]
        lg = build_target(kind, param, profile)
    except (KeyError, ValueError) as exc:
        return [f"cannot rebuild target: {exc}"]

    problems: list[str] = []
    stats = report["graph_stats"]
    if stats.get("n") != lg.graph.n or stats.get("m") != lg.graph.m:
        problems.append(
            f"graph_stats mismatch: report says n={stats.get('n')}, m={stats.get('m')}, "
            f"rebuild has n={lg.graph.n}, m={lg.graph.m}"
        )

    for idx, check in enumerate(report["checks"]):
        shape = _check_shape_problem(check, f"check {idx}")
        if shape:
            problems.append(shape)
            continue
        witness = tuple(check["witness"])
        mode = check.get("witness_mode")
        try:
            if not verify_witness(lg.graph, witness, mode):
                problems.append(f"check {idx}: witness {witness} is not a valid {mode}")
        except ValueError as exc:
            problems.append(f"check {idx}: witness invalid: {exc}")
            continue
        computed = check["computed"]
        if check["theorem_id"] == "T1_1":
            if len({lg.labels[v] for v in witness}) > 1:
                problems.append(f"check {idx}: witness spans more than one label")
            size = computed["mono_clique"]
            holds = size == check.get("claimed")
        else:
            size = computed["omega"] if mode == "clique" else computed["alpha"]
            holds = computed["omega"] <= check["r"] and computed["alpha"] <= check["r"]
        if len(witness) != size:
            problems.append(f"check {idx}: witness size differs from computed value")
        if check.get("status") != ("CONFIRMED" if holds else "REFUTED"):
            problems.append(f"check {idx}: status {check.get('status')} inconsistent with computed values")

    bound = report.get("bound")
    if bound is None:
        return problems
    shape = _shape_problem(bound, {"t": int, "n": int}, "bound")
    if shape:
        return problems + [shape]
    if bound.get("witness_ok") != (bound.get("implied") is not None):
        problems.append("bound: implied statement present iff witness_ok")
    if (
        bound.get("witness_ok")
        and bound["t"] == 3
        and bound["n"] >= 6
        and not bound.get("contradiction")
    ):
        problems.append("bound: R(3) implication on >= 6 vertices lacks contradiction flag")
    return problems


def read_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_report(path) -> dict:
    """Read a report and re-verify it; ValueError lists the problems found."""
    report = read_report(path)
    problems = verify_report(report)
    if problems:
        raise ValueError(f"report {path} failed re-verification: " + "; ".join(problems))
    return report


def run_verification(
    theorem: str,
    r: int,
    profile: InterpretationProfile = DEFAULT_PROFILE,
) -> dict:
    """Build the target, run one claim check, and assemble the full report.

    The theorem and r are checked before anything is built.  For T1.2 the
    Ramsey implication of the same build is derived from the
    already-computed clique and independence numbers, not re-solved.
    """
    started = _now()
    require_claim_r(theorem, r)
    if theorem == "1.1":
        lg = build_F(r, profile)
        tc = check_theorem_1_1(r, profile, lg=lg)
        bound = None
        kind, param = "F", r
    else:
        lg = build_SF(r + 1, profile)
        tc = check_theorem_1_2(r, profile, graph_override=lg.graph)
        bound = bound_report_from_counts(
            r + 1, lg.graph.n, tc.computed["omega"], tc.computed["alpha"]
        )
        kind, param = "SF", r + 1
    return make_report(kind, param, profile, lg, [tc], bound, started, _now())
