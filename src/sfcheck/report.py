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
)

SCHEMA_VERSION = "1"

Y_LABEL_NOTE = (
    "the label of base-path vertex y is an interpretation choice recorded in "
    "profile.y_label, not forced by the construction"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def check_to_dict(tc: TheoremCheck) -> dict:
    return {
        "theorem_id": tc.theorem_id,
        "r": tc.r,
        "profile": tc.profile.to_dict(),
        "claimed": tc.claimed,
        "computed": dict(tc.computed),
        "status": tc.status,
        "witness": list(tc.witness),
        "witness_mode": tc.witness_mode,
        "solver_stats": dict(tc.solver_stats),
    }


def bound_to_dict(b: BoundReport) -> dict:
    return {
        "t": b.t,
        "n": b.n,
        "witness_ok": b.witness_ok,
        "implied": b.implied,
        "contradiction": b.contradiction,
        "reference": b.reference,
    }


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
    deterministic: bool,
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
        "deterministic": deterministic,
        "graph_stats": {
            "n": lg.graph.n,
            "m": lg.graph.m,
            "label_counts": {str(k): v for k, v in counts.items()},
        },
        "checks": [check_to_dict(tc) for tc in checks],
        "bound": bound_to_dict(bound) if bound is not None else None,
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


def verify_report(report: dict) -> list[str]:
    """Re-check a loaded report against a fresh build of its target.

    Rebuilds the target graph, re-verifies every witness pairwise, and
    checks internal consistency (sizes, verdict arithmetic, bound flags).
    Returns a list of problems, empty when the report stands.
    """
    problems: list[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {report.get('schema_version')!r}")
        return problems
    try:
        profile = InterpretationProfile.from_dict(report["profile"])
        target = report["target"]
        lg = build_target(target["kind"], target["param"], profile)
    except (KeyError, ValueError) as exc:
        problems.append(f"cannot rebuild target: {exc}")
        return problems

    stats = report.get("graph_stats", {})
    if stats.get("n") != lg.graph.n or stats.get("m") != lg.graph.m:
        problems.append(
            f"graph_stats mismatch: report says n={stats.get('n')}, m={stats.get('m')}, "
            f"rebuild has n={lg.graph.n}, m={lg.graph.m}"
        )

    for idx, check in enumerate(report.get("checks", [])):
        witness = tuple(check["witness"])
        mode = check["witness_mode"]
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
            if len(witness) != computed["mono_clique"]:
                problems.append(f"check {idx}: witness size differs from computed value")
            want = "CONFIRMED" if computed["mono_clique"] == check["claimed"] else "REFUTED"
            if check["status"] != want:
                problems.append(f"check {idx}: status {check['status']} inconsistent with computed values")
        elif check["theorem_id"] == "T1_2":
            expected_size = computed["omega"] if mode == "clique" else computed["alpha"]
            if len(witness) != expected_size:
                problems.append(f"check {idx}: witness size differs from computed value")
            want = (
                "CONFIRMED"
                if computed["omega"] <= check["r"] and computed["alpha"] <= check["r"]
                else "REFUTED"
            )
            if check["status"] != want:
                problems.append(f"check {idx}: status {check['status']} inconsistent with computed values")
        else:
            problems.append(f"check {idx}: unknown theorem_id {check['theorem_id']!r}")

    bound = report.get("bound")
    if bound is not None:
        if bound["witness_ok"] != (bound["implied"] is not None):
            problems.append("bound: implied statement present iff witness_ok")
        if (
            bound["witness_ok"]
            and bound["t"] == 3
            and bound["n"] >= 6
            and not bound["contradiction"]
        ):
            problems.append("bound: R(3) implication on >= 6 vertices lacks contradiction flag")
    return problems


def read_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_report(path, *, reverify: bool = True) -> dict:
    report = read_report(path)
    if reverify:
        problems = verify_report(report)
        if problems:
            raise ValueError(f"report {path} failed re-verification: " + "; ".join(problems))
    return report


def run_verification(
    theorem: str,
    r: int,
    profile: InterpretationProfile = DEFAULT_PROFILE,
    *,
    deterministic: bool = True,
) -> dict:
    """Build the target, run one claim check, and assemble the full report.

    For T1.2 the Ramsey implication of the same build is derived from the
    already-computed clique and independence numbers, not re-solved.
    """
    started = _now()
    if theorem == "1.1":
        lg = build_F(r, profile)
        tc = check_theorem_1_1(r, profile, deterministic=deterministic, lg=lg)
        bound = None
        kind, param = "F", r
    elif theorem == "1.2":
        lg = build_SF(r + 1, profile)
        tc = check_theorem_1_2(r, profile, deterministic=deterministic, graph_override=lg.graph)
        bound = bound_report_from_counts(
            r + 1, lg.graph.n, tc.computed["omega"], tc.computed["alpha"]
        )
        kind, param = "SF", r + 1
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    return make_report(kind, param, profile, lg, [tc], bound, deterministic, started, _now())
