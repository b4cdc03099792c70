"""Command-line front end.

Exit codes: 0 success, 1 when a REFUTED verdict is present, 2 on usage or
build errors, 3 on an internal error (any other exception, such as a
failed witness re-check, RecursionError or MemoryError), so a crash never
reads as a refutation.  ``sweep`` runs its jobs in order in one process,
writes each report as its job finishes, and ends with its wall time and
each memo's builds and hits.  Once stdout's reader has gone, every command
runs on silent and exits as it would have.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from sfcheck.construct import DEFAULT_PROFILE, InterpretationProfile, build_F, build_SF
from sfcheck.formats import encode_dimacs, encode_graph6
from sfcheck.report import require_rebuildable, run_verification, write_report
from sfcheck.solve import _chains, stage
from sfcheck.verify import CLAIMS

_SUM_FLAGS = {"union": "disjoint_union", "join": "join"}
_PROD_FLAGS = {"lex": "lexicographic", "cart": "cartesian", "tensor": "tensor"}
_BASE_FLAGS = {"explicit": "explicit_path", "general": "general"}


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sum", choices=sorted(_SUM_FLAGS), help="reading of the block combination")
    parser.add_argument("--prod", choices=sorted(_PROD_FLAGS), help="reading of the copy product")
    parser.add_argument("--base", choices=sorted(_BASE_FLAGS), help="stage-3 base case")
    parser.add_argument("--y-label", dest="y_label", type=int, choices=(1, 2),
                        help="label of base-path vertex y")


def _profile_from_args(args: argparse.Namespace) -> InterpretationProfile:
    updates = {}
    if args.sum is not None:
        updates["sum"] = _SUM_FLAGS[args.sum]
    if args.prod is not None:
        updates["prod"] = _PROD_FLAGS[args.prod]
    if args.base is not None:
        updates["base_case"] = _BASE_FLAGS[args.base]
    if args.y_label is not None:
        updates["y_label"] = args.y_label
    return DEFAULT_PROFILE.replace(**updates)


def _check_summary(report: dict) -> str:
    check = report["checks"][0]
    kind = report["target"]["kind"]
    param = report["target"]["param"]
    claimed = check["claimed"]
    computed = check["computed"]
    return (
        f"{check['theorem_id']} r={check['r']} on {kind}({param}) "
        f"[n={report['graph_stats']['n']}]: {check['status']} "
        f"(claimed {claimed!r}, computed {computed})"
    )


def _say(line: str) -> None:
    """Print ``line``; once stdout's reader has gone, send all later output nowhere."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


# The largest SF that ``build`` exports whole: SF(31) has 19830 vertices and SF(32) 21814.
MAX_EXPORT_T = 31


def _cmd_build(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    require_rebuildable(args.kind, args.param)
    if args.kind == "SF" and args.param > MAX_EXPORT_T:
        raise ValueError(f"SF({args.param}) is above the export limit of t = {MAX_EXPORT_T}")
    g = (build_F if args.kind == "F" else build_SF)(args.param, profile).graph
    text = encode_graph6(g) + "\n" if args.format == "graph6" else encode_dimacs(g)
    with open(args.out, "w") as fh:
        fh.write(text)
    _say(f"{args.kind}({args.param}): n={g.n} m={g.m} -> {args.out} [{args.format}]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    report = run_verification(args.theorem, args.r, profile)
    write_report(args.report, report)
    _say(_check_summary(report))
    if report["bound"] is not None:
        bound = report["bound"]
        _say(f"bound: witness_ok={bound['witness_ok']} implied={bound['implied']!r}")
    return 1 if report["checks"][0]["status"] == "REFUTED" else 0


def _built() -> tuple[int, int, int]:
    """Stages built, stage memo hits and prefixes built in this process."""
    return stage.cache_info().misses, stage.cache_info().hits, sum(map(len, _chains.values()))


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Each claim's largest target has parameter t-max, so this one check
    # refuses, before any job runs, a sweep that no loader would rebuild.
    require_rebuildable("SF", args.t_max)
    profile = _profile_from_args(args)
    # Every claim at every r from its minimum whose target's parameter is at most t-max.
    jobs = [
        (theorem, r)
        for theorem, (min_r, _, shift) in CLAIMS.items()
        for r in range(min_r, args.t_max - shift + 1)
    ]
    os.makedirs(args.report_dir, exist_ok=True)
    refuted, started, before = False, time.perf_counter(), _built()
    # Each report is written as its job finishes, so a failed job keeps
    # the reports of the jobs before it.
    for theorem, r in jobs:
        report = run_verification(theorem, r, profile)
        write_report(os.path.join(args.report_dir, f"t{theorem.replace('.', '')}_r{r}.json"), report)
        _say(_check_summary(report))
        refuted = refuted or report["checks"][0]["status"] == "REFUTED"
    seconds = time.perf_counter() - started
    stages, hits, prefixes = (a - b for a, b in zip(_built(), before))
    _say(f"sweep: {len(jobs)} reports -> {args.report_dir} in {seconds:.2f} s; stage memo: {stages} built, {hits} hits; prefixes: {prefixes} built")
    return 1 if refuted else 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcheck",
        description="Build the layered two-label graphs F(r)/SF(t) and verify their claimed properties exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a graph and write it to a file")
    p_build.add_argument("--kind", choices=("F", "SF"), required=True)
    p_build.add_argument("--r", "--t", dest="param", type=int, required=True,
                         help="stage parameter r (kind F) or stack parameter t (kind SF)")
    _add_profile_args(p_build)
    p_build.add_argument("--format", choices=("graph6", "dimacs"), default="graph6")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="check one claim instance and write a JSON report")
    p_verify.add_argument("--theorem", choices=tuple(CLAIMS), required=True)
    p_verify.add_argument("--r", type=int, required=True)
    _add_profile_args(p_verify)
    p_verify.add_argument("--report", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run all claim checks up to --t-max")
    p_sweep.add_argument("--t-max", dest="t_max", type=int, required=True)
    _add_profile_args(p_sweep)
    p_sweep.add_argument("--report-dir", dest="report_dir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # loaded only on this path: a run that ends well starts without it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
