"""sfcheck benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Workloads: sweep_large, search_random, profiles_roundtrip (see
bench/README.md); ``all`` runs the three in turn.  A run is a fixed number
of passes, ``round(seconds / nominal pass time)``, each in a fresh process
with one serial caller (RF_THREADS=1).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it pairs an untraced pass with a traced
pass of the same inputs and reports the per-layer metrics from the spans.
End-to-end times and the tracing overhead are read at the reference speed
of clock.py; span times are raw seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name and unit.  Exits 2 without a result when the program's source is not
beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from datetime import datetime
from pathlib import Path
from time import perf_counter

import workloads as wl
from clock import calibrate, scaled, speed
from tracer import EXACT_COUNTS, LAYER_UNITS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Pass time of each workload at the commit that added the benchmark, on
# 2 vCPUs with Python 3.11; it fixes how many passes a run makes.
NOMINAL_PASS_S = {"sweep_large": 6.2, "search_random": 5.0, "profiles_roundtrip": 5.8}
MIN_PASSES = 3
CAP_FACTOR = 1.2
PASS_TIMEOUT_S = 90
SETUP_SAMPLES = 21
SETUP_CALL = "import sfcheck; sfcheck.complete(3)"
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["RF_THREADS"] = "1"
    return env


def measure_setup(env: dict) -> float:
    """Median time from spawning a process until ``import sfcheck`` and one
    trivial call have returned, at reference speed; one unmeasured spawn
    first warms the bytecode cache.  The calibration chunks run just
    before and after each spawn, with this process and the child held to
    one core, so both see the same speed."""
    cmd = [sys.executable, "-c", SETUP_CALL]
    samples = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for i in range(SETUP_SAMPLES + 1):
            before = calibrate()
            start = perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            end = perf_counter()
            if i:
                samples.append((end - start) * speed(before + calibrate(), start, end))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(samples)


def pass_seconds(result: dict, start: float, end: float) -> float:
    """An interval of a pass at reference speed (clock.py)."""
    return scaled(result["clock"], start, end)


def run_pass(spec: dict, pass_dir: Path, traced: bool, env: dict) -> dict:
    """One pass in a fresh worker process: its result and the peak RSS of
    that process."""
    spec_path = pass_dir / "spec.json"
    result_path = pass_dir / "result.json"
    spans_path = pass_dir / "spans.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)]
    if traced:
        cmd.append(str(spans_path))
    with open(pass_dir / "stdout.txt", "wb") as out, open(pass_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        stderr = (pass_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        result = {"ops": [], "error": f"worker exited {proc.returncode} without a result: {stderr}"}
    return {
        "rss_mb": usage.ru_maxrss / 1024,
        "result": result,
        "spans": spans_path if traced else None,
    }


class Checker:
    """Output checks against reference.json and independent re-checks.

    A report counts only when it exists, passes ``load_report``
    re-verification (run once per distinct report content) and matches the
    reference row of its (profile, target).
    """

    def __init__(self, reference: dict):
        from sfcheck.report import load_report, report_to_json, strip_volatile

        self.targets = reference["targets"]
        self.search = reference["search_random"]
        self._load_report = load_report
        self._canonical = lambda report: report_to_json(strip_volatile(report))
        self._verified: set[str] = set()
        self._graphs: dict[str, list[int]] = {}

    def report(self, path: str, key: str) -> tuple[str | None, dict | None]:
        try:
            with open(path) as fh:
                report = json.load(fh)
            canonical = self._canonical(report)
            if canonical not in self._verified:
                self._load_report(path)
                self._verified.add(canonical)
            check = report["checks"][0]
            got = {
                "n": report["graph_stats"]["n"],
                "m": report["graph_stats"]["m"],
                "computed": check["computed"],
                "status": check["status"],
            }
        except Exception as exc:
            return f"{key}: report {path} does not stand: {exc!r}", None
        if key not in self.targets:
            return f"{key}: no reference row", report
        if got != self.targets[key]:
            return f"{key}: got {got}, reference {self.targets[key]}", report
        return None, report

    def sweep_large(self, spec: dict, result: dict) -> tuple[list, list]:
        outcomes = []
        report_dir = spec["argv"][-1]
        refuted = False
        for theorem, r in wl.claim_jobs(wl.SWEEP_T_MAX):
            kind, param = wl.job_target(theorem, r)
            key = wl.target_key(wl.DEFAULT_PROFILE, kind, param)
            problem, report = self.report(os.path.join(report_dir, wl.job_name(theorem, r) + ".json"), key)
            if problem is None:
                try:
                    stamps = report["timestamps"]
                    latency = pass_seconds(
                        result,
                        datetime.fromisoformat(stamps["started"]).timestamp() - result["offset"],
                        datetime.fromisoformat(stamps["finished"]).timestamp() - result["offset"],
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    problem = f"{key}: no job time in the report's timestamps: {exc!r}"
            if problem:
                outcomes.append((key, problem, None))
                continue
            refuted = refuted or report["checks"][0]["status"] == "REFUTED"
            outcomes.append((key, None, latency))
        issues = []
        if all(p is None for _, p, _ in outcomes) and result.get("exit") != int(refuted):
            issues.append(f"sweep exit status {result.get('exit')} disagrees with its reports")
        return outcomes, issues

    def search_random(self, spec: dict, result: dict) -> tuple[list, list]:
        from sfcheck import Graph, oracle_max_clique

        seed, group = spec["seed"], spec["group"]
        expected = None
        if seed == self.search["seed"] and group < len(self.search["groups"]):
            expected = self.search["groups"][group]
        outcomes = []
        for i, (n, p, rows) in enumerate(wl.search_graphs(seed, group)):
            op = result["ops"][i] if i < len(result["ops"]) else {"error": "no result"}
            key = spec["graphs"][i]
            if "error" in op:
                outcomes.append((key, f"graph {i} (n={n}, p={p}): {op['error']}", None))
                continue
            out = op["out"]
            problems = [
                wl.witness_problem(rows, out["clique"], "clique"),
                wl.witness_problem(rows, out["independent"], "independent"),
            ]
            if len(out["clique"]) != out["omega"] or len(out["independent"]) != out["alpha"]:
                problems.append("witness size differs from the reported optimum")
            if n <= 24:
                full = (1 << n) - 1
                co_rows = tuple(full & ~row & ~(1 << v) for v, row in enumerate(rows))
                oracle = [oracle_max_clique(Graph(n, tuple(rows))), oracle_max_clique(Graph(n, co_rows))]
                if oracle != [out["omega"], out["alpha"]]:
                    problems.append(f"oracle gives omega, alpha = {oracle}")
            if expected is not None and expected[i] != [out["omega"], out["alpha"]]:
                problems.append(f"reference gives omega, alpha = {expected[i]}")
            problems = [p_ for p_ in problems if p_]
            got = f"omega={out['omega']} alpha={out['alpha']}"
            problem = f"graph {i} (n={n}, p={p}, {got}): {'; '.join(problems)}" if problems else None
            outcomes.append((key, problem, pass_seconds(result, op["start"], op["end"])))
        return outcomes, []

    def profiles_roundtrip(self, spec: dict, result: dict) -> tuple[list, list]:
        outcomes = []
        for i, job in enumerate(spec["jobs"]):
            op = result["ops"][i] if i < len(result["ops"]) else {"error": "no result"}
            kind, param = wl.job_target(job["theorem"], job["r"])
            key = wl.target_key(job["profile"], kind, param)
            if "error" in op:
                outcomes.append((job["name"], f"{key}: {op['error']}", None))
                continue
            problem, report = self.report(op["out"]["report"], key)
            if problem is None:
                problem = self._graph_problem(key, op["out"], report)
            outcomes.append((job["name"], problem, pass_seconds(result, op["start"], op["end"])))
        return outcomes, []

    def _graph_problem(self, key: str, out: dict, report: dict) -> str | None:
        """Decode the program's graph6 independently and re-check n, m, the
        DIMACS header and the report's witness on it."""
        g6 = out["graph6"]
        if g6 not in self._graphs:
            self._graphs[g6] = wl.graph6_to_rows(g6)
        rows = self._graphs[g6]
        n, m = len(rows), wl.edge_count(rows)
        ref = self.targets[key]
        if (n, m) != (ref["n"], ref["m"]):
            return f"{key}: graph6 decodes to n={n}, m={m}"
        if out["dimacs_header"] != f"p edge {n} {m}":
            return f"{key}: DIMACS header {out['dimacs_header']!r}"
        check = report["checks"][0]
        problem = wl.witness_problem(rows, check["witness"], check["witness_mode"])
        return f"{key}: {problem}" if problem else None


def src_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sfcheck").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts(counts: dict, key: str, ledger_path: Path) -> list[str]:
    """Exact counts must repeat whenever the same program does the same
    work, within a run and across runs in this checkout."""
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, counts)
    if seen != counts:
        return [f"count {k} was {seen.get(k)} for the same work, now {counts[k]}" for k in counts if seen.get(k) != counts[k]]
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger))
    os.replace(tmp, ledger_path)
    return []


def tail(latencies: list[float], planned: int) -> tuple[float, float]:
    """The latency at the highest percentile that leaves TAIL_BEYOND of the
    planned operations beyond it, and that percentile."""
    q = 1 - TAIL_BEYOND / planned
    if len(latencies) < 2:
        return (latencies[0] if latencies else 0.0), q
    cut = statistics.quantiles(latencies, n=1000, method="inclusive")
    return cut[min(998, max(0, round(q * 1000) - 1))], q


def run_workload(name: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    env = child_env()
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))
    if trace:
        plan = [(g, traced) for g in range(max(1, passes // 2)) for traced in (False, True)]
    else:
        plan = [(g, False) for g in range(passes)]
    setup_s = None if trace else measure_setup(env)

    # Passes run back to back.  On a machine much slower than the nominal
    # one, no new pass (or pass pair) starts after CAP_FACTOR * seconds.
    runs = []
    started = perf_counter()
    for k, (group, traced) in enumerate(plan):
        if runs and not traced and perf_counter() - started > CAP_FACTOR * seconds:
            break
        pass_dir = run_dir / f"pass{k}"
        pass_dir.mkdir()
        spec = wl.spec(name, seed, group, str(pass_dir))
        runs.append((traced, spec, run_pass(spec, pass_dir, traced, env)))

    checker = Checker(reference)
    fingerprint = src_fingerprint()
    outcomes, issues = [], []
    repeats: dict = {}
    # Pass times at reference speed, and raw for the record.
    walls: dict = {False: [], True: []}
    raw_walls = []
    layers: dict = {}
    for k, (traced, spec, run) in enumerate(runs):
        result = run["result"]
        if result.get("error"):
            issues.append(f"pass {k}: {result['error'].strip().splitlines()[-1]}")
        got, more = getattr(checker, name)(spec, result)
        outcomes += got
        issues += more
        if "pass" in result:
            walls[traced].append(pass_seconds(result, *result["pass"]))
            raw_walls.append(result["pass"][1] - result["pass"][0])
        if not traced:
            for op, problem, latency in got:
                if problem is None:
                    repeats.setdefault(op, []).append(latency)
            continue
        spans = run_dir / f"spans-pass{k}.json"
        try:
            os.replace(run["spans"], spans)
            with open(spans) as fh:
                one = layer_metrics(json.load(fh))
        except (OSError, ValueError) as exc:
            issues.append(f"pass {k}: no spans: {exc}")
            continue
        work = hashlib.sha256(json.dumps([fingerprint, wl.work_key(spec)]).encode()).hexdigest()
        issues += check_counts({c: one[c] for c in EXACT_COUNTS if c in one}, work, OUT / "counts.json")
        for key, value in one.items():
            layers[key] = layers.get(key, 0) + value
    for k in range(len(runs)):
        shutil.rmtree(run_dir / f"pass{k}", ignore_errors=True)
    failed = sum(1 for _, problem, _ in outcomes if problem)
    for _, problem, _ in outcomes:
        if problem:
            print(f"FAILED {problem}", file=sys.stderr)
    for issue in issues:
        print(f"PROBLEM {issue}", file=sys.stderr)

    if trace:
        vertices = layers["solve.clique_vertices"]
        layers["solve.nodes_per_vertex"] = layers["solve.nodes"] / vertices if vertices else 0.0
        layers["trace.overhead_s"] = sum(walls[True]) - sum(walls[False])
        metrics = {k: (layers[k], unit) for k, unit in LAYER_UNITS.items()}
        notes = {
            "trace.overhead_s": f"traced {sum(walls[True]):.3f} s - untraced {sum(walls[False]):.3f} s",
            "solve.nodes_per_vertex": "solve.nodes / solve.clique_vertices",
        }
        summary = f"totals over {len(walls[True])} traced passes, spans in {run_dir.relative_to(ROOT)}"
    else:
        # An operation repeated across passes (same job) counts once per
        # repetition, at the median of its repetitions.
        latencies = sorted(statistics.median(reps) for reps in repeats.values() for _ in reps)
        per_pass = len(outcomes) // len(runs)
        tail_s, q = tail(latencies, per_pass * len(plan))
        metrics = {
            "wall_s": (statistics.median(walls[False]) if walls[False] else 0.0, "s"),
            "op_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(run["rss_mb"] for *_, run in runs), "MB"),
        }
        notes = {
            "wall_s": "median of passes " + " ".join(f"{w:.3f}" for w in walls[False])
            + "; raw " + " ".join(f"{w:.3f}" for w in raw_walls),
            "op_p50_s": f"median of {len(latencies)} operations ({len(repeats)} distinct)",
            "op_tail_s": f"p{100 * q:.1f} of {len(latencies)} operations ({len(repeats)} distinct)",
            "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
            "peak_rss_mb": "largest of the passes' processes",
        }
        summary = f"{len(runs)} passes of {per_pass} operations"

    attempted = len(outcomes)
    print(f"# {name}: seed {seed}, trace {int(trace)}, {summary}")
    for key, (value, unit) in metrics.items():
        print(f"{name}  {key:34s} {value:14.6f} {unit:12s} {notes.get(key, '')}")
    print(f"{name}  {'fail_frac':34s} {failed / max(attempted, 1):14.6f} {'ratio':12s} {failed} of {attempted} operations failed")
    return {
        "correct": failed == 0 and not issues and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_PASS_S, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sfcheck" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sfcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)

    names = list(NOMINAL_PASS_S) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), reference) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
