"""Run one pass of a workload in a fresh process.

Usage: python3 bench/worker.py SPEC.json RESULT.json [SPANS.json]

Reads the pass's inputs from SPEC.json (see workloads.spec), calls the
program through its public functions or its CLI, and writes what each
operation returned, or the exception it raised, to RESULT.json.  With
SPANS.json the wrappers of tracer.py record spans, written there when the
pass ends.  Every pass runs under clock.SpeedClock; its calibration
samples go to RESULT.json with the start and end of the pass and of every
operation, so run.py can rescale them.  An exception fails its operation
and the pass goes on.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from time import perf_counter

from clock import SpeedClock


def _run_ops(items, op, tracer, ops: list) -> None:
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            out = op(item)
        except Exception:
            ops.append({"error": traceback.format_exc(limit=-3)})
            continue
        ops.append({"start": start, "end": perf_counter(), "out": out})


def search_random(spec: dict, tracer, result: dict) -> None:
    from sfcheck import decode_graph6, max_clique, max_independent_set

    def op(text):
        g = decode_graph6(text)
        omega = max_clique(g)
        alpha = max_independent_set(g)
        return {
            "omega": omega.size,
            "clique": list(omega.witness),
            "alpha": alpha.size,
            "independent": list(alpha.witness),
        }

    _run_ops(spec["graphs"], op, tracer, result["ops"])


def profiles_roundtrip(spec: dict, tracer, result: dict) -> None:
    from sfcheck import (
        InterpretationProfile,
        build_F,
        build_SF,
        decode_graph6,
        encode_dimacs,
        encode_graph6,
    )
    from sfcheck.report import load_report, run_verification, write_report

    builders = {"F": build_F, "SF": build_SF}

    def op(job):
        profile = InterpretationProfile.from_dict(job["profile"])
        report = run_verification(job["theorem"], job["r"], profile)
        path = os.path.join(spec["dir"], job["name"] + ".json")
        write_report(path, report)
        load_report(path)
        target = report["target"]
        graph = builders[target["kind"]](target["param"], profile).graph
        g6 = encode_graph6(graph)
        dimacs = encode_dimacs(graph)
        if decode_graph6(g6) != graph:
            raise ValueError("graph6 round trip changed the graph")
        return {"report": path, "graph6": g6, "dimacs_header": dimacs.split("\n", 1)[0]}

    _run_ops(spec["jobs"], op, tracer, result["ops"])


def sweep_large(spec: dict, tracer, result: dict) -> None:
    # The CLI writes one report per job; run.py reads and checks them.
    import sfcheck.cli

    result["exit"] = sfcheck.cli.main(spec["argv"])


RUNNERS = {
    "sweep_large": sweep_large,
    "search_random": search_random,
    "profiles_roundtrip": profiles_roundtrip,
}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer("report.run_verification" if spec["workload"] == "sweep_large" else None)
        tracer.install()
    clock = SpeedClock()
    clock.start()
    # time.time() - perf_counter(), to place the reports' timestamps.
    result = {"ops": [], "error": None, "offset": time.time() - perf_counter()}
    start = perf_counter()
    try:
        RUNNERS[spec["workload"]](spec, tracer, result)
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        result["pass"] = [start, perf_counter()]
        clock.stop()
        result["clock"] = clock.samples
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        if tracer is not None:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
