"""Record reference.json: the expected output of every input the workloads use.

Usage, from the repository root:  python3 bench/make_reference.py

For every (profile, target) that sweep_large and profiles_roundtrip touch
it records n, m, the computed values and the verdict; for search_random at
the default seed, omega and alpha of every graph of the first
REFERENCE_GROUPS passes.  The values come from the program itself, so run
this only on a commit whose answers are trusted; run.py then holds every
later commit to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
REFERENCE_GROUPS = 8


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from sfcheck import Graph, InterpretationProfile, max_clique, max_independent_set
    from sfcheck.report import run_verification

    targets = {}
    cases = [(wl.DEFAULT_PROFILE, job) for job in wl.claim_jobs(wl.SWEEP_T_MAX)]
    cases += [(prof, job) for prof in wl.PROFILES for job in wl.claim_jobs(wl.ROUNDTRIP_T_MAX)]
    for prof, (theorem, r) in cases:
        key = wl.target_key(prof, *wl.job_target(theorem, r))
        if key in targets:
            continue
        report = run_verification(theorem, r, InterpretationProfile.from_dict(prof))
        check = report["checks"][0]
        targets[key] = {
            "n": report["graph_stats"]["n"],
            "m": report["graph_stats"]["m"],
            "computed": check["computed"],
            "status": check["status"],
        }
        print(key, targets[key], flush=True)

    groups = []
    for group in range(REFERENCE_GROUPS):
        sizes = []
        for n, p, rows in wl.search_graphs(wl.DEFAULT_SEED, group):
            g = Graph(n, tuple(rows))
            sizes.append([max_clique(g).size, max_independent_set(g).size])
        print("search_random group", group, sizes, flush=True)
        groups.append(sizes)

    reference = {
        "targets": targets,
        "search_random": {"seed": wl.DEFAULT_SEED, "groups": groups},
    }
    text = json.dumps(reference, indent=1, sort_keys=True)
    (BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
