"""The benchmark's workloads: seeded inputs per pass, and output checks.

A run of a workload is a fixed number of passes.  Each pass runs in a
fresh process (worker.py) on the inputs that ``spec(seed, group)`` gives
for its group number, so the same seed always gives the same inputs.

The graphs and the graph6 text given to the program are made here, with
this file's own generator and encoder, and every witness the program
returns is re-checked here pairwise against those graphs.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 1

# The headline command: T1.1 on F(3..12) and T1.2 on SF(3..12), default
# profile, serial.  SF(12) has n = 1134.
SWEEP_T_MAX = 12

DEFAULT_PROFILE = {"sum": "disjoint_union", "prod": "lexicographic", "base_case": "explicit_path", "y_label": 2}

# All 24 interpretation profiles, T1.1 on F(3..7) and T1.2 on SF(3..7).
ROUNDTRIP_T_MAX = 7
PROFILES = [
    {"sum": s, "prod": p, "base_case": b, "y_label": y}
    for s, p, b, y in itertools.product(
        ("disjoint_union", "join"),
        ("lexicographic", "cartesian", "tensor"),
        ("explicit_path", "general"),
        (1, 2),
    )
]

# G(n, p) classes of one search_random pass, three graphs each.  Sparse
# classes make alpha the hard half and dense ones omega; the n <= 24 slice
# is checked against the enumeration oracle.
SEARCH_CLASSES = [(130, 0.35), (180, 0.4), (200, 0.5), (150, 0.6), (120, 0.7), (100, 0.8)]
SEARCH_PER_CLASS = 3
ORACLE_SLICE = [(16, 0.5), (20, 0.3), (22, 0.7), (24, 0.5)]


def profile_key(profile: dict) -> str:
    return "{sum}/{prod}/{base_case}/y{y_label}".format(**profile)


def target_key(profile: dict, kind: str, param: int) -> str:
    """Key of one (profile, target) row in reference.json."""
    return f"{profile_key(profile)}/{kind}{param}"


def job_name(theorem: str, r: int) -> str:
    """Report file name the CLI sweep uses for one job."""
    return f"t{theorem.replace('.', '')}_r{r}"


def claim_jobs(t_max: int) -> list[tuple[str, int]]:
    """The jobs of ``sfcheck sweep --t-max t_max``: T1.1 on F(3..t_max),
    T1.2 on SF(3..t_max)."""
    return [("1.1", r) for r in range(3, t_max + 1)] + [("1.2", r) for r in range(2, t_max)]


def job_target(theorem: str, r: int) -> tuple[str, int]:
    return ("F", r) if theorem == "1.1" else ("SF", r + 1)


# ---------------------------------------------------------------- graphs


def random_rows(n: int, p: float, rng: random.Random) -> list[int]:
    """G(n, p) as adjacency bitmasks, pairs drawn in (i, j) order."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def rows_to_graph6(rows: list[int]) -> str:
    """graph6 text for n <= 62 or n <= 258047 (the sizes used here)."""
    n = len(rows)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def graph6_to_rows(text: str) -> list[int]:
    """Inverse of rows_to_graph6, written independently of the program."""
    vals = [ord(c) - 63 for c in text.strip()]
    if vals[0] < 63:
        n, pos = vals[0], 1
    else:
        n, pos = (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[pos + k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def witness_problem(rows: list[int], members, mode: str) -> str | None:
    """Pairwise check that ``members`` is a clique or an independent set."""
    vs = list(members)
    if len(set(vs)) != len(vs) or any(not 0 <= v < len(rows) for v in vs):
        return f"{mode} witness {vs} has repeated or out-of-range vertices"
    want = mode == "clique"
    for a, b in itertools.combinations(vs, 2):
        if bool((rows[a] >> b) & 1) != want:
            return f"{mode} witness {vs} fails at pair ({a}, {b})"
    return None


def search_graphs(seed: int, group: int) -> list[tuple[int, float, list[int]]]:
    """The (n, p, rows) list of one search_random pass."""
    rng = random.Random(f"search_random:{seed}:{group}")
    classes = [c for c in SEARCH_CLASSES for _ in range(SEARCH_PER_CLASS)] + ORACLE_SLICE
    return [(n, p, random_rows(n, p, rng)) for n, p in classes]


# ----------------------------------------------------------------- specs


def spec(workload: str, seed: int, group: int, pass_dir: str) -> dict:
    """Inputs of one pass, as the JSON the worker reads."""
    if workload == "sweep_large":
        # The command line is fixed; the seed changes nothing here.
        return {
            "workload": workload,
            "argv": ["sweep", "--t-max", str(SWEEP_T_MAX), "--report-dir", pass_dir],
        }
    if workload == "search_random":
        return {
            "workload": workload,
            "seed": seed,
            "group": group,
            "graphs": [rows_to_graph6(rows) for _, _, rows in search_graphs(seed, group)],
        }
    if workload == "profiles_roundtrip":
        jobs = [
            {"profile": prof, "theorem": th, "r": r, "name": f"{profile_key(prof).replace('/', '_')}_{job_name(th, r)}"}
            for prof in PROFILES
            for th, r in claim_jobs(ROUNDTRIP_T_MAX)
        ]
        random.Random(f"profiles_roundtrip:{seed}:{group}").shuffle(jobs)
        return {"workload": workload, "dir": pass_dir, "jobs": jobs}
    raise ValueError(f"unknown workload {workload!r}")


def work_key(spec_: dict) -> list:
    """What a pass computes, independent of its output directory and job
    order; passes with equal keys must report equal counts."""
    w = spec_["workload"]
    if w == "sweep_large":
        return [w, spec_["argv"][:3]]
    if w == "search_random":
        return [w, spec_["graphs"]]
    return [w, sorted(job["name"] for job in spec_["jobs"])]
