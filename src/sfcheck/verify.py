"""Claim checking: CONFIRMED/REFUTED verdicts with certificates.

The harness is claim-neutral.  Verdicts come from exact solver output and
are never assumed: several interpretation profiles are expected to refute
the claims, and a refutation ships the violating witness.

Claim T1.1: the largest single-label clique in F(r) has size ceil(r/2).
Claim T1.2: SF(r+1) contains neither a clique nor an independent set on
r+1 vertices.

Each claim's rules are written once.  ``CLAIMS`` gives its smallest r and
the target it is checked on; its check states its claimed value, status
and witness mode from r and the computed sizes, and is built in the form
a report stores as ``checks[0]``: a dict, its witness a list.  A check
reads r from its one argument, a stack, its prefix of answered stages,
that ``report.run_verification`` builds, and refuses only the other
claim's kind; ``report.verify_report`` re-runs it, re-assembling the
report.  ``bound_report_from_counts`` turns T1.2's omega and alpha into
the Ramsey implication R(t) > n of SF(t), t = r+1, in the form a report
stores as ``bound``; ``report.make_report`` puts both in unchanged.  The
one diagonal Ramsey value small enough to re-derive at desk scale,
R(3) = 6, is established exhaustively by confirm_R3, on K_6 and on K_5
colored by C5's five edges, and used to flag contradictory implications.
"""

from __future__ import annotations

import reprlib
from functools import cache
from itertools import combinations

from sfcheck.solve import Stack, stage_mono_clique, stage_solve

# Reference metadata only: shipped for report annotations, never consulted
# by any pass/fail decision.  R(3) = 6 is additionally re-derived from
# scratch by confirm_R3.
KNOWN_DIAGONAL_RAMSEY = {3: 6, 4: 18}

# Each claim by theorem number: the smallest r it is stated for, and the
# kind of its target with the target's parameter less r, so that T1.1 is
# checked on F(r) and T1.2 on SF(r + 1).
CLAIMS = {"1.1": (3, "F", 0), "1.2": (2, "SF", 1)}


def claim_target(theorem: str, r: int) -> tuple[str, int]:
    """(kind, param) of the target claim T<theorem> is checked on at r.

    ValueError for an unknown theorem, or an r that is not exactly an int
    or is below the claim's minimum.
    """
    if theorem not in CLAIMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    min_r, kind, shift = CLAIMS[theorem]
    if type(r) is not int:
        raise ValueError(f"claim T{theorem} needs an integer r, got {reprlib.repr(r)}")
    if r < min_r:
        raise ValueError(f"claim T{theorem} needs r >= {min_r}, got {r}")
    return kind, r + shift


def _claim_r(theorem: str, stack: Stack) -> int:
    """r of claim T<theorem> on ``stack``; ValueError for a stack of another kind."""
    _, kind, shift = CLAIMS[theorem]
    if stack.kind != kind:
        raise ValueError(f"claim T{theorem} is checked on {kind}, not on {stack.kind}({stack.param})")
    return stack.param - shift


def check_theorem_1_1(stack: Stack) -> dict:
    """Compare the largest single-label clique of ``stack``, F(r) under its
    profile, read from its stage's part optima (``solve.stage_mono_clique``),
    against ceil(r/2).  Its witness is one block mask of one part, so one
    AND with that part's label-1 class shows that it has one label."""
    r = _claim_r("1.1", stack)
    res = stage_mono_clique(stack)
    (((*_, odd, _), mask),) = res.masks.items()
    if mask & odd not in (0, mask):
        raise AssertionError("single-label witness spans both labels")
    claimed = (r + 1) // 2
    if res.size < claimed:  # F(r) holds a one-label clique of ceil(r/2): a smaller size is a solver fault
        raise AssertionError(f"single-label clique of {res.size} below the claim's {claimed}")
    status = "CONFIRMED" if res.size == claimed else "REFUTED"
    return {
        "theorem_id": "T1_1", "r": r, "claimed": claimed, "computed": {"mono_clique": res.size}, "status": status,
        "witness": list(stack.members(res.masks, "clique")), "witness_mode": "clique",
    }


def check_theorem_1_2(stack: Stack) -> dict:
    """Check that ``stack``, SF(r+1) under its profile, has no clique or
    independent set on r+1 vertices.

    Its omega and alpha come from its prefix (``solve.stage_solve``);
    only the witness the report stores is checked and listed
    (``Stack.members``): the violating clique first, else the violating
    independent set, else the maximum clique.
    """
    r = _claim_r("1.2", stack)
    omega, alpha = stage_solve(stack)
    claimed = f"omega(SF({r + 1})) <= {r} and alpha(SF({r + 1})) <= {r}"
    status = "CONFIRMED" if omega.size <= r and alpha.size <= r else "REFUTED"
    mode, shown = ("independent", alpha) if omega.size <= r < alpha.size else ("clique", omega)
    return {
        "theorem_id": "T1_2", "r": r, "claimed": claimed, "computed": {"omega": omega.size, "alpha": alpha.size}, "status": status,
        "witness": list(stack.members(shown.masks, mode)), "witness_mode": mode,
    }


def bound_report_from_counts(t: int, n: int, omega: int, alpha: int) -> dict:
    """The report's ``bound``, assembled from already-computed exact counts:
    SF(t) on n vertices with omega and alpha both below t shows R(t) > n."""
    implied = f"R({t}) > {n}" if omega < t and alpha < t else None
    contradiction = None
    if implied and t == 3 and n >= 6 and confirm_R3():
        contradiction = (
            f"implication R(3) > {n} contradicts R(3) = 6, which confirm_R3 "
            "establishes by exhaustive enumeration"
        )
    reference = None
    if t in KNOWN_DIAGONAL_RAMSEY:
        reference = (
            f"known value R({t}) = {KNOWN_DIAGONAL_RAMSEY[t]} "
            "(reference annotation only; verdicts never consult it)"
        )
    return {"implied": implied, "contradiction": contradiction, "reference": reference}


@cache
def confirm_R3() -> bool:
    """Re-derive R(3) = 6 from scratch.

    Enumerates all 2^15 red/blue colorings of K_6's edges and confirms each
    contains a monochromatic triangle, then confirms the 5-cycle coloring of
    K_5 contains none: C5's five edges, written out, red, and the other
    five pairs blue.  The result is cached after the first call.
    """
    pairs = list(combinations(range(6), 2))
    index = {p: i for i, p in enumerate(pairs)}
    triangle_masks = []
    for a, b, c in combinations(range(6), 3):
        triangle_masks.append(
            (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
        )

    k6_forced = True
    for coloring in range(1 << 15):
        for mask in triangle_masks:
            hit = coloring & mask
            if hit == mask or hit == 0:
                break
        else:
            k6_forced = False
            break

    red = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}  # C5's edges; the other five pairs are blue
    k5_free = all(0 < len(red & {(a, b), (a, c), (b, c)}) < 3 for a, b, c in combinations(range(5), 3))
    return k6_forced and k5_free
