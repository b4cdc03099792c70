"""Verifier tests: verdict logic, certificates, Ramsey ground truth."""

import itertools
import json
import os
import random
import re
import reprlib
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfcheck
from sfcheck import verify
from sfcheck.construct import DEFAULT_PROFILE, build_F, build_SF
from sfcheck.graphs import complement, complete, cycle, empty, random_graph
from sfcheck.report import make_report, report_to_json, run_verification, verify_report
from sfcheck.solve import Stack, oracle_max_clique, verify_witness
from sfcheck.verify import (
    bound_report_from_counts,
    check_theorem_1_1,
    check_theorem_1_2,
    confirm_R3,
)

from oracles import clear_memos, family_representatives, reference_verdict

GENERAL = DEFAULT_PROFILE.replace(base_case="general")
TENSOR = GENERAL.replace(prod="tensor")


class TestTheorem11:
    def test_r3_explicit_confirmed(self):
        tc = check_theorem_1_1(Stack("F", 3, DEFAULT_PROFILE))
        assert tc["status"] == "CONFIRMED"
        assert tc["claimed"] == 2
        assert tc["computed"] == {"mono_clique": 2}
        assert tc["witness"] == [2, 3]

    def test_r4_default_verdict_from_solver(self):
        # The harness must not presume the claim holds; at r=4 the computed
        # value is 3 (one vertex per complement part on one side) against a
        # claimed 2, so the honest verdict is REFUTED.
        lg = build_F(4, DEFAULT_PROFILE)
        tc = check_theorem_1_1(Stack("F", 4, DEFAULT_PROFILE))
        assert tc["claimed"] == 2
        assert tc["computed"]["mono_clique"] == 3
        assert tc["status"] == "REFUTED"
        assert verify_witness(lg.graph, tc["witness"], "clique")
        assert len({lg.labels[v] for v in tc["witness"]}) == 1

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_tensor_profile_still_computes_both_sides(self, r):
        tc = check_theorem_1_1(Stack("F", r, TENSOR))
        assert tc["computed"]["mono_clique"] >= 1
        assert tc["status"] == ("CONFIRMED" if tc["computed"]["mono_clique"] == tc["claimed"] else "REFUTED")

    def test_status_is_pure_arithmetic(self):
        for r in (3, 4, 5):
            tc = check_theorem_1_1(Stack("F", r, GENERAL))
            assert (tc["status"] == "CONFIRMED") == (tc["computed"]["mono_clique"] == tc["claimed"])

    def test_rejects_small_r(self):
        # r = 2 would be checked on F(2), a stack that cannot be built.
        with pytest.raises(ValueError, match="^stage parameter must be >= 3, got 2$"):
            check_theorem_1_1(Stack("F", 2, DEFAULT_PROFILE))


class TestTheorem12:
    def test_base_case_honest_refutation(self):
        g = build_SF(3, DEFAULT_PROFILE).graph
        tc = check_theorem_1_2(Stack("SF", 3, DEFAULT_PROFILE))
        assert tc["status"] == "REFUTED"
        assert tc["computed"] == {"omega": 2, "alpha": 3}
        assert tc["witness_mode"] == "independent"
        assert len(tc["witness"]) == 3
        assert verify_witness(g, tc["witness"], "independent")

    def test_r3_default_certificate(self):
        g = build_SF(4, DEFAULT_PROFILE).graph
        tc = check_theorem_1_2(Stack("SF", 4, DEFAULT_PROFILE))
        assert verify_witness(g, tc["witness"], tc["witness_mode"])
        confirmed = tc["computed"]["omega"] <= 3 and tc["computed"]["alpha"] <= 3
        assert tc["status"] == ("CONFIRMED" if confirmed else "REFUTED")
        if tc["status"] == "REFUTED":
            assert len(tc["witness"]) >= 4

    def test_deterministic_reruns(self):
        a = check_theorem_1_2(Stack("SF", 4, DEFAULT_PROFILE))
        clear_memos()
        b = check_theorem_1_2(Stack("SF", 4, DEFAULT_PROFILE))
        assert a == b

    def test_rejects_small_r(self):
        # r = 1 would be checked on SF(2), a stack that cannot be built.
        with pytest.raises(ValueError, match="^stack parameter must be >= 3, got 2$"):
            check_theorem_1_2(Stack("SF", 2, DEFAULT_PROFILE))


def oracle_verdict(g, r):
    """(computed, (claimed, status, witness_mode)) of ``check_theorem_1_2``
    on a stand-in SF(r+1) whose stage route reports g's clique and
    independence numbers, both counted by the enumeration oracle.  Each
    result's masks name it, so the stand-in's witness lists the name of
    the result the check lists."""
    computed = {"omega": oracle_max_clique(g), "alpha": oracle_max_clique(complement(g))}
    results = [SimpleNamespace(size=computed[name], masks=name) for name in ("omega", "alpha")]
    stack = SimpleNamespace(kind="SF", param=r + 1, members=lambda masks, mode: (masks,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "stage_solve", lambda stack: results)
        tc = check_theorem_1_2(stack)
    assert tc["computed"] == computed
    assert tc["witness"] == ["alpha" if tc["witness_mode"] == "independent" else "omega"]
    return computed, (tc["claimed"], tc["status"], tc["witness_mode"])


class TestTheorem12Rule:
    """T1.2's verdict rule on graphs outside the construction, whose sizes
    come from the enumeration oracle."""

    def test_cycle5_confirmed(self):
        computed, verdict = oracle_verdict(cycle(5), 2)
        assert computed == {"omega": 2, "alpha": 2}
        assert verdict == ("omega(SF(3)) <= 2 and alpha(SF(3)) <= 2", "CONFIRMED", "clique")
        assert verdict == reference_verdict("T1_2", 2, computed)

    @pytest.mark.parametrize("n, r", [(6, 2), (5, 4)])
    def test_complete_refuted_with_clique(self, n, r):
        computed, verdict = oracle_verdict(complete(n), r)
        assert computed == {"omega": n, "alpha": 1}
        assert verdict[1:] == ("REFUTED", "clique")
        assert verdict == reference_verdict("T1_2", r, computed)

    def test_empty6_refuted_with_independent_set(self):
        computed, verdict = oracle_verdict(empty(6), 2)
        assert computed == {"omega": 1, "alpha": 6}
        assert verdict[1:] == ("REFUTED", "independent")
        assert verdict == reference_verdict("T1_2", 2, computed)


class TestCheckKind:
    """A check reads r from the stack it judges, and its report the
    profile; the one stack a check refuses is one of the other claim's
    kind."""

    @pytest.mark.parametrize(
        "check, stack, message",
        [
            (check_theorem_1_1, ("SF", 4), "claim T1.1 is checked on F, not on SF(4)"),
            (check_theorem_1_2, ("F", 4), "claim T1.2 is checked on SF, not on F(4)"),
        ],
        ids=["T1.1 on SF", "T1.2 on F"],
    )
    def test_stack_of_the_other_kind_refused(self, check, stack, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(Stack(*stack, DEFAULT_PROFILE))

    @pytest.mark.parametrize(
        "check, kind, shift",
        [(check_theorem_1_1, "F", 0), (check_theorem_1_2, "SF", 1)],
        ids=["T1.1", "T1.2"],
    )
    def test_r_and_profile_come_from_the_stack(self, check, kind, shift):
        for profile in (DEFAULT_PROFILE, GENERAL.replace(sum="join"), TENSOR):
            for param in (3, 4, 7):
                stack = Stack(kind, param, profile)
                tc = check(stack)
                assert tc["r"] == param - shift, (profile, param)
                assert make_report(stack, tc, None, None)["profile"] == profile.to_dict(), (profile, param)
                assert (tc["claimed"], tc["status"], tc["witness_mode"]) == reference_verdict(tc["theorem_id"], tc["r"], tc["computed"]), (profile, param)


@pytest.mark.parametrize("profile", family_representatives(), ids=str)
def test_checks_and_bounds_are_stored_as_built(profile):
    """A check is built in the form a report stores it: its JSON reads
    back equal, ``make_report`` stores it unchanged, and a T1.2 report
    stores the bound that ``bound_report_from_counts`` builds from its
    counts, so no second form of either can come between."""
    for kind, check in (("F", check_theorem_1_1), ("SF", check_theorem_1_2)):
        for param in range(3, 9):
            stack = Stack(kind, param, profile)
            tc = check(stack)
            assert tc == json.loads(report_to_json(tc)), (kind, param)
            report = make_report(stack, tc, None, None)
            assert report["checks"] == [tc], (kind, param)
            computed = tc["computed"]
            bound = bound_report_from_counts(param, stack.n, computed["omega"], computed["alpha"]) if kind == "SF" else None
            assert report["bound"] == bound, (kind, param)


def test_each_job_calls_its_check_by_every_module_binding(monkeypatch):
    """A counting wrapper bound in place of each check, wherever a sfcheck
    module binds it, as ``bench/tracer.py`` binds its spans, sees one call
    per job from ``run_verification`` and one from ``verify_report``."""
    import sfcheck.cli  # noqa: F401  (loads every module of the package)

    calls = Counter()

    def counting(check):
        def wrapper(*args):
            calls[check.__name__] += 1
            return check(*args)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sfcheck"]
    for check in (check_theorem_1_1, check_theorem_1_2):
        wrapped = counting(check)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is check:
                    monkeypatch.setattr(module, key, wrapped)
    for theorem, r, name in (("1.1", 4, "check_theorem_1_1"), ("1.2", 3, "check_theorem_1_2")):
        calls.clear()
        report = run_verification(theorem, r)
        assert calls == {name: 1}
        assert verify_report(report) == []
        assert calls == {name: 2}


class TestClaimMinimum:
    @pytest.mark.parametrize(
        "theorem, r, message",
        [("1.1", 2, "claim T1.1 needs r >= 3, got 2"), ("1.2", 1, "claim T1.2 needs r >= 2, got 1")],
    )
    def test_run_verification_names_the_claim(self, theorem, r, message):
        # r is checked before the target is built, so the build's own
        # parameter (t = r + 1 for T1.2) never appears in the message.
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_verification(theorem, r)

    def test_run_verification_rejects_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            run_verification("2.1", 3)


class TestExactIntParameter:
    """A parameter that is not exactly an int is refused before the stage
    memo, which keys 4.0 as 4 and True as 1, sees it."""

    def test_float_r_is_refused_memo_or_not(self):
        # A fresh process, so the first call meets an empty stage memo and
        # the last one a memo holding stage 4.
        script = (
            "from sfcheck.report import run_verification\n"
            "for r in (4.0, 4, 4.0):\n"
            "    try:\n"
            "        run_verification('1.1', r)\n"
            "        print(r, 'ran')\n"
            "    except Exception as exc:\n"
            "        print(r, type(exc).__name__)\n"
        )
        src = os.path.dirname(os.path.dirname(sfcheck.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines() == ["4.0 ValueError", "4 ran", "4.0 ValueError"]

    @pytest.mark.parametrize(
        "call, value",
        [
            (lambda: Stack("F", 4.0, DEFAULT_PROFILE), 4.0),
            (lambda: build_F(4.0), 4.0),
            (lambda: build_SF(5.0), 5.0),
            (lambda: Stack("SF", True, DEFAULT_PROFILE), True),
            (lambda: build_F(True), True),
            (lambda: build_SF(True), True),
        ],
        ids=["Stack F 4.0", "build_F 4.0", "build_SF 5.0", "Stack SF True", "build_F True", "build_SF True"],
    )
    def test_non_int_parameter_is_named(self, call, value):
        with pytest.raises(ValueError, match=f"^st(age|ack) parameter must be an integer, got {value!r}$"):
            call()

    @pytest.mark.parametrize("theorem, r", [("1.1", "7"), ("1.2", None), ("1.1", True), ("1.2", 2.0)])
    def test_non_int_r_is_named(self, theorem, r):
        # Checked before r is compared with the claim's minimum: "7" and
        # None do not compare with it, True passes for 1 and 2.0 would
        # reach the target as 3.0.
        with pytest.raises(ValueError, match=f"^claim T{re.escape(theorem)} needs an integer r, got {re.escape(reprlib.repr(r))}$"):
            run_verification(theorem, r)


class TestBoundReport:
    def test_t3_explicit_no_implication(self):
        b = run_verification("1.2", 2)["bound"]
        assert b.keys() == {"implied", "contradiction", "reference"}
        assert b["implied"] is None
        assert b["contradiction"] is None

    def test_t3_c5_implication(self):
        b = bound_report_from_counts(3, 5, 2, 2)
        assert b["implied"] == "R(3) > 5"
        assert b["contradiction"] is None

    def test_t4_default_consistency(self):
        report = run_verification("1.2", 3)
        b = report["bound"]
        assert (report["target"]["param"], report["graph_stats"]["n"]) == (4, 30)
        assert (report["checks"][0]["status"] == "CONFIRMED") == (b["implied"] is not None)
        assert "R(4) = 18" in b["reference"]

    def test_contradiction_flag_guards_r3(self):
        # No real graph on >= 6 vertices has omega < 3 and alpha < 3 (that
        # is exactly what confirm_R3 proves), so the flag is exercised on
        # counts no solver can return.
        b = bound_report_from_counts(3, 6, 2, 2)
        assert b["implied"] == "R(3) > 6"
        assert b["contradiction"] is not None and "R(3) = 6" in b["contradiction"]


class TestConfirmR3:
    def test_ground_truth_holds(self):
        assert confirm_R3() is True

    def test_k6_count_is_exhaustive(self):
        # Re-derive independently: every one of the 2^15 colorings of K_6
        # must contain a monochromatic triangle.
        pairs = list(itertools.combinations(range(6), 2))
        index = {p: i for i, p in enumerate(pairs)}
        masks = [
            (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
            for a, b, c in itertools.combinations(range(6), 3)
        ]
        forced = sum(
            1
            for coloring in range(1 << 15)
            if any((coloring & m) in (0, m) for m in masks)
        )
        assert forced == 32768

    def test_c5_coloring_of_k5_has_no_mono_triangle(self):
        c5 = cycle(5)
        for a, b, c in itertools.combinations(range(5), 3):
            red = sum(int(c5.has_edge(u, v)) for u, v in itertools.combinations((a, b, c), 2))
            assert red not in (0, 3)

    def test_k4_admits_mono_free_coloring(self):
        # red = C_4 edges; both color classes are triangle-free on K_4.
        red = cycle(4)
        for a, b, c in itertools.combinations(range(4), 3):
            count = sum(int(red.has_edge(u, v)) for u, v in itertools.combinations((a, b, c), 2))
            assert count not in (0, 3)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=14),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(min_value=0, max_value=2**16),
    r=st.integers(min_value=2, max_value=5),
)
def test_t12_rule_on_enumeration_oracle_sizes(n, density, seed, r):
    computed, verdict = oracle_verdict(random_graph(n, density, random.Random(seed)), r)
    assert verdict == reference_verdict("T1_2", r, computed)
    _, status, mode = verdict
    omega, alpha = computed["omega"], computed["alpha"]
    assert status == ("CONFIRMED" if omega <= r and alpha <= r else "REFUTED")
    # The violating clique first, else the violating independent set, else
    # the maximum clique.
    assert mode == ("independent" if omega <= r < alpha else "clique")
