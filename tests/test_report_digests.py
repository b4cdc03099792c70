"""Byte identity of reports across every interpretation profile.

``report_digests.json`` holds the sha256 of
``report_to_json(strip_volatile(report))`` for each of the 24 profiles
under T1.1 at r=3..7 and T1.2 at r=2..6.  They were last recorded when
the stage sides came to be solved by the component and co-component
split, which changed only witnesses and node counts (those of 144
reports).  Any change to a verdict, witness, node count or graph
statistic changes a digest.

``report_values.json`` holds, for the same 240 reports, every field but
the witness and the node counts, as the monolithic solver gave them
before the stage route: n, m, label counts, computed sizes, claim, status,
witness mode and bound.
"""

import hashlib
import json
import os

from sfcheck.construct import InterpretationProfile
from sfcheck.report import report_to_json, run_verification, strip_volatile

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")
VALUES = os.path.join(os.path.dirname(__file__), "report_values.json")

# sha256 of all 240 reports concatenated in the file's order: profiles in
# itertools.product(sums, prods, bases, y_labels) order, T1.1 before T1.2,
# r ascending.
ALL_REPORTS_SHA256 = "e0b3f21b278af515a830b72e8bd266670612e5ce80c576938df731b47ec72104"


def test_reports_match_recorded_digests():
    with open(DIGESTS) as fh:
        entries = json.load(fh)
    assert len(entries) == 240
    total = hashlib.sha256()
    mismatches = []
    for s, p, b, y, theorem, r, digest in entries:
        profile = InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y)
        data = report_to_json(strip_volatile(run_verification(theorem, r, profile))).encode()
        total.update(data)
        if hashlib.sha256(data).hexdigest() != digest:
            mismatches.append((s, p, b, y, theorem, r))
    assert mismatches == []
    assert total.hexdigest() == ALL_REPORTS_SHA256


def test_reports_keep_the_monolithic_values():
    with open(VALUES) as fh:
        entries = json.load(fh)
    with open(DIGESTS) as fh:
        assert [entry[:6] for entry in entries] == [entry[:6] for entry in json.load(fh)]
    mismatches = []
    for s, p, b, y, theorem, r, values in entries:
        profile = InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y)
        report = run_verification(theorem, r, profile)
        check = report["checks"][0]
        got = {
            "n": report["graph_stats"]["n"],
            "m": report["graph_stats"]["m"],
            "label_counts": report["graph_stats"]["label_counts"],
            "computed": check["computed"],
            "claimed": check["claimed"],
            "status": check["status"],
            "witness_mode": check["witness_mode"],
            "bound": report["bound"],
        }
        if got != values:
            mismatches.append((s, p, b, y, theorem, r))
    assert mismatches == []
