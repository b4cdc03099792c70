"""Byte identity of reports across every interpretation profile.

``report_digests.json`` holds the sha256 of
``report_to_json(strip_volatile(report))`` for each of the 24 profiles
under T1.1 at r=3..7 and T1.2 at r=2..6, recorded before the graph algebra
stopped re-checking its own output and the degeneracy order moved to
bucket queues.  Any change to a verdict, witness, node count or graph
statistic changes a digest.
"""

import hashlib
import json
import os

from sfcheck.construct import InterpretationProfile
from sfcheck.report import report_to_json, run_verification, strip_volatile

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")

# sha256 of all 240 reports concatenated in the file's order: profiles in
# itertools.product(sums, prods, bases, y_labels) order, T1.1 before T1.2,
# r ascending.
ALL_REPORTS_SHA256 = "40679f25a0a215647ad2e624a4d2693f542fc0731763ef7cd1292bf7043d2676"


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
