"""Byte identity of reports across every interpretation profile.

The pins were recorded in schema 1, which stated seven facts twice or
held node counts fixed by the profile.  Schema 2 dropped those fields,
and each pin is checked on the report lifted back to schema 1 by
``oracles.schema1``, which rebuilds each dropped field from the field it
restated: every other byte is the report's own, so a pin still moves
with any change to a verdict, witness or graph statistic.

The content of a report is pinned through ``pinned_text``, a fixed
indented form kept here, so that the pins do not move with the writer's
whitespace.  ``report_digests.json`` holds the sha256 of
``pinned_text(schema1(strip_volatile(report)))`` for each of the 24 profiles
under T1.1 at r=3..7 and T1.2 at r=2..6.  They were last recorded when
the stage sides came to be solved by the component and co-component
split, which changed only witnesses and node counts (those of 144
reports).  Any change to a verdict, witness or graph statistic changes
a digest.

``report_values.json`` holds, for the same 240 reports, every field but
the witness and the node counts, as the monolithic solver gave them
before the stage route: n, m, label counts, computed sizes, claim, status,
witness mode and bound, read from the schema-1 form.

Past r = 7 the reports are pinned by three sha256 digests of
concatenations, recorded when the loader came to read its three fields in
place: the 24 profiles up to r = 20, and the default and tensor profiles'
196 reports of ``sweep --t-max 100``.

Two more digests pin the bytes of ``report_to_json`` for the 240
reports: of their schema-1 forms, and of the schema-2 reports the writer
puts on disk.
"""

import hashlib
import json
import os

import pytest

from sfcheck.construct import DEFAULT_PROFILE, InterpretationProfile
from sfcheck.report import report_to_json, run_verification, strip_volatile
from sfcheck.verify import CLAIMS

from oracles import all_profiles, schema1

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")
VALUES = os.path.join(os.path.dirname(__file__), "report_values.json")

# sha256 of all 240 reports concatenated in the file's order: profiles in
# itertools.product(sums, prods, bases, y_labels) order, T1.1 before T1.2,
# r ascending.
ALL_REPORTS_SHA256 = "e0b3f21b278af515a830b72e8bd266670612e5ce80c576938df731b47ec72104"
# The same 240 reports' schema-1 forms as ``report_to_json`` writes them, concatenated.
ALL_REPORTS_WRITTEN_SHA256 = "e10def451fdeea85fa9de0d484ae1a8f9f735c1d9fe22bdfd58745c56c08c17b"
# The same 240 reports as ``report_to_json`` writes them to disk, in schema 2, concatenated.
ALL_REPORTS_SCHEMA2_SHA256 = "bb4e1e907d41f02cce069586fb7469389a2040ea5f3d45edceec8e472096729a"


def pinned_text(value) -> str:
    """The form the content digests were recorded in."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_reports_match_recorded_digests():
    with open(DIGESTS) as fh:
        entries = json.load(fh)
    assert len(entries) == 240
    total, written, on_disk = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    mismatches = []
    for s, p, b, y, theorem, r, digest in entries:
        profile = InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y)
        report = strip_volatile(run_verification(theorem, r, profile))
        data = pinned_text(schema1(report)).encode()
        total.update(data)
        written.update(report_to_json(schema1(report)).encode())
        on_disk.update(report_to_json(report).encode())
        if hashlib.sha256(data).hexdigest() != digest:
            mismatches.append((s, p, b, y, theorem, r))
    assert mismatches == []
    assert total.hexdigest() == ALL_REPORTS_SHA256
    assert written.hexdigest() == ALL_REPORTS_WRITTEN_SHA256
    assert on_disk.hexdigest() == ALL_REPORTS_SCHEMA2_SHA256


def test_reports_keep_the_monolithic_values():
    with open(VALUES) as fh:
        entries = json.load(fh)
    with open(DIGESTS) as fh:
        assert [entry[:6] for entry in entries] == [entry[:6] for entry in json.load(fh)]
    mismatches = []
    for s, p, b, y, theorem, r, values in entries:
        profile = InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y)
        report = schema1(run_verification(theorem, r, profile))
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


def reports_sha256(jobs, profiles):
    """sha256 of ``pinned_text(schema1(strip_volatile(...)))`` of each
    job under each profile, profiles outermost, concatenated."""
    total = hashlib.sha256()
    for profile in profiles:
        for theorem, r in jobs:
            total.update(pinned_text(schema1(strip_volatile(run_verification(theorem, r, profile)))).encode())
    return total.hexdigest()


def test_all_profiles_to_r20_match_their_digest():
    """864 reports: profiles in ``all_profiles`` order, that of
    itertools.product(sums, prods, bases, y_labels), each with T1.1 at
    r = 3..20, then T1.2 at r = 2..19."""
    jobs = [("1.1", r) for r in range(3, 21)] + [("1.2", r) for r in range(2, 20)]
    assert reports_sha256(jobs, all_profiles()) == "08f572286e0ac578b64e9f33bde80c308b4cbb5a41f327bd727bf28237a474cb"


@pytest.mark.parametrize(
    "prod, digest",
    [
        (None, "f84bbd59197fab80fadc97b2b48ca98a64760f1e179eb53e015ad7d3debceab8"),
        ("tensor", "079c8cd0af5f307088d04b4ca497602fcd3e3696de090620568578548a12a6eb"),
    ],
    ids=["default", "tensor"],
)
def test_sweep_to_t_max_100_matches_its_digest(prod, digest):
    """The 196 reports of ``sweep --t-max 100``, in its job order."""
    profile = DEFAULT_PROFILE.replace(prod=prod) if prod else DEFAULT_PROFILE
    jobs = [(theorem, r) for theorem, (min_r, _, shift) in CLAIMS.items() for r in range(min_r, 100 - shift + 1)]
    assert reports_sha256(jobs, [profile]) == digest
