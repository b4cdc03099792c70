import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sfcheck import construct  # noqa: E402
from oracles import clear_memos  # noqa: E402


@pytest.fixture
def seed_stage(monkeypatch):
    """``seed_stage(r, fault)`` makes every build of F(r)'s block (one copy
    of the G side's block graph, or the base path) through
    ``construct.stage_block``, the stage memo's and the dense builds' alike,
    come out as ``fault`` of the real (graph, labels).  The stage memo and
    the lists of prefixes, whose entries hold its stages, are emptied at
    each seeding and after the test, so no doctored stage outlives it."""
    real = construct.build_block

    def seed(r, fault):
        def build(r_, profile=construct.DEFAULT_PROFILE):
            block, labels, paired = real(r_, profile)
            return (*fault(block, labels), paired) if r_ == r else (block, labels, paired)

        monkeypatch.setattr(construct, "build_block", build)
        clear_memos()

    yield seed
    clear_memos()


@pytest.fixture(params=[0o022, 0o077], ids=lambda mask: f"umask{mask:03o}")
def umask(request):
    """Run the test under umask 022 and 077; the process's umask is restored after."""
    old = os.umask(request.param)
    yield request.param
    os.umask(old)
