import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sfcheck import construct, solve  # noqa: E402
from oracles import clear_memos  # noqa: E402


@pytest.fixture
def seed_stage(monkeypatch):
    """``seed_stage(r, fault)`` makes every build of F(r)'s block through
    ``construct.stage_block``, the stage memo's and the dense builds'
    alike, come out as ``fault(block, labels)`` of the real block and
    labels.  A clustered block is its cluster table, whose rows follow
    from the doctored table; the base path, no cluster graph, is its rows,
    which a fault may change at will.  The stage memo and the lists of
    prefixes, whose entries hold its stages, are emptied at each seeding
    and after the test, so no doctored stage outlives it."""
    real = construct.stage_block

    def seed(r, fault):
        def build(r_, profile):
            clusters, rows, labels, k = real(r_, profile)
            if r_ != r:
                return clusters, rows, labels, k
            if clusters is None:
                rows, labels = fault(rows, labels)
                return None, rows, labels, k
            clusters, labels = fault(clusters, labels)
            return clusters, construct.cluster_rows(clusters), labels, k

        monkeypatch.setattr(construct, "stage_block", build)
        monkeypatch.setattr(solve, "stage_block", build)
        clear_memos()

    yield seed
    clear_memos()


@pytest.fixture(params=[0o022, 0o077], ids=lambda mask: f"umask{mask:03o}")
def umask(request):
    """Run the test under umask 022 and 077; the process's umask is restored after."""
    old = os.umask(request.param)
    yield request.param
    os.umask(old)
