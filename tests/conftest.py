import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sfcheck import construct, solve  # noqa: E402


@pytest.fixture
def seed_stage(monkeypatch):
    """``seed_stage(r, fault)`` makes every build of F(r)'s first part (the
    G side, or the base path), the stage memo's and the dense ``build_F``'s
    alike, come out as ``fault`` of the real (graph, labels).  The stage
    memo is emptied at each seeding and after the test, so no doctored
    stage outlives it."""
    real = construct.build_side

    def seed(r, fault):
        def build(r_, profile=construct.DEFAULT_PROFILE):
            side, labels, paired = real(r_, profile)
            return (*fault(side, labels), paired) if r_ == r else (side, labels, paired)

        monkeypatch.setattr(construct, "build_side", build)
        monkeypatch.setattr(solve, "build_side", build)
        solve.stage.cache_clear()

    yield seed
    solve.stage.cache_clear()
