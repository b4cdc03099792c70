import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sfcheck import construct, solve  # noqa: E402


@pytest.fixture
def seed_stage(monkeypatch):
    """``seed_stage(r, fault)`` makes every build of F(r), the stage memo's
    and ``build_SF``'s alike, come out as ``fault`` of the real build.  The
    stage memo is emptied at each seeding and after the test, so no
    doctored stage outlives it."""
    real = construct.build_F

    def seed(r, fault):
        def build(r_, profile=construct.DEFAULT_PROFILE):
            lg = real(r_, profile)
            return fault(lg) if r_ == r else lg

        monkeypatch.setattr(construct, "build_F", build)
        monkeypatch.setattr(solve, "build_F", build)
        solve.stage.cache_clear()

    yield seed
    solve.stage.cache_clear()
