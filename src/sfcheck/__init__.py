"""Exact verification harness for a layered two-label graph construction.

The package builds the parameterised graphs F(r) and SF(t) under explicit
interpretation profiles, solves their clique and independence numbers
exactly, and turns the results into CONFIRMED/REFUTED verdicts with
machine-checkable witnesses plus the implied Ramsey-type lower bound.
"""

from sfcheck.graphs import (
    Graph,
    combine,
    complement,
    complete,
    cycle,
    empty,
    induced,
    path,
    product,
)
from sfcheck.construct import (
    DEFAULT_PROFILE,
    InterpretationProfile,
    LabeledGraph,
    build_F,
    build_SF,
)
from sfcheck.solve import (
    CliqueResult,
    max_clique,
    max_independent_set,
    max_mono_clique,
    oracle_max_clique,
    verify_witness,
)
from sfcheck.verify import (
    BoundReport,
    TheoremCheck,
    check_theorem_1_1,
    check_theorem_1_2,
    confirm_R3,
)
from sfcheck.formats import (
    Graph6ParseError,
    decode_graph6,
    encode_dimacs,
    encode_graph6,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "complete",
    "empty",
    "path",
    "cycle",
    "complement",
    "combine",
    "product",
    "induced",
    "InterpretationProfile",
    "DEFAULT_PROFILE",
    "LabeledGraph",
    "build_F",
    "build_SF",
    "CliqueResult",
    "max_clique",
    "max_independent_set",
    "max_mono_clique",
    "oracle_max_clique",
    "verify_witness",
    "TheoremCheck",
    "BoundReport",
    "check_theorem_1_1",
    "check_theorem_1_2",
    "confirm_R3",
    "encode_graph6",
    "decode_graph6",
    "encode_dimacs",
    "Graph6ParseError",
    "__version__",
]
