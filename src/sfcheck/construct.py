"""Builders for the layered two-label graphs F(r) and SF(t).

The construction stacks stages: each stage r contributes a block graph G_z
(two cliques, one per label), a G side made of r-1 copies of that block, an
H side that is the complement of the G side on a fresh vertex range, and
cross edges that join exactly the opposite-parity label pairs.  SF(t)
chains stages 3..t, again joining opposite-parity pairs across stages.
A build records that layout once, as its list of stages; provenance, the
G-to-H correspondence and ``validate``'s exempt groups derive from it.

Several operators in that recipe admit more than one defensible reading.
An InterpretationProfile pins all of them explicitly, so every build is a
pure, bit-reproducible function of (parameter, profile).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

from sfcheck.graphs import Graph, combine, complement, complete, empty, path, product

PROFILE_SUMS = ("disjoint_union", "join")
PROFILE_PRODS = ("lexicographic", "cartesian", "tensor")
PROFILE_BASES = ("explicit_path", "general")
LABELS = (1, 2)

# Position names of the six-vertex explicit base path, in index order.
PATH_POSITIONS = ("v", "u", "w", "x", "y", "t")

G_SIDE = "G_side"
H_SIDE = "H_side"
PATH_SIDE = "path"
X_BLOCK = "x_block"
Y_BLOCK = "y_block"


def label_parity(label: int) -> int:
    return label % 2


def flip_label(label: int) -> int:
    return 3 - label


def opposite_parity(a: int, b: int) -> bool:
    """The cross-edge condition: labels whose parities differ."""
    return label_parity(a) != label_parity(b)


@dataclass(frozen=True)
class InterpretationProfile:
    """Resolved readings of the construction's ambiguous operators.

    sum       reading of the block combination (disjoint_union or join)
    prod      reading of the copy product (lexicographic, cartesian, tensor)
    base_case whether stage 3 is the explicit 6-vertex path or the general formula
    y_label   label assigned to the base path's underdetermined vertex y
    """

    sum: str = "disjoint_union"
    prod: str = "lexicographic"
    base_case: str = "explicit_path"
    y_label: int = 2

    def __post_init__(self) -> None:
        if self.sum not in PROFILE_SUMS:
            raise ValueError(f"unknown sum reading {self.sum!r}")
        if self.prod not in PROFILE_PRODS:
            raise ValueError(f"unknown prod reading {self.prod!r}")
        if self.base_case not in PROFILE_BASES:
            raise ValueError(f"unknown base_case reading {self.base_case!r}")
        if isinstance(self.y_label, bool) or self.y_label not in LABELS:
            raise ValueError(f"y_label must be 1 or 2, got {self.y_label!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> InterpretationProfile:
        return cls(
            sum=d["sum"],
            prod=d["prod"],
            base_case=d["base_case"],
            y_label=d["y_label"],
        )


DEFAULT_PROFILE = InterpretationProfile()


def stage_size(r: int, base_path: bool) -> int:
    """Vertex count of stage r: 6 for the explicit base path (r = 3 under
    ``base_path``), else two sides of r-1 copies of an r-vertex block."""
    return 6 if r == 3 and base_path else 2 * r * (r - 1)


def target_vertex_count(kind: str, param: int, profile: InterpretationProfile) -> int:
    """Vertex count of F(param) or SF(param), unbuilt; ValueError on another
    kind.  SF(t) sums ``stage_size`` over r = 3..t in closed form, so SF(10**9)
    is sized without a loop: 2r(r-1) summed over 3 <= r <= t is
    2(t-1)t(t+1)/3 - 4, and stage 3 is then taken at its own size."""
    base_path = profile.base_case == "explicit_path"
    if kind == "F":
        return stage_size(param, base_path)
    if kind != "SF":
        raise ValueError(f"unknown target kind {kind!r}")
    general = 2 * (param - 1) * param * (param + 1) // 3 - 4
    return general - stage_size(3, False) + stage_size(3, base_path)


@dataclass(frozen=True)
class VertexProvenance:
    """Where a vertex sits in the build.

    General stages use side G_side/H_side with copy, block and within-block
    index.  Explicit base-path vertices use side "path" with the position
    name stored in ``block`` and the path index in ``within``.
    """

    stage_r: int
    side: str
    copy: int
    block: str
    within: int


@dataclass(frozen=True)
class LabeledGraph:
    """Graph plus per-vertex labels and the stage layout that places them.

    ``stages`` holds each stage's r in vertex order; ``base_path`` says
    whether stage 3 is the six-vertex explicit path.  Any other stage is a
    G side then an H side, each r-1 copies of an x block of r // 2 vertices
    then a y block; G vertex v corresponds to H vertex v + half.
    Provenance and correspondence derive from this layout, never stored.
    """

    graph: Graph
    labels: tuple[int, ...]
    stages: tuple[int, ...]
    base_path: bool

    def __post_init__(self) -> None:
        if len(self.labels) != self.graph.n:
            raise ValueError("labels length must equal vertex count")
        laid_out = sum(stage_size(r, self.base_path) for r in self.stages)
        if laid_out != self.graph.n or any(r < 3 for r in self.stages):
            raise ValueError(f"stages {self.stages} do not lay out {self.graph.n} vertices")
        for lab in self.labels:
            if isinstance(lab, bool) or lab not in LABELS:
                raise ValueError(f"label {lab!r} outside {{1, 2}}")

    def label_counts(self) -> dict[int, int]:
        return {lab: self.labels.count(lab) for lab in LABELS}

    def stage_spans(self) -> Iterator[tuple[int, int, int]]:
        """(r, start, stop) of each stage's vertex range, in vertex order."""
        stop = 0
        for r in self.stages:
            start, stop = stop, stop + stage_size(r, self.base_path)
            yield r, start, stop

    def provenance(self, v: int) -> VertexProvenance:
        """Where vertex v sits, in closed form within its stage's span."""
        if isinstance(v, bool) or not 0 <= v < self.graph.n:
            raise ValueError(f"vertex {v!r} out of range for n={self.graph.n}")
        r, start, stop = next(span for span in self.stage_spans() if v < span[2])
        i = v - start
        if r == 3 and self.base_path:
            return VertexProvenance(3, PATH_SIDE, 0, PATH_POSITIONS[i], i)
        half = (stop - start) // 2
        copy, j = divmod(i % half, r)
        block, within = (X_BLOCK, j) if j < r // 2 else (Y_BLOCK, j - r // 2)
        return VertexProvenance(r, (G_SIDE, H_SIDE)[i >= half], copy, block, within)


def _opposite_parity_joins(labels: tuple[int, ...], bounds: list[int]) -> Iterator[tuple[int, int, int]]:
    """(v, hi, mask) for each v of each range [lo, hi) between consecutive
    ``bounds``: ``mask`` holds every vertex outside v's range whose label
    parity differs from v's, the cross edges v must have."""
    parity = [0, 0]
    for v, lab in enumerate(labels):
        parity[label_parity(lab)] |= 1 << v
    for lo, hi in zip(bounds, bounds[1:]):
        outside = ~((1 << hi) - (1 << lo))
        joins = (parity[1] & outside, parity[0] & outside)
        for v in range(lo, hi):
            yield v, hi, joins[label_parity(labels[v])]


def _join_opposite_parity(rows: list[int], labels: tuple[int, ...], cuts: list[int]) -> Graph:
    """Add to ``rows`` (in place) every opposite-parity edge across a cut, in one pass."""
    for v, _, join in _opposite_parity_joins(labels, [0, *cuts, len(rows)]):
        rows[v] |= join
    return Graph._trusted(len(rows), tuple(rows))


def build_F(r: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stage graph F(r).  Its G side is r-1 product copies (profile.prod)
    of the block graph G_z: a clique on r // 2 vertices labeled 1 and one
    on the rest labeled 2, combined per profile.sum.  Its H side is the
    complement of the G side on a fresh vertex range, labels flipped.
    Every opposite-parity pair across the sides is an edge.

    Under base_case="explicit_path", F(3) is instead the fixed 6-vertex path
    v-u-w-x-y-t with labels 1,2,1,1,profile.y_label,2.
    """
    base_path = profile.base_case == "explicit_path"
    if r == 3 and base_path:
        return LabeledGraph(path(6), (1, 2, 1, 1, profile.y_label, 2), (3,), True)
    if r < 3:
        raise ValueError(f"stage parameter must be >= 3, got {r}")
    a = r // 2
    g_side = product(empty(r - 1), combine(complete(a), complete(r - a), profile.sum), profile.prod)
    labels = ((1,) * a + (2,) * (r - a)) * (r - 1)
    labels += tuple(map(flip_label, labels))
    sides = combine(g_side, complement(g_side), "disjoint_union")
    graph = _join_opposite_parity(list(sides.rows), labels, [g_side.n])
    return LabeledGraph(graph, labels, (r,), base_path)


def build_SF(t: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stacked graph SF(t): stages 3..t placed disjointly in order, with an
    edge between vertices of different stages exactly when their label
    parities differ.  The stage-(t-1) prefix is an induced copy of SF(t-1)."""
    if t < 3:
        raise ValueError(f"stack parameter must be >= 3, got {t}")
    rows: list[int] = []
    labels: tuple[int, ...] = ()
    offsets = []
    for r in range(3, t + 1):
        stage = build_F(r, profile)
        offsets.append(len(rows))
        rows.extend(row << offsets[-1] for row in stage.graph.rows)
        labels += stage.labels
    graph = _join_opposite_parity(rows, labels, offsets[1:])
    return LabeledGraph(graph, labels, tuple(range(3, t + 1)), profile.base_case == "explicit_path")


def validate(lg: LabeledGraph) -> list[str]:
    """Diagnostics for a finished build; returns violations, empty if valid.

    Lists ``Graph.problems()`` (the one shape, range, loop and symmetry
    check) and stops there when the rows are not a tuple of n ints.  Then
    checks, from the stage layout, the label flip across each pair
    (v, v + half) of a two-sided stage, and the opposite-parity cross-edge
    rule between any two vertices outside one exempt group: one side of a
    stage, or the whole base path.  Never raises.
    """
    g, labels = lg.graph, lg.labels
    out = list(g.problems())
    if g.shape_problem():
        return out
    bounds = []  # where each exempt group starts: a side, or the whole base path
    for r, start, stop in lg.stage_spans():
        if r == 3 and lg.base_path:
            bounds.append(start)
            continue
        half = (stop - start) // 2
        bounds += [start, start + half]
        out.extend(
            f"label-flip: correspondence pair ({v}, {v + half}) carries same-parity labels "
            f"({labels[v]}, {labels[v + half]})"
            for v in range(start, start + half)
            if not opposite_parity(labels[v], labels[v + half])
        )

    # Cross-edge rule: a pair is an edge iff its label parities differ,
    # unless both ends lie in one group.  Groups are consecutive ranges, so
    # the pairs (v, w > v) to check are exactly those with w past v's group.
    full = (1 << g.n) - 1
    for v, hi, should in _opposite_parity_joins(labels, bounds + [g.n]):
        bad = (g.rows[v] ^ should) & (full >> hi << hi)
        while bad:
            w = (bad & -bad).bit_length() - 1
            bad &= bad - 1
            kind = "missing" if (should >> w) & 1 else "unexpected"
            out.append(f"{kind}-cross-edge: ({v}, {w})")
    return out
