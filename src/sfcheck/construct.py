"""Builders for the layered two-label graphs F(r) and SF(t).

The construction stacks stages: each stage r contributes a block graph G_z
(two cliques, one per label), a G side made of r-1 copies of that block, an
H side that is the complement of the G side on a fresh vertex range, and
cross edges that join exactly the opposite-parity label pairs.  SF(t)
chains stages 3..t, again joining opposite-parity pairs across stages.

Several operators in that recipe admit more than one defensible reading.
An InterpretationProfile pins all of them explicitly, so every build is a
pure, bit-reproducible function of (parameter, profile).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace

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


@dataclass(frozen=True)
class VertexProvenance:
    """Where a vertex came from in the build.

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
    """Graph plus per-vertex label, provenance, and the G->H correspondence.

    ``correspondence`` is a tuple of (g_vertex, h_vertex) pairs; within each
    general stage it is the index-preserving bijection between the sides.
    """

    graph: Graph
    labels: tuple[int, ...]
    provenance: tuple[VertexProvenance, ...]
    correspondence: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.graph.n:
            raise ValueError("labels length must equal vertex count")
        if len(self.provenance) != self.graph.n:
            raise ValueError("provenance length must equal vertex count")
        for lab in self.labels:
            if isinstance(lab, bool) or lab not in LABELS:
                raise ValueError(f"label {lab!r} outside {{1, 2}}")

    def label_counts(self) -> dict[int, int]:
        return {lab: self.labels.count(lab) for lab in LABELS}

    def vertices_with_label(self, label: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if self.labels[v] == label)


def build_block(r: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Block graph G_z for stage r: clique on floor(r/2) vertices labeled 1,
    then clique on ceil(r/2) vertices labeled 2, combined per profile.sum."""
    if r < 3:
        raise ValueError(f"stage parameter must be >= 3, got {r}")
    a = r // 2
    b = r - a
    graph = combine(complete(a), complete(b), profile.sum)
    labels = (1,) * a + (2,) * b
    prov = tuple(
        VertexProvenance(r, G_SIDE, 0, X_BLOCK, i) for i in range(a)
    ) + tuple(VertexProvenance(r, G_SIDE, 0, Y_BLOCK, i) for i in range(b))
    return LabeledGraph(graph, labels, prov, ())


def build_sides(r: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """G side (r-1 product copies of the block) and its complement H side on a
    fresh vertex range, with flipped labels and the index-preserving
    correspondence.  No cross edges between the sides yet, so validate()
    will report the missing cross pairs until build_F adds them."""
    block = build_block(r, profile)
    copies = r - 1
    g_graph = product(empty(copies), block.graph, profile.prod)
    g_labels = tuple(block.labels[j] for _ in range(copies) for j in range(r))
    h_graph = complement(g_graph)
    h_labels = tuple(flip_label(lab) for lab in g_labels)
    side_n = copies * r
    graph = combine(g_graph, h_graph, "disjoint_union")
    prov = []
    for side in (G_SIDE, H_SIDE):
        for i in range(copies):
            for j in range(r):
                base = block.provenance[j]
                prov.append(VertexProvenance(r, side, i, base.block, base.within))
    corr = tuple((v, side_n + v) for v in range(side_n))
    return LabeledGraph(graph, g_labels + h_labels, tuple(prov), corr)


def _join_opposite_parity(rows: list[int], labels: tuple[int, ...], split: int) -> Graph:
    """Add every opposite-parity edge between vertices [0, split) and
    [split, n) to ``rows`` (updated in place) and wrap the result."""
    n = len(rows)
    # masks[side][p]: the vertices of label parity p below split (side 0)
    # or from split on (side 1).
    masks = [[0, 0], [0, 0]]
    for v in range(n):
        masks[v >= split][label_parity(labels[v])] |= 1 << v
    for v in range(n):
        rows[v] |= masks[v < split][1 - label_parity(labels[v])]
    return Graph._trusted(n, tuple(rows))


def build_F(r: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stage graph F(r): both sides plus every opposite-parity cross edge.

    Under base_case="explicit_path", F(3) is instead the fixed 6-vertex path
    v-u-w-x-y-t with labels 1,2,1,1,profile.y_label,2 and no correspondence.
    """
    if r == 3 and profile.base_case == "explicit_path":
        graph = path(6)
        labels = (1, 2, 1, 1, profile.y_label, 2)
        prov = tuple(
            VertexProvenance(3, PATH_SIDE, 0, PATH_POSITIONS[i], i) for i in range(6)
        )
        return LabeledGraph(graph, labels, prov, ())
    sides = build_sides(r, profile)
    graph = _join_opposite_parity(list(sides.graph.rows), sides.labels, sides.graph.n // 2)
    return replace(sides, graph=graph)


def build_SF(t: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stacked graph SF(t): stages 3..t placed disjointly in order, with an
    edge between vertices of different stages exactly when their label
    parities differ.  The stage-(t-1) prefix is an induced copy of SF(t-1)."""
    if t < 3:
        raise ValueError(f"stack parameter must be >= 3, got {t}")
    acc = build_F(3, profile)
    for r in range(4, t + 1):
        stage = build_F(r, profile)
        off = acc.graph.n
        rows = list(acc.graph.rows)
        rows.extend(row << off for row in stage.graph.rows)
        labels = acc.labels + stage.labels
        corr = acc.correspondence + tuple(
            (a + off, b + off) for a, b in stage.correspondence
        )
        graph = _join_opposite_parity(rows, labels, off)
        acc = LabeledGraph(graph, labels, acc.provenance + stage.provenance, corr)
    return acc


def validate(lg: LabeledGraph) -> list[str]:
    """Diagnostics for a finished build; returns violations, empty if valid.

    Lists ``Graph.problems()`` (the one range, loop and symmetry check),
    then checks each run of equal ``stage_r`` against the provenance layout
    that its stage fixes, the correspondence against the index-preserving
    pairs of every two-sided stage with a label flip across each, and the
    opposite-parity cross-edge rule between the sides of one stage and
    between any two stages.  Never raises.
    """
    g, prov, labels = lg.graph, lg.provenance, lg.labels
    n = g.n
    out = list(g.problems())

    # Layout: the base path's six positions; otherwise G side then H side,
    # copies ascending, each copy an x block of r // 2 then a y block.
    pairs: list[tuple[int, int]] = []
    runs: list[int] = []
    start = 0
    while start < n:
        stage = prov[start].stage_r
        stop = start + 1
        while stop < n and prov[stop].stage_r == stage:
            stop += 1
        runs.append(stage)
        sides = {p.side for p in prov[start:stop]}
        if PATH_SIDE in sides:
            want = [
                VertexProvenance(3, PATH_SIDE, 0, pos, k) for k, pos in enumerate(PATH_POSITIONS)
            ]
        else:
            order = [side for side in (G_SIDE, H_SIDE) if side in sides] or [G_SIDE]
            half = (stop - start) // len(order)
            x = stage // 2
            blocks = [(X_BLOCK, k) for k in range(x)] + [(Y_BLOCK, k) for k in range(stage - x)]
            want = [
                VertexProvenance(stage, side, i, block, k)
                for side in order
                for i in range(half // max(stage, 1))  # stage_r <= 0 has no blocks
                for block, k in blocks
            ]
            if len(order) == 2:
                pairs.extend((start + k, start + half + k) for k in range(half))
        if len(want) != stop - start:
            out.append(f"provenance-order: stage {stage} has irregular size {stop - start}")
        else:
            out.extend(
                f"provenance-order: vertex {v} is {got}, expected {exp}"
                for v, got, exp in zip(range(start, stop), prov[start:stop], want)
                if got != exp
            )
        start = stop
    if runs != sorted(set(runs)):
        out.append(f"provenance-order: stages appear as {runs}, expected strictly increasing runs")

    expected = set(pairs)
    given = Counter(lg.correspondence)
    out.extend(f"correspondence: unexpected pair {pair}" for pair in given if pair not in expected)
    out.extend(f"correspondence: missing pair {pair}" for pair in pairs if pair not in given)
    out.extend(f"correspondence: repeated pair {pair}" for pair, k in given.items() if k > 1)
    out.extend(
        f"label-flip: correspondence pair ({v}, {w}) carries same-parity labels "
        f"({labels[v]}, {labels[w]})"
        for v, w in pairs
        if (v, w) in given and not opposite_parity(labels[v], labels[w])
    )

    # Cross-edge rule: a pair is an edge iff its label parities differ,
    # except within one side of a stage and within a stage holding the path.
    group: dict[tuple[int, str], int] = {}
    stage_mask: dict[int, int] = {}
    parity = [0, 0]
    for v, p in enumerate(prov):
        group[p.stage_r, p.side] = group.get((p.stage_r, p.side), 0) | 1 << v
        stage_mask[p.stage_r] = stage_mask.get(p.stage_r, 0) | 1 << v
        parity[label_parity(labels[v])] |= 1 << v
    full = (1 << n) - 1
    for v, p in enumerate(prov):
        if p.side == PATH_SIDE:
            exempt = stage_mask[p.stage_r]
        else:
            exempt = group[p.stage_r, p.side] | group.get((p.stage_r, PATH_SIDE), 0)
        should = parity[1 - label_parity(labels[v])]
        bad = (g.rows[v] ^ should) & (full >> (v + 1) << (v + 1)) & ~exempt
        while bad:
            w = (bad & -bad).bit_length() - 1
            bad &= bad - 1
            kind = "missing" if (should >> w) & 1 else "unexpected"
            out.append(f"{kind}-cross-edge: ({v}, {w})")
    return out
