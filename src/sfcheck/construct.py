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

from dataclasses import asdict, dataclass, replace

from sfcheck.graphs import Graph, combine, complement, primitive, product

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
        if self.y_label not in LABELS:
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
            if lab not in LABELS:
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
    graph = combine(primitive("complete", a), primitive("complete", b), profile.sum)
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
    g_graph = product(primitive("empty", copies), block.graph, profile.prod)
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
        graph = primitive("path", 6)
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


def _stage_ranges(lg: LabeledGraph) -> list[tuple[int, int, int]]:
    """Consecutive runs of equal stage_r as (stage, start, stop)."""
    ranges = []
    start = 0
    for v in range(1, lg.graph.n + 1):
        if v == lg.graph.n or lg.provenance[v].stage_r != lg.provenance[start].stage_r:
            ranges.append((lg.provenance[start].stage_r, start, v))
            start = v
    return ranges


def _expected_stage_provenance(
    stage: int, start: int, stop: int, sides: tuple[str, ...], lg: LabeledGraph
) -> list[str]:
    """Check one general stage's provenance layout against the fixed order:
    G side then H side, copies ascending, x block before y block."""
    out = []
    size = stop - start
    r = stage
    side_n = size // len(sides)
    if size % len(sides) != 0 or side_n % r != 0:
        out.append(f"provenance-order: stage {stage} has irregular size {size}")
        return out
    copies = side_n // r
    x_size = sum(
        1 for v in range(start, start + min(r, side_n)) if lg.provenance[v].block == X_BLOCK
    )
    pos = start
    for side in sides:
        for i in range(copies):
            for block, blen in ((X_BLOCK, x_size), (Y_BLOCK, r - x_size)):
                for k in range(blen):
                    got = lg.provenance[pos]
                    want = VertexProvenance(stage, side, i, block, k)
                    if got != want:
                        out.append(
                            f"provenance-order: vertex {pos} is {got}, expected {want}"
                        )
                    pos += 1
    return out


def validate(lg: LabeledGraph) -> list[str]:
    """Diagnostics for a finished build; returns violations, empty if valid.

    Checks adjacency symmetry and loop-freeness, the label flip across every
    correspondence pair, the opposite-parity cross-edge rule wherever it
    applies (between sides of one stage and between any two stages), the
    per-stage correspondence bijection, and provenance layout consistency.
    Never raises.
    """
    out: list[str] = []
    g = lg.graph
    n = g.n

    for i in range(n):
        if (g.rows[i] >> i) & 1:
            out.append(f"self-loop: {i}")
        mask = g.rows[i] >> (i + 1)
        j = i + 1
        while mask:
            step = (mask & -mask).bit_length() - 1
            j += step
            if not (g.rows[j] >> i) & 1:
                out.append(f"asymmetric-adjacency: ({i}, {j})")
            mask >>= step + 1
            j += 1

    corr_domain: set[int] = set()
    corr_image: set[int] = set()
    for v, w in lg.correspondence:
        if not (0 <= v < n and 0 <= w < n):
            out.append(f"correspondence: pair ({v}, {w}) out of range")
            continue
        if v in corr_domain:
            out.append(f"correspondence: vertex {v} mapped twice")
        if w in corr_image:
            out.append(f"correspondence: vertex {w} hit twice")
        corr_domain.add(v)
        corr_image.add(w)
        pv, pw = lg.provenance[v], lg.provenance[w]
        if pv.stage_r != pw.stage_r or pv.side != G_SIDE or pw.side != H_SIDE:
            out.append(f"correspondence: pair ({v}, {w}) does not map G_side to H_side within one stage")
        if not opposite_parity(lg.labels[v], lg.labels[w]):
            out.append(
                f"label-flip: correspondence pair ({v}, {w}) carries same-parity labels "
                f"({lg.labels[v]}, {lg.labels[w]})"
            )

    ranges = _stage_ranges(lg)
    stages_seen = [s for s, _, _ in ranges]
    if stages_seen != sorted(set(stages_seen)):
        out.append(f"provenance-order: stages appear as {stages_seen}, expected strictly increasing runs")

    for stage, start, stop in ranges:
        sides = {lg.provenance[v].side for v in range(start, stop)}
        if sides == {PATH_SIDE}:
            if stage != 3 or stop - start != 6:
                out.append(f"provenance-order: path stage must be stage 3 on 6 vertices")
            else:
                for k, v in enumerate(range(start, stop)):
                    got = lg.provenance[v]
                    if got.block != PATH_POSITIONS[k] or got.within != k:
                        out.append(
                            f"provenance-order: path vertex {v} is {got.block!r}, expected {PATH_POSITIONS[k]!r}"
                        )
            if any(v in corr_domain or v in corr_image for v in range(start, stop)):
                out.append(f"correspondence: path stage {stage} must carry no pairs")
        elif sides <= {G_SIDE, H_SIDE}:
            side_seq = (G_SIDE, H_SIDE) if sides == {G_SIDE, H_SIDE} else (next(iter(sides)),)
            out.extend(_expected_stage_provenance(stage, start, stop, side_seq, lg))
            if sides == {G_SIDE, H_SIDE}:
                side_n = (stop - start) // 2
                for k in range(side_n):
                    v, w = start + k, start + side_n + k
                    if (v, w) not in lg.correspondence:
                        out.append(f"correspondence: stage {stage} missing pair ({v}, {w})")
        else:
            out.append(f"provenance-order: stage {stage} mixes sides {sorted(sides)}")

    # Cross-edge rule: applies across stages and between the two sides of one
    # stage; edges within one side (or inside the base path) are exempt.
    for v in range(n):
        pv = lg.provenance[v]
        parv = label_parity(lg.labels[v])
        for w in range(v + 1, n):
            pw = lg.provenance[w]
            if pv.stage_r == pw.stage_r:
                if pv.side == pw.side or PATH_SIDE in (pv.side, pw.side):
                    continue
            should = parv != label_parity(lg.labels[w])
            has = bool((g.rows[v] >> w) & 1)
            if should and not has:
                out.append(f"missing-cross-edge: ({v}, {w})")
            elif has and not should:
                out.append(f"unexpected-cross-edge: ({v}, {w})")

    return out
