"""Builders for the layered two-label graphs F(r) and SF(t).

The construction stacks stages: each stage r contributes a block graph G_z
(two cliques, one per label), a G side made of r-1 copies of that block, an
H side that is the complement of the G side on a fresh vertex range, and
cross edges that join exactly the opposite-parity label pairs.  SF(t)
chains stages 3..t, again joining opposite-parity pairs across stages.
That layout is ``solve.Stack``'s; a dense build is its graph and labels.

Verification builds neither F(r) nor SF(t) whole: ``solve.Stack`` is its
prefix, whose stages keep their answers, found from one ``stage_block``
under a ``stage_family`` key: the base path, or one copy of the G side,
which is r-1 disjoint copies, a disjoint union of cliques (its clusters)
read from r and the key with no graph operator.  The H side and the
rule between parts follow by definition, so n, m and the label counts
come in closed form.  ``build_stream`` writes the dense graph from the
same ``stage_block``, the one reading of a stage's first part: its label
bytes, then each part's rows as one list, the block's rows (row v is v's
cluster without v) laid out as its k copies and shifted into place, an
H side's complemented within the part, and each ORed with every vertex
of the other parity outside its part.  ``sfcheck
build`` encodes the rows as they come, so an export never holds n rows;
``build_F`` and ``build_SF`` are the tuple of the stream, the tests'
reference.  The labels stay bytes until the end, an H side's flipped by
one ``bytes.translate``, and ``LabeledGraph`` checks them at C speed.

Several operators in that recipe admit more than one defensible reading.
An InterpretationProfile pins all of them explicitly, so every build is a
pure, bit-reproducible function of (parameter, profile).
"""

from __future__ import annotations

import re
import reprlib
from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import chain

from sfcheck.graphs import COMBINE_OPS, PRODUCT_KINDS, Checked, Graph, path

PROFILE_BASES = ("explicit_path", "general")
LABELS = (1, 2)


_ONES = bytes.maketrans(b"\x01\x02", b"10")
_FLIPPED = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def label_masks(labels: bytes | tuple[int, ...]) -> tuple[int, int]:
    """The vertices labeled 1 (odd) and those labeled 2 (even), as two
    masks with bit v for vertex v, read from the label bytes at C speed:
    reversed, so vertex 0 is the last and lowest digit, and mapped to
    binary digits.  Every label must be 1 or 2."""
    ones = int(b"0" + bytes(labels)[::-1].translate(_ONES), 2)
    return ones, ones ^ ((1 << len(labels)) - 1)


class InterpretationProfile(Checked, namedtuple(
    "InterpretationProfile", "sum prod base_case y_label", defaults=("disjoint_union", "lexicographic", "explicit_path", 2)
)):
    """Resolved readings of the construction's ambiguous operators.

    sum       reading of the block combination (disjoint_union or join)
    prod      reading of the copy product (lexicographic, cartesian, tensor)
    base_case whether stage 3 is the explicit 6-vertex path or the general formula
    y_label   label assigned to the base path's underdetermined vertex y
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        for field, readings in (("sum", COMBINE_OPS), ("prod", PRODUCT_KINDS), ("base_case", PROFILE_BASES)):
            if getattr(self, field) not in readings:
                raise ValueError(f"unknown {field} reading {reprlib.repr(getattr(self, field))}")
        if type(self.y_label) is not int or self.y_label not in LABELS:
            raise ValueError(f"y_label must be 1 or 2, got {reprlib.repr(self.y_label)}")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> InterpretationProfile:
        for field in cls._fields:
            if field not in d:
                raise ValueError(f"profile has no {field!r} field")
        return cls(*(d[field] for field in cls._fields))


DEFAULT_PROFILE = InterpretationProfile()


def _require_param(kind: str, param: int) -> None:
    """ValueError, naming the value, for an unknown target kind or a
    parameter that is not exactly an int of at least 3: the one check of a
    target.  A bool or 4.0 would key the stage memo as 1 or 4 does."""
    if kind not in ("F", "SF"):
        raise ValueError(f"unknown target kind {reprlib.repr(kind)}")
    if type(param) is not int or param < 3:
        rule = ">= 3" if type(param) is int else "an integer"
        raise ValueError(f"{'stage' if kind == 'F' else 'stack'} parameter must be {rule}, got {reprlib.repr(param)}")


class LabeledGraph(Checked, namedtuple("LabeledGraph", "graph labels")):
    """A dense build: its graph and one label per vertex, each exactly the
    int 1 or 2.  Its vertices are in the order of ``solve.Stack``'s parts:
    the base path, or a G side then an H side; G vertex v corresponds to
    H vertex v + half."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if len(self.labels) != self.graph.n:
            raise ValueError("labels length must equal vertex count")
        if not (set(map(type, self.labels)) <= {int} and set(self.labels) <= set(LABELS)):
            lab = next(lab for lab in self.labels if type(lab) is not int or lab not in LABELS)
            raise ValueError(f"label {lab!r} outside {{1, 2}}")


def stage_block(r: int, profile: InterpretationProfile) -> tuple[tuple[int, ...] | None, tuple[int, ...], tuple[int, ...], int]:
    """One block of F(r)'s first part as (clusters, rows, labels, copies),
    from r and the profile alone: one copy of ``product(empty(1), G_z,
    prod)``, G_z a clique on a = r // 2 vertices labeled 1 and one on the
    rest labeled 2 combined per sum, as its cliques: K_a and K_(r-a) under
    disjoint_union, K_r under join, r single vertices under tensor.  Under
    base_case="explicit_path", F(3) is the fixed 6-vertex path
    v-u-w-x-y-t, once, with labels 1,2,1,1,y_label,2 and clusters None."""
    if r == 3 and profile.base_case == "explicit_path":
        return None, path(6).rows, (1, 2, 1, 1, profile.y_label, 2), 1
    a = r // 2
    clusters = tuple(1 << v for v in range(r)) if profile.prod == "tensor" else ((1 << r) - 1,) if profile.sum == "join" else ((1 << a) - 1, (1 << r) - (1 << a))
    return clusters, cluster_rows(clusters), (1,) * a + (2,) * (r - a), r - 1


def cluster_rows(clusters: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the disjoint union of the cliques ``clusters``, masks
    that partition 0..n-1: row v is v's cluster without v."""
    rows = [0] * sum(map(int.bit_count, clusters))
    for cluster in filter(lambda cluster: cluster & cluster - 1, clusters):  # a single vertex's row stays 0
        for v in _members(cluster):
            rows[v] = cluster ^ 1 << v
    return tuple(rows)


def _members(mask: int) -> list[int]:
    """The vertices of ``mask``, ascending: where its binary digits, lowest
    first, hold a 1, found at C speed in place of one big-int step each."""
    return [found.start() for found in re.finditer("1", bin(mask)[:1:-1])]


@cache
def stage_family(profile: InterpretationProfile) -> tuple[InterpretationProfile, InterpretationProfile]:
    """``profile``'s stage family: the keys its stage 3 and its later
    stages are built and memoized under, one per block ``stage_block``
    reads, 9 for the 24 profiles.  The base path reads y_label alone, and
    - cartesian reads as lexicographic, because the left factor is edgeless;
    - tensor ignores sum: its copies are edgeless whatever G_z is;
    - the general base ignores y_label."""
    rest = DEFAULT_PROFILE.replace(prod="tensor") if profile.prod == "tensor" else DEFAULT_PROFILE.replace(sum=profile.sum)
    return DEFAULT_PROFILE.replace(y_label=profile.y_label) if profile.base_case == "explicit_path" else rest.replace(base_case="general"), rest


def build_F(r: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stage graph F(r): its G side, then its H side, the complement of the
    G side on a fresh vertex range with labels flipped.  Every
    opposite-parity pair across the sides is an edge.  Under
    base_case="explicit_path", F(3) is the base path alone."""
    return _dense(build_stream("F", r, profile))


def build_SF(t: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> LabeledGraph:
    """Stacked graph SF(t): stages 3..t placed disjointly in order, with an
    edge between vertices of different stages exactly when their label
    parities differ.  The stage-(t-1) prefix is an induced copy of SF(t-1)."""
    return _dense(build_stream("SF", t, profile))


def _dense(stream: Iterator) -> LabeledGraph:
    labels = next(stream)
    rows = tuple(chain.from_iterable(stream))
    return LabeledGraph(Graph._trusted(len(rows), rows), tuple(labels))


def build_stream(kind: str, param: int, profile: InterpretationProfile = DEFAULT_PROFILE) -> Iterator:
    """F(param) or SF(param) as its label bytes, then each part's rows as
    a list: each stage's base path, or G side and then H side, in order,
    each row with every vertex of the other parity outside its part, which
    joins the sides and the stages.  The builders' ValueError comes first."""
    _require_param(kind, param)
    parts = []  # (rows of one block of the part, its labels, its copies, whether it is the H side)
    for r in range(param, param + 1) if kind == "F" else range(3, param + 1):
        clusters, rows, block_labels, k = stage_block(r, profile)
        parts.append((rows, bytes(block_labels), k, False))
        if clusters is not None:  # the H side's block rows with each vertex's own bit, for the complement
            parts.append(([row | 1 << v for v, row in enumerate(rows)], parts[-1][1].translate(_FLIPPED), k, True))
    labels = b"".join(part_labels * k for _, part_labels, k, _ in parts)
    yield labels
    odd, even, end = *label_masks(labels), 0
    for block_rows, part_labels, k, inverse in parts:
        b, start = len(block_rows), end
        end += k * b
        own = (1 << end) - (1 << start)
        # A vertex labeled 1 (odd) joins the even vertices outside its part, and one labeled 2 the odd ones.
        joins = (0, even & ~own, odd & ~own)
        pairs = [(row, joins[label]) for row, label in zip(block_rows, part_labels)]
        if inverse:  # the complement of the G side's rows within the part, each vertex's own bit cleared
            yield [own ^ row << shift | join for shift in range(start, end, b) for row, join in pairs]
        else:
            yield [row << shift | join for shift in range(start, end, b) for row, join in pairs]
