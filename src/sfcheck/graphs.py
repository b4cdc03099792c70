"""Immutable dense graphs and the algebra used to assemble composite builds.

Vertices are the integers 0..n-1 and adjacency is one bitmask per vertex,
so equality of two graphs is bit-identity and every operation here defines
its output vertex order deterministically (first operand first, copy-major
for products).

``Graph.problems()`` is the one check of the range, loop and symmetry
invariants.  ``Graph.__post_init__`` raises its first problem, so the check
runs at the trust boundary: public ``Graph(...)``, ``Graph.from_edges``
(hence ``path`` and ``cycle``), ``random_graph`` and
``formats.decode_graph6``; ``construct.validate`` lists every problem.
The check runs in full at that boundary: range and loop per row, then
symmetry as one comparison of the LSB-first bit strings with their
transpose.  The per-bit walk runs only on a graph that fails, to name its
violations.
The algebra below (``complement``, ``combine``, ``product``, ``induced``,
``complete`` and ``empty``) and the builders in ``construct`` derive
rows from graphs that already satisfy the invariants, so they wrap their
output with the unchecked ``Graph._trusted``.
``test_operations_preserve_invariants`` and ``test_builds_preserve_invariants``
in ``tests/test_graphs.py`` re-run the full check on every trusted path,
the builds under all 24 profiles included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

COMBINE_OPS = ("disjoint_union", "join")
PRODUCT_KINDS = ("cartesian", "tensor", "lexicographic")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``rows[i]`` is the neighbor bitmask of i.

    ``Graph(n, rows)`` raises ValueError with the first of ``problems()``:
    n must be an int and rows a tuple of n ints, symmetric, loop-free and
    inside 0..n-1.  Only the package's own algebra and builders skip that
    check, through ``_trusted`` (see the module docstring).
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        for problem in self.problems():
            raise ValueError(problem)

    def problems(self) -> Iterator[str]:
        """Every range, self-loop and asymmetry violation, row by row; never raises.

        A whole-matrix check clears a valid graph in C-level string work;
        the per-bit walk below runs only when it fails, to name each
        violation in row order.  A ``shape_problem()`` (a count or row that
        is not an int, rows not a tuple of n) is named alone, before the rest.
        """
        shape = self.shape_problem()
        if shape:
            yield shape
            return
        full = (1 << self.n) - 1
        if not any(row & ~full or (row >> i) & 1 for i, row in enumerate(self.rows)):
            # Symmetric iff the matrix of LSB-first bit strings equals its
            # transpose; the sentinel bit n fixes every string's width.
            top = 1 << self.n
            bits = [format(row | top, "b")[:0:-1] for row in self.rows]
            if list(map("".join, zip(*bits))) == bits:
                return
        for i, row in enumerate(self.rows):
            if row & ~full:
                yield f"row {i} addresses vertices outside 0..{self.n - 1}"
            if (row >> i) & 1:
                yield f"self-loop at vertex {i}"
            mask = row & full
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if not (self.rows[j] >> i) & 1:
                    yield f"asymmetric adjacency between {i} and {j}"

    def shape_problem(self) -> str | None:
        """Why n and rows are not a count and a tuple of n ints, or None."""
        if type(self.n) is not int:
            return "vertex count must be an int"
        if self.n < 0:
            return "vertex count must be nonnegative"
        if type(self.rows) is not tuple:
            return "rows must be a tuple"
        if len(self.rows) != self.n:
            return "rows length must equal vertex count"
        if not set(map(type, self.rows)) <= {int}:
            i = next(i for i, row in enumerate(self.rows) if type(row) is not int)
            return f"row {i} must be an int"
        return None

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> Graph:
        """Wrap rows already known to satisfy the invariants, without the check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex pair ({i}, {j}) out of range for n={self.n}")
        return bool((self.rows[i] >> j) & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for i in range(self.n):
            mask = self.rows[i] >> (i + 1)
            j = i + 1
            while mask:
                step = (mask & -mask).bit_length() - 1
                j += step
                yield (i, j)
                mask >>= step + 1
                j += 1


def as_vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a sorted tuple; rejects duplicates, bools and out-of-range ids."""
    vs = tuple(sorted(members))
    if len(set(vs)) != len(vs):
        raise ValueError("vertex set contains duplicates")
    for v in vs:
        if isinstance(v, bool) or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} out of range for n={g.n}")
    return vs


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full & ~(1 << i) for i in range(n)))


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph._trusted(n, (0,) * n)


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    """Edge present iff absent in the input; the diagonal stays clear."""
    full = (1 << g.n) - 1
    return Graph._trusted(g.n, tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.rows)))


def combine(a: Graph, b: Graph, op: str) -> Graph:
    """Disjoint union or join; a keeps indices [0, a.n), b gets [a.n, a.n+b.n)."""
    if op not in COMBINE_OPS:
        raise ValueError(f"unknown combine op {op!r}")
    cross_b = (((1 << b.n) - 1) << a.n) if op == "join" else 0
    cross_a = ((1 << a.n) - 1) if op == "join" else 0
    rows = [row | cross_b for row in a.rows]
    rows.extend((row << a.n) | cross_a for row in b.rows)
    return Graph._trusted(a.n + b.n, tuple(rows))


def product(a: Graph, b: Graph, kind: str) -> Graph:
    """Cartesian, tensor, or lexicographic product; (i, j) -> i*b.n + j."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")

    def spread(arow: int, mask: int) -> int:
        """``mask`` placed in the block of every vertex set in ``arow``."""
        out = 0
        while arow:
            i2 = (arow & -arow).bit_length() - 1
            arow &= arow - 1
            out |= mask << (i2 * b.n)
        return out

    rows = []
    for i in range(a.n):
        arow = a.rows[i]
        blocks = spread(arow, (1 << b.n) - 1) if kind == "lexicographic" else 0
        for j in range(b.n):
            own = b.rows[j] << (i * b.n)
            if kind == "cartesian":
                rows.append(own | spread(arow, 1 << j))
            elif kind == "tensor":
                rows.append(spread(arow, b.rows[j]))
            else:
                rows.append(own | blocks)
    return Graph._trusted(a.n * b.n, tuple(rows))


def induced(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph on ``members``, renumbered in increasing original order."""
    vs = as_vertex_set(g, members)
    k = len(vs)
    rows = [0] * k
    for p in range(k):
        rp = g.rows[vs[p]]
        for q in range(p + 1, k):
            if (rp >> vs[q]) & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return Graph._trusted(k, tuple(rows))


def random_graph(n: int, edge_probability: float, rng: random.Random) -> Graph:
    """G(n, p) sample; edge draws follow (i, j) lexicographic order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))
