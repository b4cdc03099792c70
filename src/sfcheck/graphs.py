"""Immutable dense graphs and the algebra used to assemble composite builds.

Vertices are the integers 0..n-1 and adjacency is one bitmask per vertex,
so equality of two graphs is bit-identity and every operation here defines
its output vertex order deterministically (first operand first, copy-major
for products).

``Graph.problems()`` is the one check of the range, loop and symmetry
invariants, a per-bit walk over every row.  ``Graph.__post_init__`` raises
its first problem; it runs at the trust boundary: ``Graph(...)``,
``replace`` and unpickling (``Checked``) and ``Graph.from_edges`` (hence
``path`` and ``cycle``).  No run of the stage route checks a graph but the
six-vertex base path.  ``formats.decode_graph6`` checks its text in full
and builds rows that are valid by construction, so it wraps them unchecked,
as ``random_graph`` (which no command calls) wraps the rows it draws, each
edge set in both rows and none on the diagonal.
The algebra below (``complement``, ``combine``, ``product``, ``induced``,
``complete`` and ``empty``) and the builders in ``construct`` derive
rows from graphs that already satisfy the invariants, so they wrap their
output with the unchecked ``Graph._trusted``; ``product`` refuses a left
factor with an edge, which no build passes.
``test_operations_preserve_invariants`` and ``test_builds_preserve_invariants``
in ``tests/test_graphs.py`` re-run the full check on every trusted path,
the builds under all 24 profiles included.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

COMBINE_OPS = ("disjoint_union", "join")
PRODUCT_KINDS = ("cartesian", "tensor", "lexicographic")


class Checked:
    """Base of a named tuple whose ``__post_init__`` (on Graph, the hook
    ``bench/tracer.py`` wraps) raises ValueError for invalid fields.  The
    constructor, ``replace``, unpickling and copying run it; only the named
    tuple's own ``_make`` and ``_replace``, like ``Graph._trusted``, skip it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __reduce__(self):
        return type(self), tuple(self)

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, checked like a new record."""
        return type(self)(**{**self._asdict(), **changes})


class Graph(Checked, namedtuple("Graph", "n rows")):
    """Undirected simple graph; ``rows[i]`` is the neighbor bitmask of i.

    ``Graph(n, rows)`` raises ValueError with the first of ``problems()``:
    n must be an int and rows a tuple of n ints, symmetric, loop-free and
    inside 0..n-1.  Only the package's own algebra, builders and graph6
    decoder skip that check, through ``_trusted`` (see the module docstring).
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        for problem in self.problems():
            raise ValueError(problem)

    def problems(self) -> Iterator[str]:
        """Every range, self-loop and asymmetry violation, row by row; never raises.

        One walk over each row's bits names each violation in row order.
        A ``shape_problem()`` (a count or row that is not an int, rows not
        a tuple of n) is named alone, before the rest.
        """
        shape = self.shape_problem()
        if shape:
            yield shape
            return
        n, rows = self.n, self.rows
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                yield f"row {i} addresses vertices outside 0..{n - 1}"
            if (row >> i) & 1:
                yield f"self-loop at vertex {i}"
            mask = row & full
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if not (rows[j] >> i) & 1:
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
        return tuple.__new__(cls, (n, rows))

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


# A packed bit matrix is its rows end to end, each as ``width`` bytes,
# little-endian: bit j of row i is bit 8 * width * i + j of the bytes read
# as one little-endian int, and rows 8k..8k+7 with byte c of each form the
# 8 x 8 tile (k, c).


def _tile_swaps(width: int) -> Iterator[tuple[int, int]]:
    """The delta swaps (shift, mask) that transpose every 8 x 8 tile of a
    packed matrix of 8 * width rows, each mask built when it is reached.
    At block size b = 4, 2, 1 the mask marks each tile's bits in the rows r
    with r % 2b < b and the columns c with c % 2b >= b (the bytes 0xF0,
    0xCC, 0xAA), and the shift b * (8 * width - 1) moves each onto its
    mirror image (r + b, c - b)."""
    zero = bytes(width)
    for b, column in ((4, 0xF0), (2, 0xCC), (1, 0xAA)):
        rows = bytes((column,)) * width * b + zero * b
        yield b * (8 * width - 1), int.from_bytes(rows * (4 // b) * width, "little")


def transpose_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the transpose of the square bit matrix ``rows``: bit i
    of row j is bit j of row i.  Every row must be a nonnegative int with no
    bit at or past n = len(rows).

    The rows are packed ``width`` = n // 8 + 1 bytes each, and
    ``_transpose_tiles`` transposes every tile in place.  Row r of tile
    (k, c) then holds bits 8k..8k+7 of row 8c + r of the transpose, so that
    row is the stride-8·width slice of bytes that starts at row r, byte c.
    The padded matrix is at most 8 rows and columns larger than n, at any n."""
    width = len(rows) // 8 + 1
    packed = b"".join(map(int.to_bytes, rows, repeat(width), repeat("little")))
    tiles = _transpose_tiles(packed, width).to_bytes(8 * width * width, "little")
    step = 8 * width
    return tuple(int.from_bytes(tiles[(j & 7) * width + (j >> 3) :: step], "little") for j in range(len(rows)))


def _transpose_tiles(packed: bytes, width: int) -> int:
    """The packed matrix as one int with every 8 x 8 tile transposed in
    place by three delta swaps on the whole int (Warren, *Hacker's Delight*,
    2nd ed., §7-3, "Transposing a Bit Matrix").  A function of its own so
    that its big temporaries are freed when it returns."""
    x = int.from_bytes(packed, "little")
    for shift, mask in _tile_swaps(width):
        t = (x ^ (x >> shift)) & mask
        x ^= t
        t <<= shift
        x ^= t
        del t, mask  # before the next mask is built: four ints of the matrix's size at most
    return x


def as_vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a sorted tuple; rejects duplicates, out-of-range ids and
    any vertex that is not an int, bools included.  The types are checked
    before sorting and the range by the ends of the sorted tuple; the
    vertices are walked only to name the first offender."""
    vs = list(members)
    types = set(map(type, vs))
    if not types <= {int, bool}:
        v = next(v for v in vs if type(v) not in (int, bool))
        raise ValueError(f"vertex {v!r} is not an int")
    vs.sort()
    vs = tuple(vs)
    if len(set(vs)) != len(vs):
        raise ValueError("vertex set contains duplicates")
    if bool in types or vs and (vs[0] < 0 or vs[-1] >= g.n):
        v = next(v for v in vs if type(v) is bool or not 0 <= v < g.n)
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
    """The product of an edgeless ``a`` with ``b``; (i, j) -> i*b.n + j: a.n
    shifted copies of b under cartesian and lexicographic, which join two
    copies only through an edge of ``a``, and a.n*b.n isolated vertices
    under tensor.  A left factor with an edge raises ValueError."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    if any(a.rows):
        raise ValueError("product takes an edgeless left factor")
    rows = (0,) * b.n if kind == "tensor" else b.rows
    return Graph._trusted(a.n * b.n, tuple(row << (i * b.n) for i in range(a.n) for row in rows))


def induced(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph on ``members``, renumbered in increasing original order,
    one bit test per member pair: the solver induces only prime pieces, at
    most the six-vertex base path and its complement."""
    vs = as_vertex_set(g, members)
    return Graph._trusted(len(vs), tuple(sum((g.rows[v] >> u & 1) << i for i, u in enumerate(vs)) for v in vs))


def random_graph(n: int, edge_probability: float, rng) -> Graph:
    """G(n, p) sample drawn from ``rng``, a ``random.Random``; edge draws
    follow (i, j) lexicographic order."""
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
    return Graph._trusted(n, tuple(rows))
