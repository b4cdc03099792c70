"""Immutable dense graphs: the ``Graph`` record, its invariant check, and
the few operations that the dense solvers and the graph6 decoder need.

Vertices are the integers 0..n-1 and adjacency is one bitmask per vertex,
so equality of two graphs is bit-identity.

``Graph.problems()`` is the one check of the range, loop and symmetry
invariants, a per-bit walk over every row.  ``Graph.__post_init__`` raises
its first problem; it runs at the trust boundary: ``Graph(...)``,
``replace`` and unpickling (``Checked``).  ``formats.decode_graph6``
checks its text in full and builds rows that are valid by construction,
and ``complete``, ``complement`` and ``construct``'s dense builds derive
theirs from a count, a valid graph or the stage blocks, so each wraps its
rows with the unchecked ``Graph._trusted``.
``test_operations_preserve_invariants`` and ``test_builds_preserve_invariants``
in ``tests/test_graphs.py`` re-run the full check on every such path,
the builds under all 24 profiles included.

No command constructs a Graph (``tests/test_cli.py`` checks it); ``bench/``
needs each part.  ``Graph`` holds its search graphs, and its check is the
tracer's ``graphs.graph_init`` span; ``complete`` is the setup probe;
``complement`` serves ``solve.max_independent_set`` and the tile transpose
``formats.decode_graph6``.
``Checked`` is the base of ``Graph`` and of ``construct``'s records, and
is here because ``construct`` imports ``Graph``.  The paper's operators
(``combine``, ``product``, ``empty``, ``path``, ``cycle``) and
``random_graph`` are the tests' reference, in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import repeat

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
    inside 0..n-1.  Only the package's own operations, builders and graph6
    decoder, and the tests' operators, skip that check, through
    ``_trusted`` (see the module docstring).
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

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex pair ({i}, {j}) out of range for n={self.n}")
        return bool((self.rows[i] >> j) & 1)


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


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full & ~(1 << i) for i in range(n)))


def complement(g: Graph) -> Graph:
    """Edge present iff absent in the input; the diagonal stays clear."""
    full = (1 << g.n) - 1
    return Graph._trusted(g.n, tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.rows)))
