"""Bit-exact graph serialization: graph6 and DIMACS edge format.

graph6 packs the upper adjacency triangle column-major, six bits per
printable character (value + 63), after a size header N(n): one character
for n <= 62, '~' plus three characters for larger n, '~~' plus six beyond
258047.  Padding bits are zero on encode and ignored on decode.

The codecs run on whole strings and big ints, not bit by bit.  graph6
data is base64 with another alphabet: the base64 character of value v
becomes chr(63 + v).  Triangle bit p, the p-th of the string, is bit p
of one little-endian int, and column j, row j's neighbors below j, is
the j bits from p = j(j-1)/2.  ``graph6_chunks`` ORs each column (bits
0..j-1 of row j) in at its offset and, once ``_CHUNK_BITS`` are held,
spells the whole 3-byte quanta at C speed: ``int.to_bytes``, the bits
of each byte reversed (``_REVERSED_BITS``), ``binascii.b2a_base64`` and
``bytes.translate``; the last chunk is padded to a quantum and cut to
the text's length.  Both encoders read rows once, in order, from any
iterable, and take the header's n (and m) apart, which the rows must
meet (AssertionError): so ``build`` streams ``construct.build_stream``'s
rows under ``solve.Stack``'s closed forms.  Decode runs the same steps
backwards to the triangle's bytes and reads each column from the few
bytes that hold it; row j's neighbors above j are column j of that lower
triangle, so the rows are the lower rows OR their transpose
(``graphs.transpose_rows``).
Decode checks the text in full: its characters, size header, length and
trailing data.  The rows need no check, so it wraps them with the
unchecked ``Graph._trusted``: each lower row keeps only bits below its
own index, so the rows are loop-free and in range, and a matrix OR its
transpose is symmetric.  ``dimacs_rows`` yields DIMACS a vertex's lines
at a time, for ``build`` to stream.  Row i's neighbors above i are row
i-1's above i-1 less i itself exactly when the rows agree above i, as
twins do (64-70% of SF(7)'s rows, 88% of SF(24)'s); such a row keeps the
row before's names, any other picks them afresh with
``itertools.compress`` from its row's bits.  Base-2 ``format`` is exempt
from the int string-digit limit.
"""

from __future__ import annotations

import binascii
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import accumulate, compress
from operator import or_

from sfcheck.graphs import Graph, transpose_rows

_HEADER = ">>graph6<<"

_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


class Graph6ParseError(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# The bits ``graph6_chunks`` holds before it spells them: whole base64
# quanta of 24 bits, so that no chunk but the last is padded.  Each column
# ORed in costs time in proportion to the bits held, and each chunk a few
# calls; 24 * 256 was the fastest of 24 * 32 .. 24 * 1024 on SF(7) and SF(12).
_CHUNK_BITS = 24 * 256


def _graph6_size(n: int) -> str:
    """graph6's size header N(n)."""
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> shift & 63) + 63) for shift in range(30, -1, -6))
    raise ValueError(f"graph too large for graph6: n={n}")


def _graph6_data(bits: int, nbits: int) -> str:
    """The low ``nbits`` bits of ``bits``, a whole number of bytes with bit
    p the p-th of the string, as graph6 characters, six bits to one."""
    raw = bits.to_bytes(nbits // 8, "little").translate(_REVERSED_BITS)
    return binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6).decode()


def graph6_chunks(n: int, rows: Iterable[int]) -> Iterator[str]:
    """graph6 text of the n ``rows``, one string at a time: the size
    header, then the triangle's characters a chunk at a time."""
    yield _graph6_size(n)
    bits, held, j = 0, 0, -1
    for j, row in enumerate(rows):
        bits |= (row & ((1 << j) - 1)) << held
        held += j
        if held >= _CHUNK_BITS:
            whole = held - held % 24
            yield _graph6_data(bits & ((1 << whole) - 1), whole)
            bits >>= whole
            held -= whole
    if j + 1 != n:
        raise AssertionError(f"graph6 header names {n} vertices, the rows {j + 1}")
    yield _graph6_data(bits, held + -held % 24)[: (held + 5) // 6]


def encode_graph6(g: Graph) -> str:
    """graph6 text as one string: the join of ``graph6_chunks``."""
    return "".join(graph6_chunks(g.n, g.rows))


def decode_graph6(text: str) -> Graph:
    base = len(_HEADER) if text.startswith(_HEADER) else 0
    end = len(text)
    while end > base and text[end - 1] in "\r\n \t":
        end -= 1
    body = text[base:end]
    if not body:
        raise Graph6ParseError("empty graph6 string", base)

    if not body.isascii() or body.encode().translate(None, _G6):
        for k, ch in enumerate(body):
            if not 63 <= ord(ch) <= 126:
                raise Graph6ParseError(f"invalid graph6 character {ch!r}", base + k)
    raw = body.encode()
    vals = [c - 63 for c in raw[:8]]

    # N(n) ends at pos: one character below 63, else '~' and three of six bits each, or '~~' and six.
    pos = 1 if vals[0] < 63 else 4 if len(raw) >= 2 and vals[1] < 63 else 8
    if len(raw) < pos:
        raise Graph6ParseError("truncated size header", base + len(body))
    n = reduce(lambda high, v: high << 6 | v, vals[pos // 4 : pos])

    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    have = len(raw) - pos
    if have < ndata:
        raise Graph6ParseError(
            f"truncated edge data: need {ndata} characters, have {have}", base + len(body)
        )
    if have > ndata:
        raise Graph6ParseError("trailing characters after edge data", base + pos + ndata)

    data = raw[pos:].translate(_G6_TO_B64)
    data += b"A" * (-len(data) % 4)  # 'A' is base64 zero
    triangle = binascii.a2b_base64(data)
    del body, raw, data  # the text's copies, about n²/4 bytes, before the rows are built
    return Graph._trusted(n, _triangle_rows(triangle, n))


def _triangle_rows(triangle: bytes, n: int) -> tuple[int, ...]:
    """The rows of the n-vertex graph whose upper triangle, column-major,
    is the bit string of ``triangle``, trailing padding bits ignored."""
    # Triangle bit p, the p-th of the string, is bit p of ``bits`` read as
    # one little-endian int; column j is the j bits from p = j(j-1)/2.
    bits = triangle.translate(_REVERSED_BITS)
    lower = [
        int.from_bytes(bits[p >> 3 : (p + j + 7) >> 3], "little") >> (p & 7) & ((1 << j) - 1)
        for j, p in zip(range(n), accumulate(range(n), initial=0))
    ]
    return tuple(map(or_, lower, transpose_rows(lower)))


def dimacs_rows(n: int, m: int, rows: Iterable[int]) -> Iterator[str]:
    """DIMACS edge format of the n ``rows`` and m edges, one string at a
    time: the "p edge n m" line, then for each vertex u its 1-indexed
    "e u v" lines, v > u, ascending; a row that agrees above itself with
    the row before reuses its names."""
    names = [f"{v + 1}\n" for v in range(n)]
    yield f"p edge {n} {m}\n"
    kept, last, i, edges = [], -1, -1, 0  # row i-1's neighbor names above i-1, and those bits
    for i, row in enumerate(rows):
        above = row >> (i + 1)
        if above != last >> 1:
            # flags[k] is 1 when i is adjacent to i + 1 + k.
            flags = format(above, "b")[::-1].encode().translate(_FLAGS)
            kept = list(compress(names[i + 1 :], flags))
        elif last & 1:
            del kept[0]  # i itself, row i-1's first neighbor above it
        if kept:
            edges += len(kept)
            head = f"e {i + 1} "
            yield head + head.join(kept)
        last = above
    if (i + 1, edges) != (n, m):
        raise AssertionError(f"DIMACS header names {n} vertices and {m} edges, the rows {i + 1} and {edges}")


def encode_dimacs(g: Graph) -> str:
    """DIMACS edge format as one string: the join of ``dimacs_rows``."""
    return "".join(dimacs_rows(g.n, g.m, g.rows))
