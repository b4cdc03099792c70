"""Bit-exact graph serialization: graph6 and DIMACS edge format.

graph6 packs the upper adjacency triangle column-major, six bits per
printable character (value + 63), after a size header N(n): one character
for n <= 62, '~' plus three characters for larger n, '~~' plus six beyond
258047.  Padding bits are zero on encode and ignored on decode.

The codecs run on whole strings and big ints, not bit by bit.  graph6
data is base64 with another alphabet: the base64 character of value v
becomes chr(63 + v), so encode writes the triangle as one '0'/'1' string
(column j is bits 0..j-1 of ``rows[j]``, lowest first), converts it with
``int(bits, 2)``, and lets ``binascii.b2a_base64`` and ``bytes.translate``
spell it.  Decode runs the same steps backwards to the triangle's bytes
and reverses the bits of each byte, so that triangle bit p is bit p of
one little-endian int.  Column j, row j's neighbors below j, is then read
from the few bytes that hold it; row j's neighbors above j are column j
of that lower triangle, so the rows are the lower rows OR their transpose
(``graphs.transpose_rows``).  Decode checks the text in full: its
characters, size header, length and trailing data.  The rows need no
check, so it wraps them with the unchecked ``Graph._trusted``: each lower
row keeps only bits below its own index, so the rows are loop-free and in
range, and a matrix OR its transpose is symmetric.  Base-2 ``int`` and
``format`` are exempt from the int string-digit limit.  DIMACS turns each
row's bits above the diagonal into a flag string and joins the vertex
numbers it selects with ``itertools.compress``.
"""

from __future__ import annotations

import binascii
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


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    elif n <= 68719476735:
        out = ["~", "~"]
        out.extend(chr(((n >> shift) & 63) + 63) for shift in range(30, -1, -6))
    else:
        raise ValueError(f"graph too large for graph6: n={n}")
    rows = g.rows
    bits = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    nchars = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)  # whole base64 quanta, so no '=' padding
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    out.append(binascii.b2a_base64(raw, newline=False)[:nchars].translate(_B64_TO_G6).decode())
    return "".join(out)


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

    if vals[0] < 63:
        n = vals[0]
        pos = 1
    elif len(raw) >= 2 and vals[1] < 63:
        if len(raw) < 4:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    else:
        if len(raw) < 8:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8

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


def encode_dimacs(g: Graph) -> str:
    """DIMACS edge format: "p edge n m" then 1-indexed "e u v" lines, u < v,
    in lexicographic order."""
    names = [str(v + 1) for v in range(g.n)]
    lines = [f"p edge {g.n} {g.m}"]
    for i, row in enumerate(g.rows):
        # flags[k] is 1 when i is adjacent to i + 1 + k; one join per row.
        flags = format(row >> (i + 1), "b")[::-1].encode().translate(_FLAGS)
        sep = f"\ne {i + 1} "
        ends = sep.join(compress(names[i + 1 :], flags))
        if ends:
            lines.append(sep[1:] + ends)
    return "\n".join(lines) + "\n"
