"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles (subset
enumeration, permutation search, naive definitional loops) without calling
the library code paths under test.
"""

from __future__ import annotations

import itertools

from sfcheck.construct import InterpretationProfile, VertexProvenance
from sfcheck.formats import Graph6ParseError
from sfcheck.graphs import Graph
from sfcheck.solve import CliqueResult, _degeneracy_order, _greedy_clique, verify_witness


def edge_set(g: Graph) -> set[frozenset[int]]:
    out = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j) & 1:
                out.add(frozenset((i, j)))
    return out


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search; only for tiny graphs."""
    if a.n != b.n:
        return False
    assert a.n <= 8, "brute-force isomorphism is exponential"
    ea, eb = edge_set(a), edge_set(b)
    if len(ea) != len(eb):
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(frozenset((perm[i], perm[j])) in eb for i, j in (tuple(e) for e in ea)):
            return True
    return False


def subset_max_clique(g: Graph, vertices=None) -> int:
    """Clique number by checking all subsets, largest first."""
    vs = list(range(g.n)) if vertices is None else list(vertices)
    assert len(vs) <= 16, "subset enumeration is exponential"
    for size in range(len(vs), 0, -1):
        for subset in itertools.combinations(vs, size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return 0


def subset_max_independent(g: Graph) -> int:
    assert g.n <= 16
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return 0


def naive_product_edges(a: Graph, b: Graph, kind: str) -> set[frozenset[int]]:
    """Product edges straight from the definitions, one pair at a time."""
    n = a.n * b.n
    out = set()
    for u in range(n):
        i, j = divmod(u, b.n)
        for w in range(u + 1, n):
            i2, j2 = divmod(w, b.n)
            ai = i != i2 and a.has_edge(i, i2)
            bj = j != j2 and b.has_edge(j, j2)
            if kind == "cartesian":
                adjacent = (i == i2 and bj) or (ai and j == j2)
            elif kind == "tensor":
                adjacent = ai and bj
            else:
                adjacent = ai or (i == i2 and bj)
            if adjacent:
                out.add(frozenset((u, w)))
    return out


def all_profiles() -> list[InterpretationProfile]:
    out = []
    for s in ("disjoint_union", "join"):
        for p in ("lexicographic", "cartesian", "tensor"):
            for b in ("explicit_path", "general"):
                for y in (1, 2):
                    out.append(InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y))
    return out


def stage_vertex_count(r: int) -> int:
    """Closed form for a general-profile stage: both sides of r-1 copies."""
    return 2 * (r - 1) * r


def stacked_vertex_count(t: int, explicit_base: bool) -> int:
    total = 6 if explicit_base else stage_vertex_count(3)
    for r in range(4, t + 1):
        total += stage_vertex_count(r)
    return total


def layout_provenance(kind: str, param: int, profile: InterpretationProfile) -> list[VertexProvenance]:
    """Provenance of every vertex of F(param) or SF(param), written out by
    the nested loops of the layout: the base path's six positions, else a
    G side then an H side, each r-1 copies of an x block of r // 2 vertices
    then a y block."""
    out = []
    for r in range(3 if kind == "SF" else param, param + 1):
        if r == 3 and profile.base_case == "explicit_path":
            out.extend(VertexProvenance(3, "path", 0, pos, i) for i, pos in enumerate("vuwxyt"))
            continue
        for side in ("G_side", "H_side"):
            for copy in range(r - 1):
                out.extend(VertexProvenance(r, side, copy, "x_block", i) for i in range(r // 2))
                out.extend(VertexProvenance(r, side, copy, "y_block", i) for i in range(r - r // 2))
    return out


def scan_degeneracy_order(rows: tuple[int, ...], n: int) -> list[int]:
    """Smallest-last order by an O(n^2) scan for the minimum remaining
    degree, lowest index among ties; the reference for the solver's
    bucket-queue order."""
    remaining = (1 << n) - 1
    deg = [rows[v].bit_count() for v in range(n)]
    order = []
    for _ in range(n):
        best_v = -1
        best_d = n + 1
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if deg[v] < best_d:
                best_d = deg[v]
                best_v = v
        order.append(best_v)
        remaining &= ~(1 << best_v)
        m = rows[best_v] & remaining
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            deg[w] -= 1
    return order


def recursive_max_clique(g: Graph) -> CliqueResult:
    """The solver's search as a recursive ``expand``, kept as it was before
    the explicit stack: the reference for the tree ``max_clique`` explores
    (same classes, same branching order, same node count and witness).
    Recursion depth grows with the clique, so keep inputs small."""
    n = g.n
    rows = g.rows
    nodes = 0

    seed = _greedy_clique(rows, n)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))

    def expand(base: list[int], cand: int) -> None:
        nonlocal nodes, best_size, best_witness
        nodes += 1
        if cand == 0:
            if len(base) > best_size:
                best_size = len(base)
                best_witness = tuple(sorted(base))
            return
        # Greedy coloring: peel independent classes; a vertex in class c can
        # extend the clique to at most len(base) + c.
        classes: list[int] = []
        rest = cand
        while rest:
            avail = rest
            cls = 0
            while avail:
                v = (avail & -avail).bit_length() - 1
                cls |= 1 << v
                avail &= ~(rows[v] | (1 << v))
            classes.append(cls)
            rest &= ~cls
        cur = cand
        for color in range(len(classes), 0, -1):
            cls = classes[color - 1]
            while True:
                if len(base) + color <= best_size:
                    return
                rem = cls & cur
                if rem == 0:
                    break
                v = (rem & -rem).bit_length() - 1
                cur &= ~(1 << v)
                base.append(v)
                expand(base, cur & rows[v])
                base.pop()

    order = _degeneracy_order(rows, n)
    remaining = (1 << n) - 1
    for v in order:
        remaining &= ~(1 << v)
        cand = rows[v] & remaining
        if 1 + cand.bit_count() <= best_size:
            continue
        expand([v], cand)

    if not verify_witness(g, best_witness, "clique"):
        raise AssertionError("solver produced an invalid clique witness")
    return CliqueResult(best_size, best_witness, nodes)


def walk_problems(n: int, rows: tuple[int, ...]) -> list[str]:
    """Range, self-loop and asymmetry messages by a per-bit walk over every
    row; the reference for ``Graph.problems()``."""
    if n < 0:
        return ["vertex count must be nonnegative"]
    if len(rows) != n:
        return ["rows length must equal vertex count"]
    out = []
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            out.append(f"row {i} addresses vertices outside 0..{n - 1}")
        if (row >> i) & 1:
            out.append(f"self-loop at vertex {i}")
        mask = row & full
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if not (rows[j] >> i) & 1:
                out.append(f"asymmetric adjacency between {i} and {j}")
    return out


def bitwise_encode_graph6(g: Graph) -> str:
    """graph6 one bit at a time; the reference for ``encode_graph6``."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        out = ["~", "~"]
        out.extend(chr(((n >> shift) & 63) + 63) for shift in range(30, -1, -6))
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def bitwise_decode_graph6(text: str) -> Graph:
    """graph6 one character and one bit at a time, with the same errors;
    the reference for ``decode_graph6``."""
    base = len(">>graph6<<") if text.startswith(">>graph6<<") else 0
    end = len(text)
    while end > base and text[end - 1] in "\r\n \t":
        end -= 1
    body = text[base:end]
    if not body:
        raise Graph6ParseError("empty graph6 string", base)

    vals = []
    for k, ch in enumerate(body):
        o = ord(ch)
        if o < 63 or o > 126:
            raise Graph6ParseError(f"invalid graph6 character {ch!r}", base + k)
        vals.append(o - 63)

    if vals[0] < 63:
        n = vals[0]
        pos = 1
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    else:
        if len(vals) < 8:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8

    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    have = len(vals) - pos
    if have < ndata:
        raise Graph6ParseError(
            f"truncated edge data: need {ndata} characters, have {have}", base + len(body)
        )
    if have > ndata:
        raise Graph6ParseError("trailing characters after edge data", base + pos + ndata)

    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[pos + k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph._trusted(n, tuple(rows))


def edgewise_encode_dimacs(g: Graph) -> str:
    """DIMACS one edge at a time; the reference for ``encode_dimacs``."""
    lines = [f"p edge {g.n} {len(edge_set(g))}"]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j) & 1:
                lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
